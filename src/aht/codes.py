"""Encoded qubits: code constructions, logical observables and restrictions.

Three codes are built explicitly rather than derived from a Wedderburn
decomposition of the error algebra:

``dfs2``
    Two physical qubits, logical qubit on the zero-quantum subspace
    ``span{|01>, |10>}``.  Immune to collective z dephasing.
``dfs2x2``
    Two ``dfs2`` blocks on qubit pairs (1,2) and (3,4); a 4-dimensional
    logical space inside the 6-dimensional zero-quantum subspace of four
    qubits.
``ns3``
    Three physical qubits under general collective noise; the logical
    qubit is the multiplicity (noiseless-subsystem) factor of the two
    total-spin-1/2 doublets and carries a two-dimensional syndrome
    co-factor.

All three go through one path.  A code is an isometry onto a logical (x)
syndrome space; a decoherence-free subspace such as ``dfs2`` is simply
the case of a one-dimensional syndrome factor, over which the partial
trace is the identity.  Every code records its logical observables as
*physical* operators that preserve the code space, physical pulse
realizations of the encoded pi rotations (products of one- and two-qubit
Pauli operators, each an involution so that pulse cycles close exactly)
and the table of ``(axes, physical label)`` pairs that
:func:`verify_pulse_correspondence` checks.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import DEFAULT_TOL, ValidationError, _integer, _known, _real
from .operators import (
    SIGMA,
    Operator,
    PauliString,
    MatrixLike,
    collective,
    commutator,
    exchange,
    mat,
    pauli_sum,
    phase_insensitive_fidelity,
    single_qubit,
)

__all__ = [
    "Code",
    "LogicalAction",
    "CorrespondenceCheck",
    "HeteroCoefficients",
    "CODE_NAMES",
    "build_code",
    "logical_action",
    "ns3_hamiltonian",
    "ns3_logical_hamiltonian",
    "dfs2x2_logical_hamiltonian",
    "nmr_hamiltonian",
    "weak_coupling_truncation",
    "verify_pulse_correspondence",
]


@dataclass(frozen=True)
class Code:
    """Isometric embedding of a logical (x) syndrome space into n qubits.

    ``isometry`` has shape ``(2**n_physical, logical_dim * syndrome_dim)``
    with orthonormal columns ordered logical-major, i.e. column
    ``l * syndrome_dim + z`` carries ``|l>_L (x) |z>_Z``.  ``pulse_table``
    lists the ``(axes, physical label)`` pairs whose encoded pi rotations
    :func:`verify_pulse_correspondence` checks.
    """

    name: str
    n_physical: int
    logical_dim: int
    syndrome_dim: int
    isometry: np.ndarray
    logical_observables: Mapping[tuple[str, int], Operator]
    pulse_realizations: Mapping[tuple[str, int], Operator]
    pulse_table: tuple[tuple[str, str], ...]

    def __post_init__(self):
        v = self.isometry
        gram = v.conj().T @ v
        if not np.max(np.abs(gram - np.eye(gram.shape[0]))) <= DEFAULT_TOL.unitarity:
            raise ValidationError(f"code {self.name}: isometry columns are not orthonormal")
        if v.shape != (2**self.n_physical, self.logical_dim * self.syndrome_dim):
            raise ValidationError(f"code {self.name}: isometry shape {v.shape} inconsistent")
        v.setflags(write=False)

    @property
    def n_logical(self) -> int:
        return int(self.logical_dim).bit_length() - 1

    def projector(self) -> np.ndarray:
        return self.isometry @ self.isometry.conj().T

    def restrict(self, op: MatrixLike) -> np.ndarray:
        """``V^dag O V`` on the embedded logical (x) syndrome space."""
        return self.isometry.conj().T @ mat(op, len(self.isometry)) @ self.isometry

    def leakage(self, op: MatrixLike) -> float:
        """Spectral norm of the block coupling the code space to its complement."""
        m = mat(op, len(self.isometry))
        p = self.projector()
        off = (np.eye(len(m)) - p) @ m @ p
        return float(np.linalg.norm(off, 2))

    def observable(self, axis: str, logical_qubit: int = 1) -> Operator:
        key = (axis.lower(), logical_qubit)
        if key not in self.logical_observables:
            raise ValidationError(f"code {self.name} has no observable {key}")
        return self.logical_observables[key]

    def logical_pi(self, axes: str) -> Operator:
        """Encoded pi rotation on the abstract logical space.

        ``axes`` gives one letter from ``ixyz`` per logical qubit; each
        non-identity factor contributes ``exp(-i pi sigma_a / 2) = -i sigma_a``.
        """
        axes = axes.lower()
        if len(axes) != self.n_logical:
            raise ValidationError(f"axes {axes!r} needs {self.n_logical} letters")
        pauli = PauliString(self.n_logical, axes.upper(), (-1j) ** sum(a != "i" for a in axes))
        return Operator(pauli.to_operator().matrix, label=f"pi^L[{axes}]")

    def physical_pi(self, axes: str) -> Operator:
        """Physical realization of :meth:`logical_pi` from the pulse table."""
        axes = axes.lower()
        if len(axes) != self.n_logical:
            raise ValidationError(f"axes {axes!r} needs {self.n_logical} letters")
        m = np.eye(2**self.n_physical, dtype=complex)
        for ell, a in enumerate(axes, start=1):
            if a == "i":
                continue
            key = (a, ell)
            if key not in self.pulse_realizations:
                raise ValidationError(f"code {self.name} has no pulse realization for {key}")
            m = self.pulse_realizations[key].matrix @ m
        return Operator(m, label=f"{self.name}:pi[{axes}]")

    def encode(self, logical_state: np.ndarray) -> np.ndarray:
        """Embed a logical state vector, with the syndrome factor in its first basis state."""
        psi = np.asarray(logical_state, dtype=complex).reshape(-1)
        if psi.shape[0] != self.logical_dim:
            raise ValidationError(f"logical state has dim {psi.shape[0]}, need {self.logical_dim}")
        chi = np.zeros(self.syndrome_dim, dtype=complex)
        chi[0] = 1.0
        return self.isometry @ np.kron(psi, chi)

    def plus_state(self) -> np.ndarray:
        """Encoded ``|+...+>_L`` (equal superposition of all logical basis states)."""
        psi = np.full(self.logical_dim, 1 / np.sqrt(self.logical_dim), dtype=complex)
        return self.encode(psi)


@dataclass(frozen=True)
class LogicalAction:
    """Result of restricting a physical operator to a code.

    The restriction ``R = V^dag H V`` is split as
    ``L (x) 1_Z + 1_L (x) M + c 1`` whenever that is possible;
    ``logical_part`` is the traceless ``L`` and ``identity_offset`` the
    scalar ``c``.  Pathologies are reported, never raised: a nonzero
    off-code block shows up in ``leakage_norm`` and a non-scalar or
    unfactorizable syndrome action sets ``syndrome_nontrivial``.
    """

    preserves_code: bool
    logical_part: Operator
    identity_offset: float
    leakage_norm: float
    syndrome_nontrivial: bool
    factorizable: bool
    syndrome_part: Operator | None = None

    def to_dict(self) -> dict:
        d = {
            "preserves_code": self.preserves_code,
            "identity_offset": self.identity_offset,
            "leakage_norm": self.leakage_norm,
            "syndrome_nontrivial": self.syndrome_nontrivial,
            "factorizable": self.factorizable,
            "logical_part_real": self.logical_part.matrix.real.tolist(),
            "logical_part_imag": self.logical_part.matrix.imag.tolist(),
        }
        if self.syndrome_part is not None:
            d["syndrome_part_real"] = self.syndrome_part.matrix.real.tolist()
            d["syndrome_part_imag"] = self.syndrome_part.matrix.imag.tolist()
        return d


def _trace_syndrome(r: np.ndarray, syndrome_dim: int) -> np.ndarray:
    """Normalized partial trace over the syndrome factor of a logical-major
    operator, ``Tr_Z(R) / d_Z``; the identity map when ``d_Z = 1``."""
    nl = r.shape[0] // syndrome_dim
    return np.einsum("izjz->ij", r.reshape(nl, syndrome_dim, nl, syndrome_dim)) / syndrome_dim


def logical_action(h: MatrixLike, code: Code) -> LogicalAction:
    """Compute the action of a physical operator on a code.

    The factorization ``R - c 1 = L (x) 1 + 1 (x) M`` is detected via the
    rank of the realigned matrix (rank <= 2 iff such a split exists) and
    then read off from partial traces.  A subspace code is the case of a
    one-dimensional syndrome, where the split is always ``R = L + c 1`` and
    no syndrome part is reported.  Rounding in ``R - c 1`` grows with ``c``:
    the split's misfit is compared to ``DEFAULT_TOL.equality`` times
    ``max(1, max |R|)``, and a syndrome action counts only above
    ``DEFAULT_TOL.equality`` plus two ulps of ``max(1, max |R|)`` per
    physical dimension, which is rounding alone and so still sees an O(1)
    syndrome term at an identity offset of 1e14.
    """
    nl, dz = code.logical_dim, code.syndrome_dim
    leak = code.leakage(h)
    r = code.restrict(h)
    c = np.trace(r) / (nl * dz)
    r0 = r - c * np.eye(nl * dz)

    blocks = r0.reshape(nl, dz, nl, dz)
    realigned = blocks.transpose(0, 2, 1, 3).reshape(nl * nl, dz * dz)
    svals = np.linalg.svd(realigned, compute_uv=False)
    scale = max(svals[0], 1.0)
    rank = int(np.sum(svals > DEFAULT_TOL.rank * scale))

    logical = _trace_syndrome(r0, dz)
    syndrome = np.einsum("iziw->zw", blocks) / nl
    # the scalar part of the syndrome action is rounding left over from c
    # (exactly all of it when d_Z = 1): a scalar syndrome action is trivial
    traceless = syndrome - np.trace(syndrome) / dz * np.eye(dz)
    rebuilt = (logical[:, None, :, None] * np.eye(dz)[None, :, None, :]
               + np.eye(nl)[:, None, :, None] * traceless[None, :, None, :]).reshape(nl * dz, -1)
    misfit = np.max(np.abs(rebuilt - r0))
    size = max(1.0, float(np.max(np.abs(r))))
    factorizable = rank <= 2 and misfit < max(DEFAULT_TOL.equality * size, DEFAULT_TOL.rank * scale)
    forgiven = DEFAULT_TOL.equality + 2 * len(code.isometry) * np.spacing(size)
    syndrome_nontrivial = (not factorizable) or np.max(np.abs(traceless)) > forgiven
    return LogicalAction(
        preserves_code=leak < DEFAULT_TOL.equality,
        logical_part=Operator(logical),
        identity_offset=float(c.real),
        leakage_norm=leak,
        syndrome_nontrivial=bool(syndrome_nontrivial),
        factorizable=bool(factorizable),
        syndrome_part=Operator(syndrome) if dz > 1 else None,
    )


# ---------------------------------------------------------------------------
# code constructions
# ---------------------------------------------------------------------------

def _basis_ket(bits: str) -> np.ndarray:
    v = np.zeros(2 ** len(bits), dtype=complex)
    v[int(bits, 2)] = 1.0
    return v


def _build_dfs2() -> Code:
    iso = np.column_stack([_basis_ket("01"), _basis_ket("10")])
    def word(letters: str, coefficient: float = 1.0) -> PauliString:
        return PauliString.from_word(letters, [1, 2], 2, coefficient)

    z = 0.5 * (single_qubit("Z", 1, 2) - single_qubit("Z", 2, 2))
    x = 0.5 * pauli_sum([word("XX"), word("YY")])
    y = 0.5 * pauli_sum([word("YX"), word("XY", -1)])
    observables = {("x", 1): x, ("y", 1): y, ("z", 1): z}
    realizations = {
        ("x", 1): word("XX").to_operator(),
        ("y", 1): word("XY").to_operator(),
        ("z", 1): single_qubit("Z", 2, 2),
    }
    table = (("x", "X1 X2"), ("y", "X1 Y2"), ("z", "Z2"))
    return Code("dfs2", 2, 2, 1, iso, observables, realizations, table)


def _build_dfs2x2() -> Code:
    block = _build_dfs2()
    iso = np.kron(block.isometry, block.isometry)
    eye4 = np.eye(4, dtype=complex)
    observables: dict[tuple[str, int], Operator] = {}
    realizations: dict[tuple[str, int], Operator] = {}
    for a in "xyz":
        observables[(a, 1)] = Operator(np.kron(block.observable(a).matrix, eye4))
        observables[(a, 2)] = Operator(np.kron(eye4, block.observable(a).matrix))
        realizations[(a, 1)] = Operator(np.kron(block.pulse_realizations[(a, 1)].matrix, eye4))
        realizations[(a, 2)] = Operator(np.kron(eye4, block.pulse_realizations[(a, 1)].matrix))
    table = (("xi", "X1 X2"), ("ix", "X3 X4"), ("xx", "X1 X2 X3 X4"),
             ("xz", "X1 X2 Z4"), ("zx", "Z2 X3 X4"), ("zz", "Z2 Z4"))
    return Code("dfs2x2", 4, 4, 1, iso, observables, realizations, table)


def _build_ns3() -> Code:
    # Total-spin basis by explicit Clebsch-Gordan coupling: qubits 1,2 into
    # singlet/triplet, then qubit 3.  |0> is spin-up (m = +1/2).
    up, down = _basis_ket("0"), _basis_ket("1")
    singlet = (_basis_ket("01") - _basis_ket("10")) / np.sqrt(2)
    t_plus = _basis_ket("00")
    t_zero = (_basis_ket("01") + _basis_ket("10")) / np.sqrt(2)
    t_minus = _basis_ket("11")

    # The two J=1/2 doublets: multiplicity label lambda in {0 (singlet
    # branch), 1 (triplet branch)}, magnetic label m in {+1/2, -1/2}.
    lam0 = [np.kron(singlet, up), np.kron(singlet, down)]
    lam1 = [
        np.sqrt(2 / 3) * np.kron(t_plus, down) - np.sqrt(1 / 3) * np.kron(t_zero, up),
        np.sqrt(1 / 3) * np.kron(t_zero, down) - np.sqrt(2 / 3) * np.kron(t_minus, up),
    ]
    v0 = np.column_stack(lam0 + lam1)  # ordering: lambda major, m minor

    s12, s23, s31 = exchange(1, 2, 3), exchange(2, 3, 3), exchange(3, 1, 3)
    obs_x = Operator((np.eye(8) + s12.matrix) / 2)
    obs_y = Operator(-(np.sqrt(3) / 6) * (s23.matrix - s31.matrix))
    obs_z = Operator(-0.5j * commutator(obs_x, obs_y).matrix)

    def multiplicity_block(op: Operator) -> np.ndarray:
        r = v0.conj().T @ op.matrix @ v0
        lam_part = _trace_syndrome(r, 2)
        if np.max(np.abs(r - np.kron(lam_part, np.eye(2)))) > 1e-12:
            raise AssertionError("ns3 observable does not act trivially on the syndrome factor")
        return lam_part

    a_lam = multiplicity_block(obs_x)
    b_lam = multiplicity_block(obs_y)
    # Rotate the multiplicity basis so the two observable identities hold
    # with the standard Pauli matrices; phases come out consistent
    # automatically because -i a_lam b_lam anticommutes with both.
    c_lam = -1j * a_lam @ b_lam
    evals, evecs = np.linalg.eigh(c_lam)
    v_zero = evecs[:, np.argmax(evals)]
    v_one = a_lam @ v_zero
    w = np.column_stack([v_zero, v_one])
    iso = v0 @ np.kron(w, np.eye(2))

    for op, target in ((obs_x, SIGMA["X"]), (obs_y, SIGMA["Y"]), (obs_z, SIGMA["Z"])):
        r = iso.conj().T @ op.matrix @ iso
        if np.max(np.abs(r - np.kron(target, np.eye(2)))) > 1e-12:
            raise AssertionError("ns3 logical basis construction failed")

    observables = {("x", 1): obs_x, ("y", 1): obs_y, ("z", 1): obs_z}
    # The encoded pi_x rotation coincides (up to phase) with swapping
    # qubits 1 and 2, which is itself an involutive unitary.
    realizations = {("x", 1): Operator((np.eye(8) + s12.matrix) / 2, label="swap12")}
    return Code("ns3", 3, 2, 2, iso, observables, realizations, (("x", "swap12"),))


#: The named codes in catalog order, one row each: the ``aht list`` line and the builder.
_CODES = {
    "ns3": ("3 qubits; logical qubit on the spin-1/2 multiplicity space; immune to collective noise",
            _build_ns3),
    "dfs2": ("2 qubits; logical qubit on span{|01>,|10>}; immune to collective z dephasing",
             _build_dfs2),
    "dfs2x2": ("4 qubits; two dfs2 blocks on pairs (1,2) and (3,4)", _build_dfs2x2),
}
CODE_NAMES = tuple(_CODES)


def build_code(name: str) -> Code:
    """Construct one of the named codes: ``ns3``, ``dfs2`` or ``dfs2x2``."""
    return _known("code", name, _CODES)[1]()


# ---------------------------------------------------------------------------
# closed-form logical Hamiltonians
# ---------------------------------------------------------------------------

def ns3_hamiltonian(omega: float, j12: float, j23: float, j31: float) -> Operator:
    """Physical three-spin Hamiltonian: Zeeman term plus pairwise exchange."""
    h = omega * collective("Z", 3).matrix
    h = h + j12 * exchange(1, 2, 3).matrix + j23 * exchange(2, 3, 3).matrix
    h = h + j31 * exchange(3, 1, 3).matrix
    return Operator(h)


def ns3_logical_hamiltonian(omega: float, j12: float, j23: float, j31: float) -> Operator:
    """Closed-form logical action of :func:`ns3_hamiltonian` on the ns3 code.

    The Zeeman and fully symmetric exchange parts act as the identity on
    the logical factor, leaving
    ``(2 j12 - j23 - j31) sigma_x^L + sqrt(3) (j31 - j23) sigma_y^L``.
    """
    del omega  # identity action on the logical factor
    cx = 2 * j12 - j23 - j31
    cy = np.sqrt(3) * (j31 - j23)
    return Operator(cx * SIGMA["X"] + cy * SIGMA["Y"])


@dataclass(frozen=True)
class HeteroCoefficients:
    """Linear combinations of the four hetero-nuclear couplings.

    ``a`` multiplies the block-collective product, ``b`` and ``c`` the
    mixed collective/logical terms, and ``d`` the purely logical
    ``sigma_z^L1 sigma_z^L2`` coupling.
    """

    a: float
    b: float
    c: float
    d: float


def _normalize_couplings(j: Mapping, n: int = 4) -> dict[tuple[int, int], float]:
    """Couplings keyed ``"13"`` or ``(1, 3)`` as ``{(1, 3): J}``, checked to
    name two distinct qubits in ``1..n``."""
    if not isinstance(j, Mapping):
        raise ValidationError(f"couplings 'j' must be an object, got {j!r}")
    out: dict[tuple[int, int], float] = {}
    for key, val in j.items():
        qubits = [int(ch) for ch in key] if isinstance(key, str) and key.isdecimal() else key
        if not isinstance(qubits, (list, tuple)) or len(qubits) != 2:
            raise ValidationError(f"coupling key {key!r} must name two qubits")
        pair = tuple(sorted(_integer(f"coupling key {key!r} qubit", q) for q in qubits))
        if pair[0] == pair[1]:
            raise ValidationError(f"coupling key {key!r} must name two distinct qubits")
        if not 1 <= pair[0] < pair[1] <= n:
            raise ValidationError(f"coupling {pair} names a qubit outside 1..{n}")
        out[pair] = _real(f"coupling {key!r}", val)
    return out


def hetero_coefficients(j: Mapping) -> HeteroCoefficients:
    jj = _normalize_couplings(j)
    j13 = jj.get((1, 3), 0.0)
    j14 = jj.get((1, 4), 0.0)
    j23 = jj.get((2, 3), 0.0)
    j24 = jj.get((2, 4), 0.0)
    return HeteroCoefficients(
        a=(j13 + j14 + j23 + j24) / 8,
        b=(j13 - j14 + j23 - j24) / 4,
        c=(j13 + j14 - j23 - j24) / 4,
        d=(j13 - j14 - j23 + j24) / 4,
    )


def dfs2x2_logical_hamiltonian(
    nu: Sequence[float], j: Mapping
) -> tuple[Operator, HeteroCoefficients]:
    """Closed-form logical action of the weak-coupling four-spin Hamiltonian.

    Parameters are NMR-style: chemical shifts ``nu`` (Hz, one per
    physical qubit) and scalar couplings ``j`` keyed by qubit pair.  The
    result is the traceless logical operator

    ``pi (dnu12 Z1 + dnu34 Z2 + J12 X1 + J34 X2 + 2 d Z1 Z2)``

    on the two encoded qubits, together with the hetero-coupling
    combinations (a, b, c, d).  Note the logical ZZ coefficient is
    ``2 pi d``: each product ``sigma_z^j sigma_z^j'`` restricts to the
    full ``sigma_z^L1 sigma_z^L2`` with no factor 1/2, unlike the terms
    picking up block-collective factors.
    """
    if len(nu) != 4:
        raise ValidationError("need four chemical shifts")
    jj = _normalize_couplings(j)
    coeffs = hetero_coefficients(jj)
    terms = {"ZI": nu[0] - nu[1], "IZ": nu[2] - nu[3], "XI": jj.get((1, 2), 0.0),
             "IX": jj.get((3, 4), 0.0), "ZZ": 2 * coeffs.d}
    h = pauli_sum(PauliString(2, letters, c) for letters, c in terms.items())
    return Operator(np.pi * h.matrix), coeffs


def nmr_hamiltonian(nu: Sequence[float], j: Mapping, n: int = 4) -> list[PauliString]:
    """Strong-coupling NMR Hamiltonian as a Pauli-string list.

    ``sum_j pi nu_j sigma_z^j + sum_{j<j'} (pi/2) J_jj' vec(sigma)^j . vec(sigma)^j'``
    with frequencies in Hz (the pi factors convert to rad/s).
    """
    if len(nu) != n:
        raise ValidationError(f"need {n} chemical shifts 'nu', got {len(nu)}")
    terms = [
        PauliString.from_word("Z", [q], n, coefficient=np.pi * nu[q - 1])
        for q in range(1, n + 1)
        if nu[q - 1] != 0.0
    ]
    for (a, b), val in sorted(_normalize_couplings(j, n).items()):
        if val == 0.0:
            continue
        for letter in "XYZ":
            terms.append(
                PauliString.from_word(letter + letter, [a, b], n, coefficient=np.pi * val / 2)
            )
    return terms


def weak_coupling_truncation(
    terms: Iterable[PauliString], species: Sequence[str]
) -> list[PauliString]:
    """Drop the off-diagonal (XX and YY) parts of hetero-species couplings.

    The truncation is the explicit secular approximation step: for every
    two-qubit XX or YY term whose qubits carry different species labels,
    the term is removed; ZZ parts and homo-species couplings survive.
    """
    kept = []
    for t in terms:
        support = [(q, letter) for q, letter in enumerate(t.letters, start=1) if letter != "I"]
        if len(support) == 2:
            (qa, la), (qb, lb) = support
            if la == lb and la in ("X", "Y") and species[qa - 1] != species[qb - 1]:
                continue
        kept.append(t)
    return kept


# ---------------------------------------------------------------------------
# pulse correspondence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrespondenceCheck:
    axes: str
    physical_label: str
    preserves_code: bool
    fidelity: float
    passed: bool


def verify_pulse_correspondence(code: Code) -> list[CorrespondenceCheck]:
    """Check a code's encoded-pi pulse table against direct restriction.

    For each pair in ``code.pulse_table`` the physical product operator
    must preserve the code space and, with the syndrome traced out,
    restrict up to a global phase to the encoded pi rotation; the fidelity
    reported is ``|Tr(A^dag B)| / N_L``.
    """
    checks = []
    for axes, label in code.pulse_table:
        physical = code.physical_pi(axes)
        restricted = _trace_syndrome(code.restrict(physical), code.syndrome_dim)
        fid = phase_insensitive_fidelity(code.logical_pi(axes).matrix, restricted)
        preserves = code.leakage(physical) < DEFAULT_TOL.equality
        checks.append(
            CorrespondenceCheck(
                axes=axes,
                physical_label=label,
                preserves_code=preserves,
                fidelity=fid,
                passed=preserves and fid >= 1 - DEFAULT_TOL.equality,
            )
        )
    return checks
