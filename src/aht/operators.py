"""Dense operator algebra for small multi-qubit systems.

Everything in this package runs on exact dense complex matrices for at
most five qubits (dimension 32), which keeps every primitive here well
below a millisecond.  Qubits are numbered 1..n with qubit 1 the leftmost
(most significant) tensor factor, so ``|q1 q2 ... qn>`` has index
``sum(q_i * 2**(n-i))``.

The module provides the :class:`Operator` and :class:`PauliString` value
types plus the handful of primitives the rest of the package is built
from: Pauli sums, frame conjugation, the Hamiltonian exponential
``exp(-i H t)`` and its principal-branch inverse, commutators and the
normalized trace pairing ``<A, B> = Tr(A^dag B) / dim``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .config import DEFAULT_TOL, BranchCutError, ValidationError

__all__ = [
    "Operator",
    "PauliString",
    "pauli_sum",
    "conjugate",
    "expm",
    "logm_effective",
    "commutator",
    "inner_product",
    "single_qubit",
    "collective",
    "exchange",
    "pauli_decompose",
    "random_hermitian",
    "random_traceless_hermitian",
    "phase_insensitive_fidelity",
    "equal_up_to_phase",
]

SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

MatrixLike = Union["Operator", np.ndarray, Sequence[Sequence[complex]]]


def mat(op: MatrixLike) -> np.ndarray:
    """Coerce an Operator or array-like to a complex ndarray."""
    if isinstance(op, Operator):
        return op.matrix
    return np.asarray(op, dtype=complex)


def _is_power_of_two(k: int) -> bool:
    return k > 0 and (k & (k - 1)) == 0


def _unitarity_defect(u: np.ndarray) -> float:
    """Max-norm distance ``||U U^dag - 1||_max`` of a square matrix from unitarity."""
    return float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))))


class Operator:
    """A dense complex square matrix on an n-qubit space.

    The matrix is copied on construction and frozen; all arithmetic
    returns new instances, so operators can be shared freely between
    threads.

    Parameters
    ----------
    matrix : array_like
        Square complex matrix whose side length is a power of two.
    label : str, optional
        Human-readable name carried through for reporting.
    """

    __slots__ = ("matrix", "label")

    def __init__(self, matrix: MatrixLike, label: str | None = None):
        m = np.array(mat(matrix), dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"operator matrix must be square, got shape {m.shape}")
        if not _is_power_of_two(m.shape[0]):
            raise ValidationError(f"operator dimension {m.shape[0]} is not a power of two")
        m.setflags(write=False)
        self.matrix = m
        self.label = label

    # -- basic queries -------------------------------------------------
    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_qubits(self) -> int:
        return int(self.dim).bit_length() - 1

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def norm(self) -> float:
        """Spectral (largest singular value) norm."""
        return float(np.linalg.norm(self.matrix, 2))

    def is_hermitian(self) -> bool:
        """``||H - H^dag||_max <= DEFAULT_TOL.hermiticity``, 1e-12."""
        return bool(np.max(np.abs(self.matrix - self.matrix.conj().T)) <= DEFAULT_TOL.hermiticity)

    def is_unitary(self) -> bool:
        """``||U U^dag - 1||_max <= DEFAULT_TOL.equality``, 1e-10."""
        return _unitarity_defect(self.matrix) <= DEFAULT_TOL.equality

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: MatrixLike) -> "Operator":
        return Operator(self.matrix + mat(other))

    def __sub__(self, other: MatrixLike) -> "Operator":
        return Operator(self.matrix - mat(other))

    def __neg__(self) -> "Operator":
        return Operator(-self.matrix)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.matrix * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: MatrixLike) -> "Operator":
        return Operator(self.matrix @ mat(other))

    def __repr__(self) -> str:
        name = f" {self.label!r}" if self.label else ""
        return f"<Operator{name} dim={self.dim}>"

    @classmethod
    def identity(cls, dim: int) -> "Operator":
        return cls(np.eye(dim))

    @classmethod
    def zero(cls, dim: int) -> "Operator":
        return cls(np.zeros((dim, dim)))


@dataclass(frozen=True)
class PauliString:
    """A scaled tensor product of single-qubit Pauli operators.

    ``letters`` holds one symbol from ``IXYZ`` per qubit, qubit 1 first.
    """

    n: int
    letters: str
    coefficient: complex = 1.0

    def __post_init__(self):
        if len(self.letters) != self.n:
            raise ValidationError(
                f"pauli string {self.letters!r} has {len(self.letters)} letters for n={self.n}"
            )
        bad = set(self.letters) - set("IXYZ")
        if bad:
            raise ValidationError(f"unknown Pauli letters {sorted(bad)}")

    @classmethod
    def from_word(
        cls, word: str, qubits: Sequence[int], n: int, coefficient: complex = 1.0
    ) -> "PauliString":
        """Place ``word`` (e.g. ``"ZZ"``) on 1-based ``qubits`` of an n-qubit register."""
        if len(word) != len(qubits):
            raise ValidationError(f"word {word!r} needs {len(word)} qubit indices, got {len(qubits)}")
        letters = ["I"] * n
        for letter, q in zip(word.upper(), qubits):
            if not 1 <= q <= n:
                raise ValidationError(f"qubit index {q} outside 1..{n}")
            if letters[q - 1] != "I":
                raise ValidationError(f"qubit {q} used twice in term")
            letters[q - 1] = letter
        return cls(n=n, letters="".join(letters), coefficient=coefficient)

    def to_operator(self) -> Operator:
        m = np.ones((1, 1), dtype=complex)
        for letter in self.letters:
            m = np.kron(m, SIGMA[letter])
        return Operator(self.coefficient * m, label=self.label())

    def label(self) -> str:
        return f"{self.coefficient:g}*{self.letters}"


def pauli_sum(terms: Iterable[PauliString], n: int | None = None) -> Operator:
    """Sum a list of Pauli strings into a dense operator.

    An empty list needs ``n`` to fix the dimension.  All terms must share
    the same qubit count; the result is Hermitian iff all coefficients
    are real.
    """
    terms = list(terms)
    if not terms:
        if n is None:
            raise ValidationError("empty pauli_sum needs an explicit qubit count")
        return Operator.zero(2**n)
    counts = {t.n for t in terms}
    if len(counts) != 1:
        raise ValidationError(f"mismatched qubit counts in pauli_sum: {sorted(counts)}")
    if n is not None and terms[0].n != n:
        raise ValidationError(f"terms act on {terms[0].n} qubits, expected {n}")
    total = np.zeros((2 ** terms[0].n,) * 2, dtype=complex)
    for t in terms:
        total += t.to_operator().matrix
    return Operator(total)


def single_qubit(letter: str, qubit: int, n: int, coefficient: complex = 1.0) -> Operator:
    """``sigma_letter`` on one qubit of an n-qubit register."""
    return PauliString.from_word(letter, [qubit], n, coefficient).to_operator()


def collective(letter: str, n: int) -> Operator:
    """Permutation-invariant sum ``S_a = sum_j sigma_a^j``."""
    return pauli_sum([PauliString.from_word(letter, [j], n) for j in range(1, n + 1)])


def exchange(j: int, k: int, n: int) -> Operator:
    """Heisenberg exchange ``s_jk = vec(sigma)^j . vec(sigma)^k``."""
    if j == k:
        raise ValidationError("exchange coupling needs two distinct qubits")
    return pauli_sum([PauliString.from_word(a + a, [j, k], n) for a in "XYZ"])


def conjugate(h: MatrixLike, u: MatrixLike) -> Operator:
    """Toggling-frame conjugation ``U^dag H U``.

    Preserves spectra and Hermiticity.  ``h`` must be finite and ``u``
    unitary to within ``DEFAULT_TOL.equality``, 1e-10, loose enough that
    long pulse products still pass.
    """
    hm, um = mat(h), mat(u)
    if hm.shape != um.shape:
        raise ValidationError(f"dimension mismatch: {hm.shape} vs {um.shape}")
    if not np.max(np.abs(hm)) < np.inf:
        raise ValidationError("conjugated operator must be finite")
    defect = _unitarity_defect(um)
    if not defect <= DEFAULT_TOL.equality:
        raise ValidationError(f"conjugating operator is not unitary (defect {defect:.2e})")
    return Operator(um.conj().T @ hm @ um)


def expm(h: MatrixLike, t: float) -> Operator:
    """Unitary ``exp(-i H t)`` of a Hermitian generator.

    Uses an eigendecomposition, so the result is unitary to rounding.
    ``h`` must be Hermitian to within ``DEFAULT_TOL.equality``, 1e-10,
    and ``t`` finite.
    """
    hm = mat(h)
    if not np.max(np.abs(hm - hm.conj().T)) <= DEFAULT_TOL.equality:
        raise ValidationError("expm generator must be Hermitian")
    if not abs(t) < np.inf:
        raise ValidationError(f"expm time must be finite, got {t!r}")
    evals, vecs = np.linalg.eigh(hm)
    return Operator((vecs * np.exp(-1j * evals * t)) @ vecs.conj().T)


def logm_effective(u: MatrixLike, t_total: float) -> Operator:
    """Hermitian ``H_eff`` with ``exp(-i H_eff T) = U``, principal branch.

    Eigenphases are taken in ``(-pi, pi]``; an eigenphase within
    ``DEFAULT_TOL.branch_cut``, 1e-8, of the cut raises
    :class:`BranchCutError` instead of silently picking a branch, since
    the effective Hamiltonian is only defined modulo ``2 pi / T``.
    ``u`` must be unitary to within ``DEFAULT_TOL.equality``, 1e-10.
    """
    import scipy.linalg  # deferred: slow to import, and only this function needs it

    um = mat(u)
    if not t_total > 0:
        raise ValidationError("logm_effective needs T > 0")
    defect = _unitarity_defect(um)
    if not defect <= DEFAULT_TOL.equality:
        raise ValidationError(f"logm_effective input is not unitary (defect {defect:.2e})")
    # Schur of a normal matrix is diagonal and comes with an orthonormal frame.
    triangular, frame = scipy.linalg.schur(um, output="complex")
    phases = np.angle(np.diag(triangular))
    if np.any(np.pi - np.abs(phases) < DEFAULT_TOL.branch_cut):
        raise BranchCutError(
            "eigenphase within branch tolerance of +/- pi; effective Hamiltonian ambiguous"
        )
    h = (frame * (-phases / t_total)) @ frame.conj().T
    return Operator((h + h.conj().T) / 2)


def commutator(a: MatrixLike, b: MatrixLike) -> Operator:
    am, bm = mat(a), mat(b)
    if am.shape != bm.shape:
        raise ValidationError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    return Operator(am @ bm - bm @ am)


def inner_product(a: MatrixLike, b: MatrixLike) -> complex:
    """Normalized trace pairing ``Tr(A^dag B) / dim``."""
    am, bm = mat(a), mat(b)
    if am.shape != bm.shape:
        raise ValidationError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    return complex(np.trace(am.conj().T @ bm) / am.shape[0])


def pauli_decompose(op: MatrixLike, threshold: float = 0.0) -> dict[str, complex]:
    """Coefficients of an operator over the (orthonormal) Pauli-string basis.

    Returns ``{letters: c}`` with ``op = sum c * string``; entries with
    ``|c| <= threshold`` are dropped.  Strings of coefficient one
    round-trip exactly through :func:`pauli_sum`.
    """
    m = mat(op)
    n = int(m.shape[0]).bit_length() - 1
    if 2**n != m.shape[0]:
        raise ValidationError("pauli_decompose needs a 2^n-dimensional operator")
    out: dict[str, complex] = {}
    for idx in np.ndindex(*(4,) * n):
        letters = "".join("IXYZ"[i] for i in idx)
        basis = PauliString(n, letters).to_operator().matrix
        c = complex(np.trace(basis.conj().T @ m) / m.shape[0])
        if abs(c) > threshold or threshold == 0.0:
            out[letters] = c
    return out


def random_hermitian(n_qubits: int, rng: np.random.Generator, norm: float | None = 1.0) -> Operator:
    """GUE-style random Hermitian operator, rescaled to spectral norm ``norm``."""
    dim = 2**n_qubits
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2
    if norm is not None:
        h *= norm / np.linalg.norm(h, 2)
    return Operator(h)


def random_traceless_hermitian(
    n_qubits: int, rng: np.random.Generator, norm: float | None = 1.0
) -> Operator:
    h = random_hermitian(n_qubits, rng, norm=None).matrix
    h = h - np.trace(h) / h.shape[0] * np.eye(h.shape[0])
    if norm is not None:
        h *= norm / np.linalg.norm(h, 2)
    return Operator(h)


def phase_insensitive_fidelity(a: MatrixLike, b: MatrixLike) -> float:
    """``|Tr(A^dag B)| / dim`` -- equals 1 iff A = B up to a global phase (both unitary)."""
    am, bm = mat(a), mat(b)
    if am.shape != bm.shape:
        raise ValidationError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    return float(abs(np.trace(am.conj().T @ bm)) / am.shape[0])


def equal_up_to_phase(a: MatrixLike, b: MatrixLike) -> bool:
    """Unitary equality modulo a global phase, to within ``DEFAULT_TOL.equality``, 1e-10."""
    return phase_insensitive_fidelity(a, b) >= 1.0 - DEFAULT_TOL.equality
