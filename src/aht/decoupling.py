"""Bang-bang decoupling cycles and their effective average Hamiltonians.

A :class:`DecouplingScheme` is one control cycle: an ordered pulse list
with relative free-evolution fractions.  The convention, fixed here and
used everywhere, is *interval first*: ``durations[i]`` is the free
interval evolved under the accumulated frame ``U_i = P_i ... P_1``
(``U_0 = 1``), after which pulse ``P_(i+1)`` fires.  A scheme with as
many durations as pulses therefore ends on a pulse; one extra duration
appends a final free interval governed by the (cyclically trivial) full
product.  Toggling frames are always computed from the pulse list --
they are the object under test, never hard-coded.

The zeroth-order average of a cycle is the weighted conjugation mixture
``sum_k w_k U_k^dag H U_k``; over a decoupling group with uniform
weights this is the projector onto the group's centralizer.  The
first-order (Magnus) correction and the exact cycle propagator complete
the fast-control picture: cycle propagator and ``average + correction``
agree to one order in the cycle time better than the average alone, and
:func:`effective_defect` measures both distances from one propagator.

The library sequences (:data:`SEQUENCE_NAMES`) are declared once, one row
each of a private table: pulse axes in time order and interval fractions.
:func:`named_sequence` builds every row with one pulse rule -- collective
pulses without a code, encoded pi rotations with one.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, TYPE_CHECKING

import numpy as np

from .config import DEFAULT_TOL, ValidationError
from .operators import (
    Operator,
    MatrixLike,
    _unitarity_defect,
    collective,
    equal_up_to_phase,
    expm,
    logm_effective,
    mat,
)

if TYPE_CHECKING:  # pragma: no cover
    from .codes import Code

__all__ = [
    "DecouplingScheme",
    "DecouplingSet",
    "SEQUENCE_NAMES",
    "frames_from_scheme",
    "average_zeroth",
    "project_group",
    "first_order_correction",
    "cycle_propagator",
    "effective_defect",
    "named_sequence",
    "close_group",
    "builtin_groups",
]

#: The named sequences in catalog order, one row each: the pulse axes in time
#: order, the interval fractions and, for a train of half-pi pulses, the sign
#: of each (``None``: pi pulses).  A one-letter axis is a pi pulse; a
#: two-letter axis names one letter per logical qubit.
_SEQUENCES = {
    "cp_x": (("x", "x"), (0.5, 0.5), None),
    "cp_x_symmetric": (("x", "x"), (0.25, 0.5, 0.25), None),
    "cp_y": (("y", "y"), (0.5, 0.5), None),
    "whh4": (("x", "y", "y", "x"), (1 / 6, 1 / 6, 1 / 3, 1 / 6, 1 / 6), (1, -1, 1, -1)),
    "gmax_cycle": (("x", "z", "x", "z"), (0.25,) * 4, None),
    "s1_selective_x1": (("xx", "xz", "xx", "xz"), (0.25,) * 4, None),
    "s1_selective_x2": (("xx", "zx", "xx", "zx"), (0.25,) * 4, None),
    "zz_extractor": (("xx", "zz", "xx", "zz"), (0.25,) * 4, None),
}
SEQUENCE_NAMES = tuple(_SEQUENCES)

#: the sequences that exist only encoded, on two logical qubits
_ENCODED_ONLY = frozenset(name for name, (axes, _, _) in _SEQUENCES.items()
                          if max(map(len, axes)) == 2)


def close_group(generators: Iterable[MatrixLike], max_order: int = 256) -> list[Operator]:
    """Close a set of unitaries under multiplication.

    Elements are counted as distinct matrices, equal when they agree to
    ``DEFAULT_TOL.equality`` in max norm, so pi pulses ``-i sigma_a``
    generate their -1 and the single-qubit transformer generators close at
    24 elements; :attr:`DecouplingSet.is_group` identifies them modulo
    global phase afterwards.  Elements come in breadth-first order,
    identity first; raises if closure is not reached within ``max_order``
    elements.
    """
    gens = [mat(g) for g in generators]
    if not gens:
        raise ValidationError("need at least one generator")
    dim = gens[0].shape[0]
    for g in gens:
        if g.shape != (dim, dim):
            raise ValidationError("generators must share a dimension")
        if not _unitarity_defect(g) <= DEFAULT_TOL.equality:
            raise ValidationError("generators must be unitary")
    found = np.empty((16, dim, dim), dtype=complex)  # doubled when full
    found[0] = np.eye(dim)
    count = 1
    frontier = [found[0]]
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                for prod in (g @ a, a @ g):
                    distance = np.max(np.abs(found[:count] - prod), axis=(1, 2))
                    if np.any(distance <= DEFAULT_TOL.equality):
                        continue
                    if count >= max_order:
                        raise ValidationError(
                            f"group closure not reached within {max_order} elements"
                        )
                    if count == len(found):
                        found = np.concatenate([found, np.empty_like(found)])
                    found[count] = prod
                    count += 1
                    fresh.append(prod)
        frontier = fresh
    return [Operator(m) for m in found[:count]]


@dataclass(frozen=True)
class DecouplingScheme:
    """One bang-bang control cycle: pulses plus relative interval lengths.

    Invariants: every duration is positive and they sum to one; the full
    pulse product is the identity up to a global phase (cyclicity).
    """

    pulses: tuple[Operator, ...]
    durations: tuple[float, ...]
    cycle_time: float = 1.0
    label: str | None = None

    def __post_init__(self):
        if not self.pulses:
            raise ValidationError("a scheme needs at least one pulse (identity counts)")
        if len(self.durations) not in (len(self.pulses), len(self.pulses) + 1):
            raise ValidationError(
                f"{len(self.pulses)} pulses take {len(self.pulses)} or "
                f"{len(self.pulses) + 1} durations, got {len(self.durations)}"
            )
        if not self.cycle_time > 0:
            raise ValidationError("cycle_time must be positive")
        if not all(t > 0 for t in self.durations):
            raise ValidationError("all durations must be positive")
        if not abs(sum(self.durations) - 1.0) <= 1e-12:
            raise ValidationError(f"durations sum to {sum(self.durations)!r}, expected 1")
        dims = {p.dim for p in self.pulses}
        if len(dims) > 1:
            raise ValidationError("pulses must share a dimension")
        for p in self.pulses:
            if not p.is_unitary():
                raise ValidationError("pulses must be unitary")
        total = np.eye(self.dim, dtype=complex)
        for p in self.pulses:
            total = p.matrix @ total
        if not equal_up_to_phase(total, np.eye(self.dim)):
            raise ValidationError("pulse cycle does not close to the identity (up to phase)")

    @property
    def dim(self) -> int:
        return self.pulses[0].dim


@dataclass(frozen=True)
class DecouplingSet:
    """Weighted set of composite rotations (toggling frames).

    :attr:`is_group` tells whether, modulo global phase, the distinct
    frames form a group with equal total weight per element; it is
    computed on first read.  :meth:`group` builds a uniformly weighted
    set and rejects one that is not a group.
    """

    frames: tuple[Operator, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.frames) != len(self.weights):
            raise ValidationError("frames and weights must align")
        if not self.frames:
            raise ValidationError("empty decoupling set")
        if not all(w >= 0 for w in self.weights):
            raise ValidationError("weights must be nonnegative")
        if not abs(sum(self.weights) - 1.0) <= 1e-12:
            raise ValidationError("weights must sum to 1")
        dims = {f.dim for f in self.frames}
        if len(dims) > 1:
            raise ValidationError("frames must share a dimension")

    @property
    def dim(self) -> int:
        return self.frames[0].dim

    @cached_property
    def is_group(self) -> bool:
        """Whether the phase classes of the frames form a uniformly weighted group.

        Frames equal up to phase (:func:`~aht.operators.equal_up_to_phase`)
        merge into one class and add their weights.  The classes must
        contain every product of two of them, and so, being finitely
        many, the identity; and they must carry equal total weight.
        Products are formed one left factor at a time, so memory stays
        linear in the number of classes.
        """
        reps: list[np.ndarray] = []
        totals: list[float] = []
        for f, w in zip(self.frames, self.weights):
            k = _phase_class(f.matrix, reps)
            if k is None:
                reps.append(f.matrix)
                totals.append(w)
            else:
                totals[k] += w
        stacked = np.stack(reps)
        for a in reps:
            if any(_phase_class(prod, reps) is None for prod in a @ stacked):
                return False
        return all(abs(t - 1.0 / len(reps)) < 1e-9 for t in totals)

    @classmethod
    def group(cls, elements: Sequence[MatrixLike]) -> "DecouplingSet":
        ops = tuple(Operator(mat(e)) for e in elements)
        w = 1.0 / len(ops)
        s = cls(ops, (w,) * len(ops))
        if not s.is_group:
            raise ValidationError("frame set is not a uniformly weighted group (mod phase)")
        return s


def _phase_class(m: np.ndarray, reps: Sequence[np.ndarray]) -> int | None:
    """Index of the first of ``reps`` equal to ``m`` up to global phase, else ``None``."""
    return next((k for k, r in enumerate(reps) if equal_up_to_phase(m, r)), None)


def frames_from_scheme(scheme: DecouplingScheme) -> DecouplingSet:
    """Composite rotations governing each free interval of a cycle.

    Interval ``i`` is conjugated by ``U_i = P_i ... P_1`` with
    ``U_0 = 1`` (the first pulse acts first in time); when the scheme
    carries a trailing interval, its frame is the full product, which is
    the identity up to phase by cyclicity.
    """
    dim = scheme.dim
    frames = [Operator(np.eye(dim))]
    acc = np.eye(dim, dtype=complex)
    for p in scheme.pulses:
        acc = p.matrix @ acc
        frames.append(Operator(acc))
    frames = frames[: len(scheme.durations)]
    return DecouplingSet(tuple(frames), tuple(float(w) for w in scheme.durations))


def average_zeroth(h: MatrixLike, frames: DecouplingSet) -> Operator:
    """Zeroth-order average Hamiltonian ``sum_k w_k U_k^dag H U_k``.

    Trace preserving and unital; Hermitian for Hermitian input.
    """
    hm = mat(h)
    if hm.shape[0] != frames.dim:
        raise ValidationError(f"dimension mismatch: H is {hm.shape[0]}, frames are {frames.dim}")
    total = np.zeros_like(hm)
    for f, w in zip(frames.frames, frames.weights):
        total += w * (f.matrix.conj().T @ hm @ f.matrix)
    return Operator(total)


def project_group(h: MatrixLike, group: DecouplingSet) -> Operator:
    """Projector onto the centralizer of a decoupling group.

    Uniform averaging over a group is idempotent and its output commutes
    with every group element.
    """
    if not group.is_group:
        raise ValidationError("project_group needs a group-valued decoupling set")
    return average_zeroth(h, group)


def first_order_correction(h: MatrixLike, scheme: DecouplingScheme) -> Operator:
    """Leading Magnus correction to the zeroth-order average.

    With toggled Hamiltonians ``H_m`` over fractional intervals
    ``tau_m`` (absolute durations ``tau_m T_c``) this is

        ``-(i T_c / 2) sum_{m>n} [H_m, H_n] tau_m tau_n``

    taking hbar = 1.  It vanishes exactly whenever the toggled
    Hamiltonians commute, and is O(T_c) in general.
    """
    return _first_order(mat(h), frames_from_scheme(scheme), scheme)


def _first_order(hm: np.ndarray, frames: DecouplingSet, scheme: DecouplingScheme) -> Operator:
    """``first_order_correction`` of ``hm`` from the scheme's frames, built by the caller."""
    toggled = [f.matrix.conj().T @ hm @ f.matrix for f in frames.frames]
    taus = scheme.durations
    acc = np.zeros_like(hm)
    for m in range(len(toggled)):
        for n in range(m):
            acc += taus[m] * taus[n] * (
                toggled[m] @ toggled[n] - toggled[n] @ toggled[m]
            )
    return Operator(-0.5j * scheme.cycle_time * acc)


def cycle_propagator(h: MatrixLike, scheme: DecouplingScheme) -> Operator:
    """Exact propagator of one cycle, pulses treated as instantaneous.

    Events are composed in time order (earliest factor rightmost):
    free evolution under ``H`` for ``durations[i] * cycle_time``, then
    pulse ``i+1`` if there is one.
    """
    hm = mat(h)
    if hm.shape[0] != scheme.dim:
        raise ValidationError("Hamiltonian dimension does not match scheme")
    u = np.eye(hm.shape[0], dtype=complex)
    for i, tau in enumerate(scheme.durations):
        u = expm(hm, tau * scheme.cycle_time).matrix @ u
        if i < len(scheme.pulses):
            u = scheme.pulses[i].matrix @ u
    return Operator(u)


def effective_defect(h: MatrixLike, scheme: DecouplingScheme) -> tuple[float, float]:
    """Spectral-norm distances ``(zeroth, first)`` between the cycle's true
    effective Hamiltonian and its zeroth-order average, then that average
    plus the first-order correction; the small parameter is the cycle time.

    The cycle propagator, the toggling frames and the average are built once for both.
    """
    u, hm, frames = cycle_propagator(h, scheme), mat(h), frames_from_scheme(scheme)
    zeroth = average_zeroth(hm, frames).matrix
    first = zeroth + _first_order(hm, frames, scheme).matrix
    return _defect(u, zeroth, scheme.cycle_time), _defect(u, first, scheme.cycle_time)


def _defect(u: Operator, approx: np.ndarray, cycle_time: float) -> float:
    """Traceless spectral-norm distance of ``log(u)`` from ``approx``.

    The cycle propagator may carry an irrelevant global phase (pi pulses
    contribute -i each); it is aligned against the averaged prediction
    before taking the principal log, and the comparison is restricted to
    the traceless parts, since the effective Hamiltonian is only defined
    modulo that freedom.
    """
    reference = expm(approx, cycle_time).matrix
    overlap = np.trace(reference.conj().T @ u.matrix)
    if abs(overlap) < 1e-6 * u.dim:
        raise ValidationError(
            "cycle propagator is orthogonal to its averaged prediction; "
            "the cycle time is too large for a defect comparison"
        )
    aligned = u.matrix * (overlap.conjugate() / abs(overlap))
    h_eff = logm_effective(aligned, cycle_time)
    diff = h_eff.matrix - approx
    diff = diff - np.trace(diff) / diff.shape[0] * np.eye(diff.shape[0])
    return float(np.linalg.norm(diff, 2))


# ---------------------------------------------------------------------------
# named sequences
# ---------------------------------------------------------------------------

def named_sequence(
    name: str,
    n_qubits: int = 1,
    code: "Code | None" = None,
    cycle_time: float = 1.0,
    physical: bool = False,
) -> DecouplingScheme:
    """Build one of the library pulse sequences from its row of the table.

    One pulse rule builds every row.  Without a code, axis ``a`` is the
    collective rotation ``exp(-i theta S_a)`` on ``n_qubits`` qubits, with
    ``theta = pi/2`` (the pi pulse ``-i sigma_a`` on each qubit), or
    ``sign * pi/4`` in a row of signed half-pi pulses (``whh4``, which
    therefore takes no code).  With a code, axis ``a`` is the encoded pi
    rotation: a one-letter axis on every logical qubit, a two-letter axis
    one letter per logical qubit (so those rows, the encoded selective
    cycles, need a two-logical-qubit code).  Encoded pulses act on the
    code's abstract logical space by default; with ``physical=True`` they
    are taken from the code's realization table instead, so the scheme
    evolves the full physical register.
    """
    if name not in _SEQUENCES:
        raise ValidationError(f"unknown sequence {name!r}; known: {', '.join(SEQUENCE_NAMES)}")
    axes, durations, signs = _SEQUENCES[name]
    if signs is not None and code is not None:
        raise ValidationError(f"{name} is a physical (collective-pulse) sequence")
    if name in _ENCODED_ONLY and code is None:
        raise ValidationError(f"sequence {name!r} needs a code")
    if name in _ENCODED_ONLY and code.n_logical != 2:
        raise ValidationError(f"sequence {name!r} needs a two-logical-qubit code")

    def pulse(axis: str, sign: int | None) -> Operator:
        if code is None:
            angle = np.pi / 2 if sign is None else sign * np.pi / 4
            return expm(collective(axis.upper(), n_qubits), angle)
        if len(axis) == 1:
            axis *= code.n_logical
        return code.physical_pi(axis) if physical else code.logical_pi(axis)

    pulses = tuple(map(pulse, axes, signs or (None,) * len(axes)))
    return DecouplingScheme(pulses, durations, cycle_time, label=name)


@cache
def builtin_groups() -> Mapping[str, DecouplingSet]:
    """The library's decoupling groups, keyed by name.

    Spans one to four physical qubits plus the logical-space groups of
    the encoded cycles; used by the verification suite to exercise the
    projector laws on every group the package ships.  Built once per
    process: every call returns the same read-only mapping, whose frames
    are write-protected like every :class:`~aht.operators.Operator`, so a
    group's :attr:`DecouplingSet.is_group` verdict is computed once.
    """
    from .codes import build_code  # deferred: codes never imports this module
    from .universality import generate_group, transformer_generators  # deferred: it imports this module

    dfs2 = build_code("dfs2")
    dfs2x2 = build_code("dfs2x2")
    ns3 = build_code("ns3")

    def scheme_group(scheme: DecouplingScheme) -> DecouplingSet:
        s = frames_from_scheme(scheme)
        if not s.is_group:
            raise ValidationError("expected a group-valued cycle")
        return s

    groups = {
        "cp_x": scheme_group(named_sequence("cp_x")),
        "cp_y": scheme_group(named_sequence("cp_y")),
        "gmax": scheme_group(named_sequence("gmax_cycle")),
        "transformer24": generate_group(transformer_generators(), max_order=64),
        "cp_xx_2q": scheme_group(named_sequence("cp_x", n_qubits=2)),
        "dfs2_gmax_physical": scheme_group(named_sequence("gmax_cycle", code=dfs2, physical=True)),
        "ns3_cp_x_physical": scheme_group(named_sequence("cp_x", code=ns3, physical=True)),
        "dfs2x2_cp_x_logical": scheme_group(named_sequence("cp_x", code=dfs2x2)),
        "s1_logical": scheme_group(named_sequence("s1_selective_x1", code=dfs2x2)),
        "zz_logical": scheme_group(named_sequence("zz_extractor", code=dfs2x2)),
        "s1_physical_4q": scheme_group(
            named_sequence("s1_selective_x1", code=dfs2x2, physical=True)
        ),
    }
    return MappingProxyType(groups)
