"""Lie-algebraic reachability: closures, symmetric splits, transformers.

Whether a pair of Hamiltonians suffices for universal control is decided
here at the algebra level: the real Lie algebra generated by the
(anti-Hermitian) generators is closed under iterated commutators and its
dimension compared against the full traceless algebra.  The verdict is
always reported as a dimension, never as a blanket "universal".

A *transformer* group is a decoupling group whose weighted conjugation
averages can steer any traceless Hamiltonian direction into any other;
feasibility of the required nonnegative weights is solved exactly as a
small nonnegative least-squares problem, by the numpy active-set method
of Lawson and Hanson (*Solving Least Squares Problems*, 1974).  The
weights are one nonnegative solution, not the only one: the conjugates of
a group are linearly dependent.  They fix the direction only -- the
positive scale is a free parameter and is returned explicitly.  Both
Hamiltonians are scaled to a unit largest entry first, so the verdict
does not depend on their scale; they must be finite, and only an exactly
zero one is degenerate.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOL, ToleranceError, ValidationError
from .decoupling import DecouplingSet, close_group
from .operators import SIGMA, Operator, MatrixLike, _finite, _hermitian, _operators, _unitary, expm, mat

__all__ = [
    "LieBasis",
    "ReachabilityResult",
    "lie_closure",
    "cp_split",
    "transformer_reach",
    "generate_group",
    "transformer_generators",
]


@dataclass(frozen=True)
class LieBasis:
    """Orthonormal basis of the real Lie algebra generated by some operators.

    ``truncated`` is set when growth was stopped by ``max_dim`` rather
    than by genuine closure.
    """

    generators: tuple[Operator, ...]
    basis: tuple[Operator, ...]
    dimension: int
    truncated: bool = False


def lie_closure(
    generators: Sequence[MatrixLike],
    max_dim: int = 256,
) -> LieBasis:
    """Close a set of anti-Hermitian generators under commutation.

    Each nonzero generator is first scaled to a unit largest entry, so the
    tests below are relative and the verdict does not depend on the
    generators' scale.  Grows an orthonormal basis (normalized trace
    pairing) row by row: row ``i`` stacks the commutators of basis element
    ``i`` with every element present when the row starts and projects out
    the basis twice, with two matrix products each time.  A commutator is a new direction when its
    residual exceeds ``DEFAULT_TOL.rank``, 1e-8; survivors are admitted in
    ascending order, each projected again against the basis as it then
    stands: the (i, j) order of a sequential Gram-Schmidt, so ``max_dim``
    truncation keeps the same elements.  Growth stops once the basis spans
    u(d), or su(d) when every generator is traceless to
    ``DEFAULT_TOL.equality``.  The result is independent of generator order
    and invariant under simultaneous unitary conjugation of all generators,
    which must be operators of one side, finite (``operators._finite``) and
    anti-Hermitian after scaling: ``i G`` passes ``operators._hermitian``.
    """
    given = _operators("generators", generators)
    dim = given[0].dim
    mats = []  # each nonzero generator scaled to a unit largest entry
    for g in given:
        g = _finite("lie_closure generator", g.matrix)
        peak = np.max(np.abs(g))
        g = g / peak if peak > 0 else g
        _hermitian("i times a lie_closure generator", 1j * g)
        mats.append(g)

    # Commutators are traceless, so traceless generators stay in su(d).  At
    # `ceiling` orthonormal rows the basis spans the space and any further
    # residual is rounding (far below DEFAULT_TOL.rank): stopping loses nothing.
    traceless = all(abs(np.trace(g)) / dim <= DEFAULT_TOL.equality for g in mats)
    ceiling = dim * dim - traceless
    scale = np.sqrt(dim)  # so unit rows have Tr(A^dag A)/dim = 1
    # real coordinates (interleaved re, im), and the same rows as matrices / scale
    B = np.zeros((max(0, min(max_dim, ceiling)), 2 * dim * dim))
    ops = B.view(complex).reshape(-1, dim, dim)
    k = 0
    truncated = False

    def project(v: np.ndarray) -> np.ndarray:
        # two passes: commutator towers lose ~2 digits per level in double
        for _ in range(2):
            v = v - (v @ B[:k].T) @ B[:k]
        return v

    def grow(rows: np.ndarray) -> None:
        nonlocal k, truncated
        for v in rows:
            v = project(v)
            r = np.linalg.norm(v)
            if k == ceiling or not r > DEFAULT_TOL.rank:
                continue
            if k >= max_dim:
                truncated = True
                return
            B[k] = v / r
            k += 1

    grow(np.stack([g.ravel().view(float) for g in mats]) / scale)
    i = 0
    while i < k < ceiling and not truncated:
        # [basis_i, basis_j] / scale for every j < k, as real rows
        rows = project((scale * (ops[i] @ ops[:k] - ops[:k] @ ops[i])).reshape(k, -1).view(float))
        grow(rows[np.linalg.norm(rows, axis=1) > DEFAULT_TOL.rank])
        i += 1

    return LieBasis(
        generators=given,
        basis=tuple(Operator(scale * b) for b in ops[:k]),
        dimension=k,
        truncated=truncated,
    )


def cp_split(h: MatrixLike, pi_pulse: MatrixLike) -> tuple[Operator, Operator]:
    """Split a Hamiltonian into parts symmetric/antisymmetric under a pi pulse.

    ``H = H_s + H_a`` with ``H_s = (H + P^dag H P)/2`` equal to the
    two-element group average over ``{1, P}`` and ``H_a`` flipping sign
    under conjugation.  The pulse must be involutive up to phase.
    """
    pm = _unitary("pi pulse", mat(pi_pulse))
    hm = mat(h, len(pm))
    eps = DEFAULT_TOL.equality
    square = pm @ pm
    phase = np.trace(square) / pm.shape[0]
    if not (abs(abs(phase) - 1) <= eps
            and np.max(np.abs(square - phase * np.eye(pm.shape[0]))) <= eps):
        raise ValidationError("pulse is not involutive up to a global phase")
    conj = pm.conj().T @ hm @ pm
    return Operator((hm + conj) / 2), Operator((hm - conj) / 2)


@dataclass(frozen=True)
class ReachabilityResult:
    reachable: bool
    weights: tuple[float, ...]
    scale: float
    residual: float


def _nnls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Nonnegative least squares ``min ||a x - b||`` over ``x >= 0``, by active sets.

    Lawson and Hanson's method: the passive set grows by the largest
    positive entry of the gradient ``a^T (b - a x)``, least squares is
    solved on the passive columns, and where a passive coefficient turns
    negative the step goes back to the boundary and drops it.  A gradient
    entry or coefficient counts as zero up to ten ulps of ``||a||_1`` times
    the larger dimension of ``a``, what rounding leaves in the gradient.
    Raises :class:`ToleranceError` after ``3 n`` outer steps without
    convergence, as scipy's ``nnls`` does; returns ``x`` and the residual norm.
    """
    m, n = a.shape
    zero = 10 * max(m, n) * np.finfo(float).eps * np.linalg.norm(a, 1)
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    for _ in range(3 * n):
        gradient = np.where(passive, -np.inf, a.T @ (b - a @ x))
        j = int(np.argmax(gradient))
        if not gradient[j] > zero:
            return x, float(np.linalg.norm(b - a @ x))
        passive[j] = True
        while True:
            s = np.zeros(n)
            s[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            if not np.any(s[passive] < 0):
                break
            blocked = np.flatnonzero(passive & (s < 0))
            ratios = x[blocked] / (x[blocked] - s[blocked])
            x += ratios.min() * (s - x)
            x[blocked[np.argmin(ratios)]] = 0
            passive &= x > zero
            x[~passive] = 0
        x = s
    raise ToleranceError(f"nonnegative least squares did not converge in {3 * n} steps")


def transformer_reach(
    group: DecouplingSet,
    a: MatrixLike,
    target: MatrixLike,
) -> ReachabilityResult:
    """Decide whether weighted conjugation averages of ``a`` reach ``target``.

    Solves ``sum_k tau_k U_k^dag A U_k = lambda * target`` for
    nonnegative ``tau`` summing to one and free positive scale
    ``lambda``, as a plain nonnegative least-squares problem (the sum
    constraint is absorbed into ``lambda``), solved by the numpy
    active-set method ``_nnls``.  ``a`` and ``target`` are first scaled to a
    unit largest entry each, so the verdict does not depend on their
    scale; ``lambda`` is reported in the caller's units.  Reachability
    means the residual, relative to the target's Frobenius norm, falls
    below ``DEFAULT_TOL.rank``, 1e-8.  The weights are one nonnegative
    solution; a group's conjugates are linearly dependent, so others may
    exist.  Non-finite entries (``operators._finite``) and an exactly zero
    ``a`` or ``target`` raise :class:`ValidationError`.
    """
    if not group.is_group:
        raise ValidationError("transformer_reach expects a decoupling group")
    am = _finite("starting Hamiltonian", mat(a, group.dim))
    tm = _finite("target", mat(target, group.dim))
    peak_a = np.max(np.abs(am))
    peak_t = np.max(np.abs(tm))
    if peak_a == 0:
        raise ValidationError("degenerate (zero) starting Hamiltonian")
    if peak_t == 0:
        raise ValidationError("degenerate (zero) target")
    am, tm = am / peak_a, tm / peak_t
    norm_t = np.linalg.norm(tm)

    frames = np.stack([f.matrix for f in group.frames])
    # the target, then U^dag A U for each frame, relative to the target's norm
    # and in real coordinates (real parts, then imaginary parts), as columns
    columns = np.concatenate([tm[None], frames.conj().transpose(0, 2, 1) @ am @ frames])
    columns = columns.reshape(len(columns), -1) / norm_t
    design = np.concatenate([columns.real, columns.imag], axis=1).T
    weights, residual = _nnls(design[:, 1:], design[:, 0])
    total = float(weights.sum())
    reachable = bool(residual < DEFAULT_TOL.rank and total > 0)
    if reachable:
        tau = tuple(float(w) / total for w in weights)
        lam = float(peak_a) / float(peak_t) / total  # inf, with no warning, past the float range
    else:
        tau = tuple(float(w) for w in weights)
        lam = 0.0
    return ReachabilityResult(reachable, tau, lam, float(residual))


def generate_group(
    generators: Sequence[MatrixLike], max_order: int = 256
) -> DecouplingSet:
    """Close unitary generators into a uniformly weighted decoupling group.

    Elements are distinct unitaries; phases generated along the way
    (e.g. the -1 from squaring a pi pulse) stay in the set, so the
    single-qubit transformer generators close at order 24.  The group
    *property* of the result is still certified modulo global phase,
    which is all that conjugation averages can see.
    """
    elements = close_group(generators, max_order=max_order)
    return DecouplingSet.group(elements)


def transformer_generators() -> list[Operator]:
    """Generators of the order-24 single-qubit transformer group.

    Three pi rotations about the coordinate axes plus the 2 pi / 3
    rotation about (1,1,1)/sqrt(3) that cyclically permutes the Pauli
    matrices.
    """
    sx, sy, sz = SIGMA["X"], SIGMA["Y"], SIGMA["Z"]
    axis = (sx + sy + sz) / np.sqrt(3)
    return [Operator(1j * sx), Operator(1j * sy), Operator(1j * sz), expm(axis / 2, 2 * np.pi / 3)]
