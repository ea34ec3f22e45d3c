"""Stochastic dephasing simulator for encoded bang-bang decoupling.

The bosonic baths of the open-system picture are replaced by classical
stationary Gaussian (Ornstein-Uhlenbeck) processes with matched
correlation times; pure dephasing under Gaussian noise reproduces the
decoupling suppression scaling in ``T_c / tau_c`` at desk scale without
a bath Hilbert space.  Each channel couples one Hermitian operator to
its own process; pulses are instantaneous (bang-bang limit) and inserted
exactly at schedule boundaries.

Determinism contract: every observable quantity is a pure function of
the scenario (including its seed).  Per-trajectory noise is drawn from
``SeedSequence(seed, channel_index, trajectory_index)``, so serial,
batched and resumed runs agree bit for bit and the ensemble mean is
independent of evaluation order up to float addition order, which is
fixed by the implementation.  Both samplers read one OU step law, taken
from the step lengths alone (``_ou_law``).  Off the diagonal path the
draws land in the ``(channels, trajectories, steps)`` tensor and the OU
recursion overwrites them in place; on it, the same draws are reduced
straight to the interval integrals the state reads (below) by that law's
weights, with no per-step sample, which moves states by rounding only
(at most 5.9e-13 at the library defaults).

Simulation steps honor ``dt <= min(tau_c / 20, T_c / 20, max_step)``,
where ``T_c`` is the pulse cycle time (the whole run without pulses),
and always align with interval boundaries; the noise is held constant
across each step at its midpoint value.  Between two events (a pulse
or a record), diagonal drift and couplings commute, so the state takes
one phase update from the noise integrated over the interval; otherwise
each step applies the exact exponential of its frozen Hamiltonian,
``_BATCH_STEPS`` steps of an interval at a time.  On a 2-dim block it acts
straight on the two state components, as an SU(2) step per step and a
trace phase per batch (``_su2_step``), with no per-step 2x2 matrix, which
moved states by rounding only (at most 3.8e-15 at the library defaults);
on a larger block by a batched ``eigh``.  The step grid and the noise
samples are the same either way.

Propagation runs in the code space: only the basis block reachable from
the initial state through the drift, couplings and pulses is evolved, and
every amplitude outside it stays exactly zero.  ``trajectory_propagator``
starts from every basis vector and so covers the full space.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import ClassVar, Mapping, Sequence

import numpy as np

from .codes import Code, build_code
from .config import (
    _MAX_NOISE_BYTES, DEFAULT_TOL, ValidationError, _boolean, _integer, _known_keys, _real, _seed,
)
from .decoupling import DecouplingScheme, named_sequence
from .operators import Operator, PauliString, _unitarity_defect, pauli_sum, single_qubit

__all__ = [
    "DephasingChannel",
    "NoiseScenario",
    "DecayCurve",
    "TrajectoryResult",
    "SCENARIO_NAMES",
    "propagate_trajectory",
    "trajectory_propagator",
    "ensemble_coherence",
    "build_scenario",
    "final_error",
]


def _omegas(name: str, value) -> tuple:
    """Four Zeeman frequencies, echoed as given."""
    if not isinstance(value, (list, tuple)) or len(value) != 4:
        raise ValidationError(f"{name} must be a list of 4 numbers, got {value!r}")
    for w in value:
        _real(f"{name} entry", w)
    return tuple(value)


#: Knobs each library scenario reads on top of ``_SHARED_KNOBS`` (see
#: :func:`build_scenario`), each with the check that reads its value; any
#: other knob is rejected.
_SCENARIO_KNOBS = {
    "hybrid_dephasing": {
        "encoded": _boolean, "fast_amplitude": _real, "slow_amplitude": _real,
        "omega1": _real, "omega2": _real,
    },
    "encoded_spin_boson": {"delta_omega": _real, "j_drift": _real, "slow_amplitude": _real},
    "encoded_depolarizing": {"slow_amplitude": _real},
    "four_qubit_blockwise": {"fast_amplitude": _real, "slow_amplitude": _real, "omegas": _omegas},
}
_SHARED_KNOBS = {
    "cycle_time": _real, "repetitions": _integer, "ensemble_size": _integer, "seed": _seed,
    "pulses": _boolean, "max_step": _real, "tau_fast": _real, "tau_slow": _real,
}
SCENARIO_NAMES = tuple(_SCENARIO_KNOBS)

CHANNEL_KINDS = ("collective_fast", "independent_slow", "logical")


@dataclass(frozen=True)
class DephasingChannel:
    """One classical noise line: Hermitian coupling times an OU process."""

    coupling: Operator
    correlation_time: float
    amplitude: float
    kind: str

    def __post_init__(self):
        if not self.correlation_time > 0:
            raise ValidationError("correlation_time must be positive")
        if not 0 <= self.amplitude < math.inf:
            raise ValidationError("amplitude must be finite and nonnegative")
        if self.kind not in CHANNEL_KINDS:
            raise ValidationError(f"unknown channel kind {self.kind!r}")
        if not self.coupling.is_hermitian():
            raise ValidationError("coupling operator must be Hermitian")


@dataclass(frozen=True)
class NoiseScenario:
    """Full description of one stochastic run.

    ``total_time`` must equal ``repetitions * schedule.cycle_time``
    whenever a pulse schedule is attached.  ``max_step``, if given, must be
    positive; it caps the step below the default ``min(tau_c, T_c) / 20``,
    to compare runs on a common grid.  The observable must be Hermitian.
    A run whose noise would take more than ``config._MAX_NOISE_BYTES`` is
    refused before anything is allocated.  The count is the allocation of the
    sampler of the run's own path (see ``_path``): off the diagonal path the
    per-step samples; on it the interval sums plus a draw buffer of up to
    ``_SUM_ROWS`` trajectories, as large a product and 10 step-length weights
    or temporaries.
    """

    name: str
    h_system: Operator
    channels: tuple[DephasingChannel, ...]
    code: Code | None
    schedule: DecouplingScheme | None
    repetitions: int
    ensemble_size: int
    total_time: float
    seed: int
    initial_state: np.ndarray
    observable: Operator
    max_step: float | None = None
    #: evenly spaced record times of a run without pulses
    record_points: ClassVar[int] = 20
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        dim = self.h_system.dim
        if not self.total_time > 0:
            raise ValidationError("total_time must be positive")
        _seed("seed", self.seed)
        if self.ensemble_size < 1:
            raise ValidationError(f"ensemble_size must be at least 1, got {self.ensemble_size}")
        if self.schedule is not None:
            expected = self.repetitions * self.schedule.cycle_time
            if abs(expected - self.total_time) > 1e-9 * max(1.0, self.total_time):
                raise ValidationError(
                    f"total_time {self.total_time} != repetitions x cycle_time {expected}"
                )
            if self.schedule.dim != dim:
                raise ValidationError("schedule dimension does not match the system")
        for ch in self.channels:
            if ch.coupling.dim != dim:
                raise ValidationError("channel coupling dimension does not match the system")
        if self.observable.dim != dim:
            raise ValidationError("observable dimension does not match the system")
        if not self.observable.is_hermitian():
            raise ValidationError("observable must be Hermitian")
        if self.max_step is not None and not self.max_step > 0:
            raise ValidationError(f"max_step must be positive, got {self.max_step}")
        psi = np.asarray(self.initial_state, dtype=complex).reshape(-1)
        if psi.shape[0] != dim:
            raise ValidationError("initial state dimension does not match the system")
        if not abs(np.linalg.norm(psi) - 1) <= DEFAULT_TOL.equality:
            raise ValidationError(f"initial state must have norm 1, got {np.linalg.norm(psi)}")
        object.__setattr__(self, "initial_state", psi)
        # exact integers: the interval sums and sampler work space, or the per-step samples
        _, steps, cycles = _intervals(self)
        n, rows = cycles * sum(steps), max(1, len(self.channels)) * self.ensemble_size
        if _path(self, psi[None, :]).diagonal:
            work = (2 * min(self.ensemble_size, _SUM_ROWS) + 10) * n  # draws, a product, weights
            size = 8 * (rows * cycles * len(steps) + work)
        else:
            size = 8 * rows * n  # no channels: the grid
        if size > _MAX_NOISE_BYTES:
            raise ValidationError(f"run needs {size} bytes of noise (limit {_MAX_NOISE_BYTES})")

    def describe(self) -> dict:
        d = {
            "name": self.name,
            "seed": self.seed,
            "ensemble_size": self.ensemble_size,
            "total_time": self.total_time,
            "repetitions": self.repetitions,
            "schedule": self.schedule.label if self.schedule else None,
            "cycle_time": self.schedule.cycle_time if self.schedule else None,
            "code": self.code.name if self.code else None,
            "channels": [
                {
                    "kind": ch.kind,
                    "amplitude": ch.amplitude,
                    "correlation_time": ch.correlation_time,
                    "coupling": ch.coupling.label,
                }
                for ch in self.channels
            ],
        }
        d.update({k: v for k, v in sorted(self.params.items())})
        return d


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck sampling
# ---------------------------------------------------------------------------

_OU_BLOCK = 256  #: steps per transposed block of the in-place OU recursion
_SUM_ROWS = 64  #: trajectories per draw buffer of the interval sampler


def _draw(out: np.ndarray, seed: int, channel: int, trajectories: Sequence[int]) -> None:
    """Row ``r`` of ``out``: the standard normals both samplers read for ``trajectories[r]``."""
    for row, i in zip(out, trajectories):
        np.random.default_rng(np.random.SeedSequence([seed, channel, i])).standard_normal(out=row)


def _ou_law(durations: np.ndarray, amplitude: float, tau_c: float) -> tuple[np.ndarray, np.ndarray]:
    """``rho_k = exp(-gap_k/tau_c)``, ``kick_k = amp sqrt(1 - rho_k^2)`` of the exact OU step
    ``x_k = rho_k x_(k-1) + kick_k xi_k`` (autocorrelation ``amp^2 exp(-|dt|/tau_c)``, no
    bias at any gap), from the step lengths alone: the gap to the sample before is ``(dt_(k-1)
    + dt_k) / 2``, exactly ``dt`` inside an interval, and none is before the first (``rho``
    0, ``kick`` amp).  The one step law both samplers read."""
    gap = (np.concatenate([[np.inf], durations[:-1]]) + durations) / 2
    rho = np.exp(-gap / tau_c)
    return rho, amplitude * np.sqrt(1 - rho * rho)


def _ou_in_place(x: np.ndarray, rho: np.ndarray, kick: np.ndarray) -> None:
    """Overwrite the standard-normal draws ``x`` ``(n_traj, steps)`` with the OU samples
    of the law ``rho``, ``kick``.  Each block of ``_OU_BLOCK`` steps is walked as
    contiguous rows of a transposed copy, three ufuncs per step; the products and sum
    are the ones of the column-by-column recursion, so every sample is too."""
    rho, kick = rho.tolist(), kick.tolist()
    tmp, prev = np.empty(x.shape[0]), np.zeros(x.shape[0])  # no sample before the first
    for a in range(0, x.shape[1], _OU_BLOCK):
        b = min(a + _OU_BLOCK, x.shape[1])
        buf = x[:, a:b].T.copy()
        for row, r, q in zip(buf, rho[a:b], kick[a:b]):
            np.multiply(r, prev, out=tmp)
            row *= q
            np.add(tmp, row, out=row)
            prev = row
        x[:, a:b] = buf.T


# ---------------------------------------------------------------------------
# step grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Grid:
    durations: np.ndarray             # (S,) step lengths, uniform within an interval
    pulses: dict[int, np.ndarray]     # steps completed -> pulse fired then
    record_steps: frozenset[int]      # steps completed at each record
    times: np.ndarray                 # (R,) record times, starting at 0
    ends: list[int]                   # steps completed after each interval, each an event


def _intervals(scenario: NoiseScenario) -> tuple[list[float], list[int], int]:
    """Interval lengths of one cycle, their step counts and the cycle count;
    without pulses, one cycle of ``record_points`` equal intervals spans the
    run.  Counts stop at 2**62, far past any grid the size limit admits."""
    sch, points = scenario.schedule, scenario.record_points
    cycle = sch.cycle_time if sch else scenario.total_time
    dt_cap = min([cycle, *(ch.correlation_time for ch in scenario.channels)]) / 20
    if scenario.max_step is not None:
        dt_cap = min(dt_cap, scenario.max_step)
    per = scenario.total_time / points
    lengths = [per] * points if sch is None else [tau * cycle for tau in sch.durations]
    steps = [max(1, math.ceil(min(length / dt_cap, 2.0**62) - 1e-12)) for length in lengths]
    return lengths, steps, 1 if sch is None else scenario.repetitions


def _build_grid(scenario: NoiseScenario) -> _Grid:
    lengths, steps, cycles = _intervals(scenario)
    n = np.array(steps)
    durations = np.tile(np.repeat(np.divide(lengths, n), n), cycles)
    ends = np.cumsum(np.tile(n, cycles)).tolist()  # steps completed after each interval
    elapsed = np.cumsum(np.tile(lengths, cycles))  # time at the end of each interval
    sch, k = scenario.schedule, len(lengths)
    # pulse i ends interval i of a cycle (all but the last, at most); records end cycles
    pulses = {} if sch is None else {
        ends[r * k + i]: pulse.matrix for r in range(cycles) for i, pulse in enumerate(sch.pulses)
    }
    last = slice(None) if sch is None else slice(k - 1, None, k)
    times = np.concatenate([[0.0], elapsed[last]])
    return _Grid(durations, pulses, frozenset([0, *ends[last]]), times, ends)


def _channel_noise(scenario: NoiseScenario, grid: _Grid, trajectories: Sequence[int]) -> np.ndarray:
    """Noise values per (channel, trajectory, step) for the given trajectory
    indices; row ``r`` is the seeded stream of trajectory ``trajectories[r]``."""
    out = np.zeros((len(scenario.channels), len(trajectories), len(grid.durations)))
    for c, ch in enumerate(scenario.channels):
        if ch.amplitude == 0.0:
            continue
        _draw(out[c], scenario.seed, c, trajectories)
        _ou_in_place(out[c], *_ou_law(grid.durations, ch.amplitude, ch.correlation_time))
    return out


def _interval_noise(scenario: NoiseScenario, grid: _Grid, trajectories: Sequence[int]) -> np.ndarray:
    """``(channels, trajectories, intervals)`` sums ``sum_k x(m_k) dt_k`` of the samples
    ``_channel_noise`` gives, from its draws ``xi`` and the same law (``_ou_law``).  Sample
    ``j`` of an interval of ``n`` steps of ``dt`` is ``rho^j rho_b x_b + sum_{l<=j}
    rho^(j-l) kick_l xi_l``, ``x_b`` the sample before it, ``rho_b`` the interval's first
    ``rho`` and ``rho = exp(-dt/tau_c)`` the others; so its sum weighs ``xi_l`` by ``dt (1 -
    rho^(n-l)) / (1 - rho) kick_l``, its last sample by ``rho^(n-1-l) kick_l``.  Against
    summing the per-step samples this moves states by rounding only, at most 5.9e-13 at
    the library defaults (200 trajectories, seed 11)."""
    dt, starts, ends = grid.durations, np.array([0, *grid.ends[:-1]]), np.array(grid.ends)
    left = np.repeat(ends, ends - starts) - np.arange(1.0, len(dt) + 1)  # steps after each
    out = np.zeros((len(scenario.channels), len(trajectories), len(starts)))
    buf = np.empty((min(len(trajectories), _SUM_ROWS), len(dt)))
    for c, ch in enumerate(scenario.channels):
        if ch.amplitude == 0.0:
            continue
        rho, kick = _ou_law(dt, ch.amplitude, ch.correlation_time)
        rate = dt / ch.correlation_time
        w_last = np.exp(-left * rate)
        w_sum = dt * np.expm1(-(left + 1) * rate) / np.expm1(-rate)
        carry_sum, carry_last = w_sum[starts] * rho[starts], w_last[starts] * rho[starts]
        w_sum *= kick
        w_last *= kick
        for a in range(0, len(trajectories), _SUM_ROWS):
            rows = trajectories[a:a + _SUM_ROWS]
            x = buf[:len(rows)]
            _draw(x, scenario.seed, c, rows)
            last = np.zeros(len(rows))
            for j, (s, e) in enumerate(zip(starts, ends)):
                # row sums, not a BLAS product: a row's bytes must not depend on the batch
                out[c, a:a + len(rows), j] = (x[:, s:e] * w_sum[s:e]).sum(axis=1) + carry_sum[j] * last
                last = (x[:, s:e] * w_last[s:e]).sum(axis=1) + carry_last[j] * last
    return out


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def _reachable_block(psi: np.ndarray, generators: Sequence[np.ndarray]) -> np.ndarray:
    """Sorted basis indices reachable from the nonzero entries of the rows
    ``psi`` through a nonzero entry of any generator, in either direction."""
    linked = np.zeros((psi.shape[1],) * 2, dtype=bool)
    for m in generators:
        linked |= (m != 0) | (m != 0).T
    reached = frontier = np.any(psi != 0, axis=0)
    while frontier.any():
        frontier = linked[frontier].any(axis=0) & ~reached
        reached = reached | frontier
    return np.flatnonzero(reached)


#: what ``_evolve`` propagates from given rows: the block they reach, the drift
#: and couplings sliced to it, and whether its path is diagonal
_Plan = namedtuple("_Plan", "block h0 couplings diagonal")


def _path(scenario: NoiseScenario, psi: np.ndarray) -> _Plan:
    """The block the rows ``psi`` reach through the drift, couplings and the pulses
    that fire, those drift and couplings sliced to it, and whether the run takes the
    diagonal path: both diagonal on the block.  Shared by the size check and ``_run``."""
    couplings = [ch.coupling.matrix for ch in scenario.channels]
    sch = scenario.schedule
    pulses = [p.matrix for p in sch.pulses] if sch is not None and scenario.repetitions else []
    block = _reachable_block(psi, [scenario.h_system.matrix, *couplings, *pulses])
    cut = np.ix_(block, block)
    h0, couplings = scenario.h_system.matrix[cut], [c[cut] for c in couplings]
    diagonal = all(np.array_equal(m, np.diag(np.diag(m))) for m in [h0, *couplings])
    return _Plan(block, h0, couplings, diagonal)


_BATCH_STEPS = 64  #: steps per batch of step coefficients or propagators


def _su2_step(z, hr, hi, dt) -> tuple[np.ndarray, np.ndarray]:
    """``p``, ``q`` of ``exp(-i h dt) = exp(-i m dt) [[p, -conj(q)], [q, conj(p)]]`` for the
    2x2 Hermitian ``h = m 1 + [[z, hr - i hi], [hr + i hi, -z]]``, arguments broadcast
    together: with ``w = sqrt(z^2 + hr^2 + hi^2) dt`` and ``S = dt sin(w) / w``, ``p = cos(w)
    - i z S`` and ``q = -i (hr + i hi) S``.  ``w`` is raised to the smallest normal float,
    where ``sin(w) / w`` is exactly 1, so ``S = dt`` where ``w`` is or underflows to 0."""
    w = np.maximum(np.sqrt(z * z + hr * hr + hi * hi) * dt, np.finfo(float).tiny)
    s = np.sin(w) / w * -dt  # -S
    p, q = np.empty((2, *w.shape), complex)
    p.real, p.imag, q.real, q.imag = np.cos(w), z * s, -hi * s, hr * s
    return p, q


def _step_propagators(h: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """``exp(-i h dt)`` for a stack of Hermitian ``h`` and ``dt`` broadcast against
    ``h.shape[:-2]``, each matrix on its own, by a batched ``eigh``: the step of a block
    larger than 2 (``_su2_step`` takes 2-dim ones)."""
    evals, vecs = np.linalg.eigh(h)
    phases = np.exp(-1j * evals * dt[..., None])
    return (vecs * phases[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _evolve(plan: _Plan, noise: np.ndarray, psi: np.ndarray, grid: _Grid) -> np.ndarray:
    """Evolve state rows through the grid, one interval at a time, reading interval
    sums of the noise on the diagonal path and samples otherwise; returns
    (n_records, n_traj, dim), zero outside the plan's block, the only one propagated.
    Off that path a 2-dim block steps by ``_su2_step``, a larger one by ``_step_propagators``."""
    out = np.zeros((len(grid.times), *psi.shape), dtype=complex)
    out[0] = psi
    psi, cut = psi[:, plan.block], np.ix_(plan.block, plan.block)
    dim = psi.shape[1]
    d0, dc = np.diag(plan.h0).real, [np.diag(c).real for c in plan.couplings]
    # m, z, hr and hi of each term h = m 1 + [[z, hr - i hi], [hr + i hi, -z]] of a 2-dim block
    terms = [((h[0, 0] + h[1, 1]).real / 2, (h[0, 0] - h[1, 1]).real / 2, h[1, 0].real,
              h[1, 0].imag) for h in (plan.h0, *plan.couplings)] if dim == 2 else []
    start, rec = 0, 1
    for j, done in enumerate(grid.ends):
        if plan.diagonal:
            phase = grid.durations[start:done].sum() * d0
            for c in range(len(dc)):
                phase = phase + noise[c, :, j, None] * dc[c]
            psi = psi * np.exp(-1j * phase)
        elif dim == 2:
            psi0, psi1 = psi.T
            for a in range(start, done, _BATCH_STEPS):
                b = min(a + _BATCH_STEPS, done)
                x = noise[:, :, a:b].transpose(0, 2, 1).copy()  # (channels, steps, rows)
                dt = grid.durations[a:b, None]
                with np.errstate(over="ignore", invalid="ignore"):  # NaN is refused later
                    m, z, hr, hi = (sum((t[i] * xc for t, xc in zip(terms[1:], x) if t[i]),
                                        terms[0][i]) for i in range(4))
                    p, q = _su2_step(z, hr, hi, dt)
                    phase = np.exp(-1j * (m * dt).sum(axis=0))
                for pk, qk, pck, qck in zip(p, q, p.conj(), q.conj()):
                    psi0, psi1 = pk * psi0 - qck * psi1, qk * psi0 + pck * psi1
                psi0, psi1 = phase * psi0, phase * psi1
            psi = np.stack([psi0, psi1], axis=-1)
        else:
            for a in range(start, done, _BATCH_STEPS):
                b = min(a + _BATCH_STEPS, done)
                # (steps, noise rows, dim, dim) frozen Hamiltonians
                h = np.broadcast_to(plan.h0, (b - a, noise.shape[1], dim, dim)).copy()
                for c, coupling in enumerate(plan.couplings):
                    h += noise[c, :, a:b].T[:, :, None, None] * coupling
                for u in _step_propagators(h, grid.durations[a:b, None]):
                    psi = np.einsum("tij,tj->ti", u, psi)
        if done in grid.pulses:
            psi = psi @ grid.pulses[done][cut].T
        if done in grid.record_steps:
            out[rec][:, plan.block] = psi
            rec += 1
        start = done
    return out


def _run(scenario: NoiseScenario, psi: np.ndarray, trajectories: Sequence[int] = (),
         noise_values=None) -> tuple[_Grid, np.ndarray]:
    """The grid, and the states of the rows ``psi`` under the seeded noise of
    ``trajectories`` or, shared by every row, the samples ``noise_values``."""
    grid = _build_grid(scenario)
    plan = _path(scenario, psi)
    if noise_values is None:
        noise = (_interval_noise if plan.diagonal else _channel_noise)(scenario, grid, trajectories)
    else:
        noise = np.asarray(noise_values, dtype=float)
        shape = (len(scenario.channels), grid.durations.shape[0])
        if noise.shape != shape:
            raise ValidationError(f"noise_values must have shape {shape}, got {noise.shape}")
        noise = noise[:, None, :]
        if plan.diagonal:  # the diagonal path reads the sums over each interval
            noise = np.stack([(noise[..., a:b] * grid.durations[a:b]).sum(axis=-1)
                              for a, b in zip([0, *grid.ends], grid.ends)], axis=-1)
    return grid, _evolve(plan, noise, psi, grid)


@dataclass(frozen=True)
class TrajectoryResult:
    times: np.ndarray
    states: np.ndarray          # (n_records, dim)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def propagate_trajectory(
    scenario: NoiseScenario, noise_values: np.ndarray | None = None, trajectory: int = 0
) -> TrajectoryResult:
    """Propagate a single noise realization.

    ``noise_values`` may supply explicit per-channel samples of shape
    ``(n_channels, n_steps)`` on the scenario's step grid; by default the
    trajectory's own seeded noise is used.  A state that is not finite (the
    noise or drift overflowed) raises :class:`ValidationError`.
    """
    grid, states = _run(scenario, scenario.initial_state[None, :].copy(), [trajectory], noise_values)
    if not np.isfinite(states).all():
        raise ValidationError("trajectory is not finite: the noise or drift overflowed")
    return TrajectoryResult(grid.times, states[:, 0, :])


def trajectory_propagator(scenario: NoiseScenario, noise_values: np.ndarray) -> Operator:
    """Exact propagator of one noise realization (pulses included), checked
    to be unitary to within ``DEFAULT_TOL.equality``, 1e-10."""
    # one noise row, broadcast by _evolve across the dim basis-vector rows
    _, rows = _run(scenario, np.eye(scenario.h_system.dim, dtype=complex), noise_values=noise_values)
    # rows holds the image of each basis vector; columns of U are those images
    u = rows[-1].T
    defect = _unitarity_defect(u)
    if not defect <= DEFAULT_TOL.equality:
        raise ValidationError(f"trajectory propagator lost unitarity ({defect:.2e})")
    return Operator(u)


@dataclass(frozen=True)
class DecayCurve:
    """Ensemble coherence versus time, with standard errors."""

    times: np.ndarray
    mean: np.ndarray
    std_error: np.ndarray
    n_traj: int

    def to_csv(self, params: Mapping[str, object] | None = None) -> str:
        import json

        lines = [] if params is None else [f"# {json.dumps(params, sort_keys=True, default=str)}"]
        lines.append("time_s,mean_coherence,std_error,n_traj")
        for t, m, s in zip(self.times, self.mean, self.std_error):
            lines.append(f"{t:.12g},{m:.12g},{s:.12g},{self.n_traj}")
        return "\n".join(lines) + "\n"


def ensemble_coherence(scenario: NoiseScenario) -> DecayCurve:
    """Monte Carlo decay curve of the scenario observable.

    Per trajectory the observable expectation is real (the observable is
    Hermitian); reported are its ensemble mean and the standard error of
    that mean at each record time.  A curve that is not finite (the noise
    or drift overflowed) raises :class:`ValidationError`.
    """
    n = scenario.ensemble_size
    grid, states = _run(scenario, np.tile(scenario.initial_state, (n, 1)), range(n))
    obs = scenario.observable.matrix
    expect = np.einsum("rti,ij,rtj->rt", states.conj(), obs, states).real
    mean = expect.mean(axis=1)
    stderr = expect.std(axis=1, ddof=1) / math.sqrt(n) if n > 1 else np.zeros_like(mean)
    if not np.isfinite((mean, stderr)).all():
        raise ValidationError("decay curve is not finite: the noise or drift overflowed")
    return DecayCurve(grid.times, mean, stderr, n)


def final_error(curve: DecayCurve) -> float:
    """Coherence loss at the end of the run: ``1 - |mean(T)|``."""
    return float(1.0 - abs(curve.mean[-1]))


# ---------------------------------------------------------------------------
# scenario library
# ---------------------------------------------------------------------------

def _zeeman(omegas: Sequence[float]) -> Operator:
    """``sum_q omega_q Z_q / 2`` on ``len(omegas)`` qubits."""
    n = len(omegas)
    return pauli_sum([PauliString.from_word("Z", [q], n, 0.5 * w) for q, w in enumerate(omegas, 1)])


def build_scenario(name: str, **params) -> NoiseScenario:
    """Construct one of the library noise scenarios.

    All scenarios share the keyword knobs ``cycle_time`` (default 1),
    ``repetitions`` (16), ``ensemble_size`` (500, at least 1), ``seed``
    (2024), ``pulses`` (set False for free decay), ``max_step``,
    ``tau_fast`` and ``tau_slow``.  Amplitudes are rms couplings in rad/s
    and the correlation times ``tau_fast`` and ``tau_slow`` default to
    ``0.05 * T_c`` and ``20 * T_c``, placing the fast bath far beyond the
    decoupling bandwidth.  Each scenario adds its own knobs, listed below;
    any other knob raises :class:`ValidationError`.  The scenario's own
    knobs are echoed in ``params`` (and so in ``describe()``).

    Values are type-checked, also raising :class:`ValidationError`:
    ``repetitions``, ``ensemble_size`` and ``seed`` take whole numbers
    (``seed`` at least 0, ``repetitions`` at most ``_MAX_NOISE_BYTES //
    8``: each cycle needs one 8-byte sample, and without pulses only the
    product with ``cycle_time`` counts), ``pulses`` and ``encoded`` take
    booleans, ``omegas`` takes four numbers and every other knob takes a
    number.  Booleans and ``None`` are not numbers.

    ``hybrid_dephasing`` (``encoded``, ``fast_amplitude``,
    ``slow_amplitude``, ``omega1``, ``omega2``)
        Two physical qubits with fast collective plus slow independent
        dephasing.  With ``encoded=True`` (default) the qubit lives on
        the dfs2 code and the schedule applies encoded pi_x pulses; with
        ``encoded=False`` the first physical qubit holds the coherence
        and the same physical pulse train acts on both qubits.
    ``encoded_spin_boson`` (``delta_omega``, ``j_drift``, ``slow_amplitude``)
        dfs2 qubit with a logical drift ``delta_omega sigma_z^L +
        j_drift sigma_x^L`` (the drift realized by an XY exchange term)
        plus slow independent dephasing; encoded pi_x decoupling.
    ``encoded_depolarizing`` (``slow_amplitude``)
        dfs2 qubit with slow noise on *both* logical axes (z and x);
        paired with the encoded annihilator cycle, which averages both
        error channels to zero at leading order.
    ``four_qubit_blockwise`` (``fast_amplitude``, ``slow_amplitude``, ``omegas``)
        Two dfs2 blocks on qubit pairs (1,2) and (3,4) with fast
        block-collective dephasing plus slow per-qubit dephasing;
        encoded collective pi_x decoupling on both logical qubits.
    """
    if name not in SCENARIO_NAMES:
        raise ValidationError(f"unknown scenario {name!r}; known: {', '.join(SCENARIO_NAMES)}")
    known = {**_SHARED_KNOBS, **_SCENARIO_KNOBS[name]}
    _known_keys(f"knobs for scenario {name!r}:", params, known)

    def knob(key: str, default):
        return known[key](key, params.get(key, default))

    # shared knobs are consumed here; the scenario's own knobs echo in params
    p = {k: v for k, v in params.items() if k not in _SHARED_KNOBS}
    cycle_time = knob("cycle_time", 1.0)
    repetitions = knob("repetitions", 16)
    # each cycle needs an 8-byte sample; compared as integers, before a float product
    if repetitions > _MAX_NOISE_BYTES // 8:
        raise ValidationError(f"over {_MAX_NOISE_BYTES // 8} repetitions need too many bytes of noise")
    ensemble_size = knob("ensemble_size", 500)
    seed = knob("seed", 2024)
    use_pulses = knob("pulses", True)
    max_step = knob("max_step", None) if "max_step" in params else None
    tau_fast = knob("tau_fast", 0.05 * cycle_time)
    tau_slow = knob("tau_slow", 20.0 * cycle_time)
    slow_amp = knob("slow_amplitude", 0.1)

    def slow_channels(n: int) -> list[DephasingChannel]:
        return [
            DephasingChannel(single_qubit("Z", q, n), tau_slow, slow_amp, "independent_slow")
            for q in range(1, n + 1)
        ]

    def pair_collective(a: int, b: int, n: int, label: str) -> DephasingChannel:
        s_z = Operator(
            single_qubit("Z", a, n).matrix + single_qubit("Z", b, n).matrix, label=label
        )
        return DephasingChannel(s_z, tau_fast, knob("fast_amplitude", 1.0), "collective_fast")

    encoded, sequence = True, "cp_x"
    code = build_code("dfs2x2" if name == "four_qubit_blockwise" else "dfs2")
    initial, observable = code.plus_state(), code.observable("x")
    if name == "hybrid_dephasing":
        encoded = p["encoded"] = knob("encoded", True)
        h = _zeeman([knob("omega1", 1.0), knob("omega2", 0.6)])
        channels = [pair_collective(1, 2, 2, "S_z"), *slow_channels(2)]
        if not encoded:
            plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
            initial = np.kron(plus, np.array([1, 0], dtype=complex))
            observable = single_qubit("X", 1, 2)
    elif name == "encoded_spin_boson":
        delta_omega = knob("delta_omega", 0.5)
        h = Operator(_zeeman([delta_omega, -delta_omega]).matrix
                     + knob("j_drift", 0.25) * observable.matrix)
        channels = slow_channels(2)
    elif name == "encoded_depolarizing":
        h = Operator.zero(4)
        channels = [
            DephasingChannel(code.observable(axis), tau_slow, slow_amp, "logical")
            for axis in "zx"
        ]
        sequence = "gmax_cycle"
    else:  # four_qubit_blockwise
        omegas = p["omegas"] = knob("omegas", (1.0, 0.7, 0.4, 0.2))
        h = _zeeman(omegas)
        channels = [
            pair_collective(1, 2, 4, "S_z(1,2)"),
            pair_collective(3, 4, 4, "S_z(3,4)"),
            *slow_channels(4),
        ]
    schedule = (
        named_sequence(sequence, code=code, cycle_time=cycle_time, physical=True)
        if use_pulses
        else None
    )
    return NoiseScenario(
        name=name,
        h_system=h,
        channels=tuple(channels),
        code=code if encoded else None,
        schedule=schedule,
        repetitions=repetitions if schedule else 0,
        ensemble_size=ensemble_size,
        total_time=repetitions * cycle_time,
        seed=seed,
        initial_state=initial,
        observable=observable,
        max_step=max_step,
        params=p,
    )
