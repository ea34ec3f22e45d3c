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
``default_rng(SeedSequence([seed, channel_index, trajectory_index]))``, so
serial, batched and resumed runs agree bit for bit and the ensemble mean is
independent of evaluation order up to float addition order, which is
fixed by the implementation.  A stream is built without that generator
(``_draw``): numpy's own ``SeedSequence`` mixes the entropy into its pool,
and the ``PCG64`` state follows from the pool by numpy's own rules (the
``generate_state`` output stage, then ``pcg64_set_seed``, O'Neill's PCG
seeding), computed in Python ints and set on one ``PCG64`` reused for
every row of a draw; numpy keeps both stable across versions (NEP 19).
A channel is its own stationary OU process with an exact step law (Gillespie,
PRE 54, 2084 (1996)).  One sampler, ``_sampled``, draws every seeded run: its
docstring states what a group of runs shares and holds, which ``_noise_bytes``
counts before anything is allocated.  One pipeline, ``_run``, takes a run's path
(``_path``), reads or draws its noise and evolves its rows on their block
(``_evolve``); ``ensemble_coherence`` reduces those states, and
``propagate_trajectory`` and ``trajectory_propagator`` put them on the full space.

Simulation steps honor ``dt <= min(tau_c / 20, T_c / 20, max_step)``,
where ``T_c`` is the pulse cycle time (the whole run without pulses),
and always align with interval boundaries; the noise is held constant
across each step at its midpoint value.  Between two events (a pulse
or a record), diagonal drift and couplings commute, so the state takes
one phase update from the noise integrated over the interval; otherwise
each step applies the exact exponential of its frozen Hamiltonian, built
``_BATCH_STEPS`` steps of the grid at a time, across interval boundaries.
On a 2-dim block it acts straight on the two state components, as an SU(2)
step times its trace phase (``_su2_step``), with no per-step 2x2 matrix;
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
from itertools import islice
from typing import ClassVar, Iterator, Mapping, Sequence

import numpy as np

from .codes import Code, build_code
from .config import (
    _MAX_NOISE_BYTES, DEFAULT_TOL, ValidationError, _boolean, _integer, _known, _known_keys,
    _nonnegative, _positive, _real, _repetitions, _seed,
)
from .decoupling import DecouplingScheme, named_sequence
from .operators import Operator, PauliString, _hermitian, _operators, _unitary, pauli_sum, single_qubit

__all__ = [
    "DephasingChannel",
    "NoiseScenario",
    "DecayCurve",
    "TrajectoryResult",
    "SCENARIO_NAMES",
    "propagate_trajectory",
    "trajectory_propagator",
    "ensemble_coherence",
    "ensemble_coherences",
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


#: The library scenarios in catalog order, one row each: the ``aht list`` line and the
#: knobs the scenario reads on top of ``_SHARED_KNOBS`` (see :func:`build_scenario`),
#: each with the check that reads its value; any other knob is rejected.
_SCENARIOS = {
    "hybrid_dephasing": ("fast collective + slow independent dephasing on two qubits",
                         {"encoded": _boolean, "fast_amplitude": _nonnegative,
                          "slow_amplitude": _nonnegative, "omega1": _real, "omega2": _real}),
    "encoded_spin_boson": ("dfs2 qubit with logical drift under slow dephasing",
                           {"delta_omega": _real, "j_drift": _real, "slow_amplitude": _nonnegative}),
    "encoded_depolarizing": ("dfs2 qubit with slow noise on both logical axes",
                             {"slow_amplitude": _nonnegative}),
    "four_qubit_blockwise": ("two dfs2 blocks under blockwise-correlated fast dephasing",
                             {"fast_amplitude": _nonnegative, "slow_amplitude": _nonnegative,
                              "omegas": _omegas}),
}
_SHARED_KNOBS = {
    "cycle_time": _positive, "repetitions": _repetitions, "ensemble_size": _integer, "seed": _seed,
    "pulses": _boolean, "max_step": _positive, "tau_fast": _positive, "tau_slow": _positive,
}
SCENARIO_NAMES = tuple(_SCENARIOS)

CHANNEL_KINDS = ("collective_fast", "independent_slow", "logical")


@dataclass(frozen=True)
class DephasingChannel:
    """One classical noise line: a Hermitian coupling (``operators._hermitian``,
    read as ``operators._operators`` reads an operand) times an OU process."""

    coupling: Operator
    correlation_time: float
    amplitude: float
    kind: str

    def __post_init__(self):
        for name, check in (("correlation_time", _positive), ("amplitude", _nonnegative)):
            object.__setattr__(self, name, check(name, getattr(self, name)))
        _known("channel kind", self.kind, dict.fromkeys(CHANNEL_KINDS))
        object.__setattr__(self, "coupling", _operators("coupling", [self.coupling])[0])
        _hermitian("coupling operator", self.coupling.matrix)


@dataclass(frozen=True)
class NoiseScenario:
    """Full description of one stochastic run.

    ``total_time`` must equal ``repetitions * schedule.cycle_time``
    whenever a pulse schedule is attached.  ``max_step``, if given, caps
    the step below the default ``min(tau_c, T_c) / 20``, to compare runs
    on a common grid.  The observable must be Hermitian (``operators._hermitian``).
    A run whose noise would take more than ``config._MAX_NOISE_BYTES`` is
    refused before anything is allocated: the count is ``_noise_bytes`` of
    the run alone, on its own path (see ``_path``), in which a channel of zero
    amplitude holds nothing.  ``seed``, ``ensemble_size`` and ``repetitions``
    take whole numbers, stored as ints, and ``total_time`` and ``max_step``
    positive finite numbers, stored as floats; none takes a boolean.
    ``repetitions`` obeys the one rule of the ``build_scenario`` knob,
    ``config._repetitions``: from 0 to ``_MAX_NOISE_BYTES // 8``.

    The step cap reads every channel's correlation time, a channel of zero
    amplitude included (see ``_intervals``).
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
        object.__setattr__(self, "total_time", _positive("total_time", self.total_time))
        for name, whole in (("seed", _seed), ("ensemble_size", _integer), ("repetitions", _repetitions)):
            object.__setattr__(self, name, whole(name, getattr(self, name)))
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
        _hermitian("observable", self.observable.matrix)
        if self.max_step is not None:
            object.__setattr__(self, "max_step", _positive("max_step", self.max_step))
        psi = np.asarray(self.initial_state, dtype=complex).reshape(-1)
        if psi.shape[0] != dim:
            raise ValidationError("initial state dimension does not match the system")
        if not abs(np.linalg.norm(psi) - 1) <= DEFAULT_TOL.equality:
            raise ValidationError(f"initial state must have norm 1, got {np.linalg.norm(psi)}")
        object.__setattr__(self, "initial_state", psi)
        size = _noise_bytes(self.ensemble_size, [self], _path(self, psi[None, :]).diagonal)
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

_SUM_ROWS = 64  #: trajectories per draw buffer of the sampler


def _words(n: int) -> list[int]:
    """The 32-bit words, least significant first, that ``SeedSequence`` makes of ``n >= 0``."""
    return [n & 0xFFFFFFFF, *(_words(n >> 32) if n >> 32 else ())]


#: ``h_k = 0x8B51F9DD * 0x58F38DED**k mod 2**32``: numpy's ``SeedSequence.generate_state``
#: makes output word ``k`` as ``v ^ v >> 16``, ``v = (pool[k % 4] ^ h_k) h_(k+1) mod 2**32``
_HASH = tuple(0x8B51F9DD * 0x58F38DED**k & 0xFFFFFFFF for k in range(9))
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  #: PCG64's 128-bit LCG multiplier
_LOW_HALVES = 0x0000FFFF0000FFFF0000FFFF0000FFFF  #: the low 16 bits of each 32-bit word


def _draw(out: np.ndarray, seed: int, channel: int, trajectories: Sequence[int]) -> None:
    """Row ``r`` of ``out``: the standard normals ``_sampled`` reads for ``trajectories[r]``,
    those of ``default_rng(SeedSequence([seed, channel, trajectories[r]]))``, bit for bit.
    Each row reads the pool of numpy's own ``SeedSequence`` of the ``uint32`` entropy words
    numpy builds from that list; in Python ints, its ``generate_state(4, uint64)`` words
    ``s0..s3`` (word ``j`` joins output words ``2j``, low, and ``2j + 1``) give the state of
    numpy's ``pcg64_set_seed``, ``inc = (s2 s3 << 1) | 1`` and ``state = ((inc + s0 s1) M +
    inc) mod 2**128``, which is set on one ``PCG64`` made per call."""
    head, sequence, bits = _words(seed) + _words(channel), np.random.SeedSequence, np.random.PCG64(0)
    rng, pcg = np.random.Generator(bits), {}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    h0, h1, h2, h3, h4, h5, h6, h7, h8 = _HASH
    m32, m128 = 0xFFFFFFFF, (1 << 128) - 1
    one_word = np.array(head + [0], dtype=np.uint32)  # the entropy of each i < 2**32, reused
    for row, i in zip(out, trajectories):
        if i >> 32:
            entropy = np.array(head + _words(int(i)), dtype=np.uint32)
        else:
            one_word[-1], entropy = i, one_word
        p0, p1, p2, p3 = sequence(entropy).pool.tolist()
        # s0 s1 and s2 s3 as 128-bit ints, before each output word's v ^ v >> 16
        s = ((p0 ^ h0) * h1 & m32) << 64 | ((p1 ^ h1) * h2 & m32) << 96 \
            | (p2 ^ h2) * h3 & m32 | ((p3 ^ h3) * h4 & m32) << 32
        q = ((p0 ^ h4) * h5 & m32) << 64 | ((p1 ^ h5) * h6 & m32) << 96 \
            | (p2 ^ h6) * h7 & m32 | ((p3 ^ h7) * h8 & m32) << 32
        inc = (q ^ q >> 16 & _LOW_HALVES) << 1 & m128 | 1
        pcg["state"], pcg["inc"] = ((s ^ s >> 16 & _LOW_HALVES) + inc) * _PCG_MULT + inc & m128, inc
        bits.state = state
        rng.standard_normal(out=row)


def _ou_law(durations: np.ndarray, amplitude: float, tau_c: float) -> tuple[np.ndarray, np.ndarray]:
    """``rho_k = exp(-gap_k/tau_c)``, ``kick_k = amp sqrt(1 - rho_k^2)`` of the exact OU step
    ``x_k = rho_k x_(k-1) + kick_k xi_k`` (autocorrelation ``amp^2 exp(-|dt|/tau_c)``, no
    bias at any gap), from the step lengths alone: the gap to the sample before is ``(dt_(k-1)
    + dt_k) / 2``, exactly ``dt`` inside an interval, and none is before the first (``rho``
    0, ``kick`` amp).  The one step law of either path, on two step-length buffers."""
    rho, kick = np.empty((2, len(durations)))
    rho[0] = -np.inf  # its exp is 0: no sample before the first
    # log rho_k = (dt_(k-1) + dt_k) / (-2 tau_c), which is -gap_k / tau_c bit for bit
    np.divide(np.add(durations[:-1], durations[1:], out=rho[1:]), -2 * tau_c, out=rho[1:])
    np.exp(rho, out=rho)
    np.sqrt(np.subtract(1, np.multiply(rho, rho, out=kick), out=kick), out=kick)
    return rho, np.multiply(kick, amplitude, out=kick)


def _ou_in_place(x: np.ndarray, rho: np.ndarray, kick: np.ndarray) -> None:
    """Overwrite the standard-normal draws ``x`` ``(steps, n_traj)`` with the OU samples of
    the law ``rho``, ``kick``: the kicks in one product, then two ufuncs per step row."""
    x *= kick[:, None]
    tmp, prev = np.empty(x.shape[1]), np.zeros(x.shape[1])  # no sample before the first
    for row, r in zip(x, rho):
        np.multiply(r, prev, out=tmp)
        np.add(tmp, row, out=row)
        prev = row


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
    run.  The step cap ``min(T_c, tau_c of every channel) / 20`` counts a
    channel of zero amplitude too, which draws nothing.  Counts stop at 2**62,
    far past any grid the size limit admits."""
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


def _sum_weights(grid: _Grid, amplitude: float, tau_c: float) -> tuple[np.ndarray, ...]:
    """Weights of the draws in the interval sums of one channel law on ``grid`` (see
    ``_sampled``): of each draw in its interval's sum and last sample, and of
    the sample before each interval in its sum and last sample."""
    dt, starts, ends = grid.durations, np.array([0, *grid.ends[:-1]]), np.array(grid.ends)
    left = np.repeat(ends, ends - starts) - np.arange(1.0, len(dt) + 1)  # steps after each
    rho, kick = _ou_law(dt, amplitude, tau_c)
    rate = dt / tau_c
    w_last = np.exp(-left * rate)
    w_sum = dt * np.expm1(-(left + 1) * rate) / np.expm1(-rate)
    return w_sum * kick, w_last * kick, w_sum[starts] * rho[starts], w_last[starts] * rho[starts]


def _laws(scenario: NoiseScenario) -> list[tuple]:
    """Each channel's law, all its noise reads besides the seed and the trajectories: its
    index, the intervals of the run's grid (``_intervals``), its amplitude and its tau_c."""
    lengths, steps, cycles = _intervals(scenario)
    return [(c, tuple(lengths), tuple(steps), cycles, ch.amplitude, ch.correlation_time)
            for c, ch in enumerate(scenario.channels)]


def _noise_bytes(n: int, runs: Sequence[NoiseScenario], diagonal: bool) -> int:
    """Bytes ``_sampled`` holds for ``n`` trajectories of a group of runs on the path
    ``diagonal``, counted as ``_sampled``'s docstring states: an exact integer, from the
    step rule, before anything is allocated."""
    arrays, steps, grids = {}, [], []
    for i, sc in enumerate(runs):
        _, counts, cycles = _intervals(sc)
        drawn = [law for law in _laws(sc) if law[4]]  # by amplitude: a silent law holds nothing
        new = [law for law in drawn or [i] if law not in arrays]
        arrays.update(dict.fromkeys(new, cycles * (len(counts) if diagonal else sum(counts))))
        (steps if new else grids).append(cycles * sum(counts))  # held laws: only a grid
    work, buffers = (10, 2) if diagonal else (4, 1)
    return 8 * (n * sum(arrays.values()) + work * sum(steps) + sum(grids)
                + buffers * min(n, _SUM_ROWS) * max(steps))


def _sampled(runs: Sequence[NoiseScenario], diagonal: bool,
             trajectories: Sequence[int]) -> Iterator[tuple[_Grid, list[np.ndarray]]]:
    """The grid and seeded noise of ``trajectories`` that ``_evolve`` reads on the path
    ``diagonal``, for each of a group of runs of one seed, in order: one array per channel.

    One array is held per channel law (``_laws``): a channel's noise is fixed by its law,
    the seed and the trajectories.  Every run of that law reads it by reference; the laws
    of nonzero amplitude a run brings that no run before it has are the rows of one new
    block, which lives while a yielded run reads one of its rows, and a law of zero
    amplitude reads a read-only ``np.broadcast_to(0.0, shape)`` view: ``_evolve`` adds its
    ``+0.0`` as before, and nothing is allocated for it.  Each stream, channel ``c`` of a
    trajectory, is drawn once, ``_SUM_ROWS`` trajectories at a time, to the longest grid
    among the laws of channel ``c`` (of nonzero amplitude), and each law reads its own
    prefix of the draws under the one step law ``_ou_law``: a stream's first draws do not
    depend on how many follow.  Off the diagonal path the prefix is transposed into the
    law's ``(steps, trajectories)`` samples, which the OU recursion overwrites in place
    after the channel's last block.  On it the prefix is reduced to the ``(trajectories,
    intervals)`` sums ``sum_k x(m_k) dt_k`` of those samples: sample ``j`` of an interval
    of ``n`` steps of ``dt`` is ``rho^j rho_b x_b + sum_{l<=j} rho^(j-l) kick_l xi_l``,
    ``x_b`` the sample before it, ``rho_b`` the interval's first ``rho`` and ``rho =
    exp(-dt/tau_c)`` the others; so its sum weighs ``xi_l`` by ``dt (1 - rho^(n-l)) / (1 -
    rho) kick_l``, its last sample by ``rho^(n-1-l) kick_l`` (``_sum_weights``).  Against
    summing the per-step samples this moves states by rounding only.  Every array is the
    one a run gets on its own, bit for bit.

    ``_noise_bytes`` counts what this holds: one array per law of nonzero amplitude, of
    interval sums on the diagonal path and per-step samples off it; step-length work for
    each run that brings a new one, 10 words on the diagonal path (the grid's
    ``durations``, ``_sum_weights`` and its temporaries) and 4 off it (``durations`` and
    ``_ou_law``'s ``rho``, ``kick`` and one temporary); the grid's ``durations`` (one word
    a step) for each run of held laws; and a draw buffer of up to ``_SUM_ROWS``
    trajectories on the longest grid, with as large a product on the diagonal path.  A run
    without a channel of nonzero amplitude counts one array, for its grid; the buffer
    held is only as long as the longest grid a law draws to, and empty if none does."""
    grids, held, noise = [_build_grid(sc) for sc in runs], {}, []  # held: law -> (grid, array)
    for sc, g in zip(runs, grids):
        laws = _laws(sc)
        new = [law for law in laws if law not in held]
        shape = (len(trajectories), len(g.ends)) if diagonal else (len(g.durations), len(trajectories))
        loud = [law for law in new if law[4]]  # by amplitude: a silent law reads a zero view
        held.update((law, (g, out)) for law, out in zip(loud, np.zeros((len(loud), *shape))))
        held.update((law, (g, np.broadcast_to(0.0, shape))) for law in new if not law[4])
        noise.append([held[law][1] for law in laws])
    longest = max((len(g.durations) for law, (g, _) in held.items() if law[4]), default=0)
    buf = np.empty((min(len(trajectories), _SUM_ROWS), longest))  # empty if no law draws
    for c in range(max(len(sc.channels) for sc in runs)):
        reads = [(g, amplitude, tau, out) for (k, *_, amplitude, tau), (g, out) in held.items()
                 if k == c and amplitude != 0.0]
        if not reads:
            continue
        if diagonal:
            weights = [_sum_weights(g, amplitude, tau) for g, amplitude, tau, _ in reads]
        steps = max(len(g.durations) for g, *_ in reads)
        for a in range(0, len(trajectories), _SUM_ROWS):
            rows = trajectories[a:a + _SUM_ROWS]
            drawn = buf[:len(rows), :steps]
            _draw(drawn, runs[0].seed, c, rows)
            for i, (g, _, _, out) in enumerate(reads):
                x = drawn[:, :len(g.durations)]
                if not diagonal:
                    out[:, a:a + len(rows)] = x.T
                    continue
                w_sum, w_last, carry_sum, carry_last = weights[i]
                last = np.zeros(len(rows))
                for j, (s, e) in enumerate(zip([0, *g.ends[:-1]], g.ends)):
                    # row sums, not a BLAS product: a row's bytes must not depend on the batch
                    out[a:a + len(rows), j] = (x[:, s:e] * w_sum[s:e]).sum(axis=1) + carry_sum[j] * last
                    last = (x[:, s:e] * w_last[s:e]).sum(axis=1) + carry_last[j] * last
        if not diagonal:
            for g, amplitude, tau, out in reads:
                _ou_in_place(out, *_ou_law(g.durations, amplitude, tau))
    return ((grid, noise.pop(0)) for grid in grids)


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


_BATCH_STEPS = 16  #: steps per batch of step coefficients or propagators, across intervals


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


def _steps(plan: _Plan, noise: Sequence[np.ndarray], dts: np.ndarray) -> Iterator:
    """Per step of the grid, what ``_evolve`` applies off the diagonal path, computed
    ``_BATCH_STEPS`` steps at a time across interval boundaries.  On a 2-dim block, ``a, b,
    c, d`` of the update ``psi0, psi1 <- a psi0 - b psi1, c psi0 + d psi1``: ``p, conj(q),
    q, conj(p)`` of ``_su2_step``, each times the trace phase ``exp(-i m dt)`` where a term
    has a trace part ``m``; on a larger one, the ``(noise rows, dim, dim)`` propagators."""
    dim = len(plan.block)
    # m, z, hr and hi of each term h = m 1 + [[z, hr - i hi], [hr + i hi, -z]] of a 2-dim block
    terms = [((h[0, 0] + h[1, 1]).real / 2, (h[0, 0] - h[1, 1]).real / 2, h[1, 0].real,
              h[1, 0].imag) for h in (plan.h0, *plan.couplings)] if dim == 2 else []
    for a in range(0, len(dts), _BATCH_STEPS):
        x, dt = [xc[a:a + _BATCH_STEPS] for xc in noise], dts[a:a + _BATCH_STEPS, None]
        if dim > 2:  # (steps, noise rows, dim, dim) frozen Hamiltonians, or h0 without noise
            h = sum((xc[:, :, None, None] * coupling for xc, coupling in zip(x, plan.couplings)), plan.h0)
            yield from _step_propagators(h, dt)
            continue
        with np.errstate(over="ignore", invalid="ignore"):  # NaN is refused later
            m, z, hr, hi = (sum((t[i] * xc for t, xc in zip(terms[1:], x) if t[i]), terms[0][i])
                            for i in range(4))
            p, q = _su2_step(z, hr, hi, dt)
            coefficients = p, q.conj(), q, p.conj()
            if any(t[0] for t in terms):
                coefficients = [np.exp(-1j * m * dt) * k for k in coefficients]
        yield from zip(*coefficients)


def _evolve(plan: _Plan, noise: Sequence[np.ndarray], psi: np.ndarray, grid: _Grid) -> np.ndarray:
    """Evolve state rows through the grid, one interval at a time, reading each channel's
    noise ``noise[c]``, its interval sums ``(rows, intervals)`` on the diagonal path and its
    samples ``(steps, rows)`` otherwise; returns (n_records, n_traj, len(block)), the
    rows on the plan's block, the only one propagated (they are zero outside it).  Off
    that path each interval takes its steps from one stream over the whole grid
    (``_steps``)."""
    psi, cut = psi[:, plan.block], np.ix_(plan.block, plan.block)
    out = np.zeros((len(grid.times), *psi.shape), dtype=complex)
    out[0] = psi
    dim = psi.shape[1]
    d0, dc = np.diag(plan.h0).real, [np.diag(c).real for c in plan.couplings]
    steps = None if plan.diagonal else _steps(plan, noise, grid.durations)
    start, rec = 0, 1
    for j, done in enumerate(grid.ends):
        if plan.diagonal:
            phase = grid.durations[start:done].sum() * d0
            for c in range(len(dc)):
                phase = phase + noise[c][:, j, None] * dc[c]
            psi = psi * np.exp(-1j * phase)
        elif dim == 2:
            psi0, psi1 = psi.T
            for a, b, c, d in islice(steps, done - start):
                psi0, psi1 = a * psi0 - b * psi1, c * psi0 + d * psi1
            psi = np.stack([psi0, psi1], axis=-1)
        else:
            for u in islice(steps, done - start):
                psi = np.einsum("tij,tj->ti", u, psi)
        if done in grid.pulses:
            psi = psi @ grid.pulses[done][cut].T
        if done in grid.record_steps:
            out[rec] = psi
            rec += 1
        start = done
    return out


def _noise(scenario: NoiseScenario, plan: _Plan, noise_values) -> tuple[_Grid, np.ndarray]:
    """The grid and what ``_evolve`` reads on the plan's path of the samples
    ``noise_values``, shared by every row."""
    grid = _build_grid(scenario)
    noise = np.asarray(noise_values, dtype=float)
    shape = (len(scenario.channels), grid.durations.shape[0])
    if noise.shape != shape:
        raise ValidationError(f"noise_values must have shape {shape}, got {noise.shape}")
    if plan.diagonal:  # the diagonal path reads the sums over each interval
        return grid, np.stack([(noise[:, None, a:b] * grid.durations[a:b]).sum(axis=-1)
                               for a, b in zip([0, *grid.ends], grid.ends)], axis=-1)
    return grid, noise[:, :, None]


def _run(scenario: NoiseScenario, psi: np.ndarray, trajectories: Sequence[int] = (),
         noise_values=None, shared: Iterator | None = None) -> tuple[_Plan, _Grid, np.ndarray]:
    """The one pipeline: the plan of the rows ``psi`` (``_path``), the grid, and their states
    on the plan's block (``_evolve``) under ``noise_values`` if given, shared by every row,
    else the seeded noise of ``trajectories``, read from the ``_sampled`` group ``shared``
    (by default a group of one).  The noise is freed on return, unless a later run of
    ``shared`` reads it."""
    plan = _path(scenario, psi)
    grid, noise = (_noise(scenario, plan, noise_values) if noise_values is not None
                   else next(shared or _sampled([scenario], plan.diagonal, trajectories)))
    return plan, grid, _evolve(plan, noise, psi, grid)


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
    trajectory's own seeded noise is used.  A ``trajectory`` that is not a
    whole number at least 0, or a state that is not finite (the noise or
    drift overflowed), raises :class:`ValidationError`.
    """
    trajectory = _seed("trajectory", trajectory)
    plan, grid, block = _run(scenario, scenario.initial_state[None, :], [trajectory], noise_values)
    states = np.zeros((len(grid.times), scenario.h_system.dim), dtype=complex)
    states[:, plan.block] = block[:, 0]  # zero off the block
    if not np.isfinite(states).all():
        raise ValidationError("trajectory is not finite: the noise or drift overflowed")
    return TrajectoryResult(grid.times, states)


def trajectory_propagator(scenario: NoiseScenario, noise_values: np.ndarray) -> Operator:
    """Exact propagator of one noise realization (pulses included), checked
    to be unitary to within ``DEFAULT_TOL.equality``, 1e-10."""
    # one noise row, broadcast by _evolve across the dim basis-vector rows, which reach
    # every index: their block is the whole space, and row i the image of basis vector i
    _, _, rows = _run(scenario, np.eye(scenario.h_system.dim, dtype=complex), noise_values=noise_values)
    return Operator(_unitary("trajectory propagator", rows[-1].T))


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


def ensemble_coherence(scenario: NoiseScenario, *,
                       _shared: Iterator[tuple[_Grid, np.ndarray]] | None = None) -> DecayCurve:
    """Monte Carlo decay curve of the scenario observable.

    Per trajectory the observable expectation is real (the observable is
    Hermitian); reported are its ensemble mean and the standard error of
    that mean at each record time.  A curve that is not finite (the noise or
    drift overflowed) raises :class:`ValidationError`.  ``_shared`` is
    ``ensemble_coherences``' own: the ``_sampled`` group whose next grid and
    noise the scenario reads, drawn at its first ``next``; by default the
    scenario is a group of one.
    """
    n = scenario.ensemble_size
    plan, grid, states = _run(scenario, np.tile(scenario.initial_state, (n, 1)), range(n), shared=_shared)
    obs = scenario.observable.matrix[np.ix_(plan.block, plan.block)]
    expect = np.einsum("rti,ij,rtj->rt", states.conj(), obs, states).real
    mean = expect.mean(axis=1)
    stderr = expect.std(axis=1, ddof=1) / math.sqrt(n) if n > 1 else np.zeros_like(mean)
    if not np.isfinite((mean, stderr)).all():
        raise ValidationError("decay curve is not finite: the noise or drift overflowed")
    return DecayCurve(grid.times, mean, stderr, n)


def ensemble_coherences(scenarios: Sequence[NoiseScenario]) -> list[DecayCurve]:
    """``ensemble_coherence`` of each scenario, in order, with the noise shared.

    Diagonal-path scenarios with the same seed and ensemble size sample
    together (``_sampled``): each seeded stream is drawn once, to the longest
    grid that reads it, so each curve is the one it has on its own.  A
    scenario joins such a group only while ``_noise_bytes`` of the group (the
    count ``NoiseScenario`` bounds for one run) stays within
    ``config._MAX_NOISE_BYTES``; past it a new group starts.  Off the
    diagonal path a scenario is a group of one: its per-step samples are as
    large as its run, and a group would hold them all at once.  The curves are
    computed group by group, so one group's noise is held at a time: one
    array per channel law, shared by reference and counted once.  A group is
    drawn inside its first scenario's ``ensemble_coherence`` call; each
    scenario's arrays are dropped after its propagation, before its curve is
    reduced, and their block is freed once no later scenario reads a row of it.
    """
    diagonal = [_path(sc, sc.initial_state[None, :]).diagonal for sc in scenarios]
    groups, open_groups = [], {}  # the last diagonal-path group of each (seed, ensemble size)
    for i, sc in enumerate(scenarios):
        key = (sc.seed, sc.ensemble_size) if diagonal[i] else i
        group = open_groups.get(key)
        if group is None or _noise_bytes(
                sc.ensemble_size, [scenarios[k] for k in [*group, i]], diagonal[i]) > _MAX_NOISE_BYTES:
            group = open_groups[key] = []
            groups.append(group)
        group.append(i)

    def drawn(group: list[int]) -> Iterator:  # sampled at the first next
        runs = [scenarios[k] for k in group]
        yield from _sampled(runs, diagonal[group[0]], range(runs[0].ensemble_size))

    curves = [None] * len(scenarios)
    for group in groups:
        shared = drawn(group)
        for k in group:
            curves[k] = ensemble_coherence(scenarios[k], _shared=shared)
    return curves


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
    (``seed`` at least 0, ``repetitions`` from 0 to ``_MAX_NOISE_BYTES //
    8`` by :class:`NoiseScenario`'s one rule, also without pulses),
    ``cycle_time``, ``max_step``, ``tau_fast`` and ``tau_slow`` positive
    numbers, ``pulses`` and ``encoded`` booleans, ``omegas`` four numbers
    and every other knob a number.  Numbers are finite; booleans and
    ``None`` are not numbers.

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
    known = {**_SHARED_KNOBS, **_known("scenario", name, _SCENARIOS)[1]}
    _known_keys(f"knobs for scenario {name!r}:", params, known)

    def knob(key: str, default):
        return known[key](key, params.get(key, default))

    # shared knobs are consumed here; the scenario's own knobs echo in params
    p = {k: v for k, v in params.items() if k not in _SHARED_KNOBS}
    cycle_time = knob("cycle_time", 1.0)
    repetitions = knob("repetitions", 16)
    ensemble_size = knob("ensemble_size", 500)
    seed = knob("seed", 2024)
    use_pulses = knob("pulses", True)
    max_step = knob("max_step", None) if "max_step" in params else None
    tau_fast = knob("tau_fast", 0.05 * cycle_time)
    tau_slow = knob("tau_slow", 20.0 * cycle_time)
    slow_amp = knob("slow_amplitude", 0.1)

    def slow_channels(n: int) -> list[DephasingChannel]:
        return [DephasingChannel(single_qubit("Z", q, n), tau_slow, slow_amp, "independent_slow")
                for q in range(1, n + 1)]

    def pair_collective(a: int, b: int, n: int, label: str) -> DephasingChannel:
        s_z = Operator(single_qubit("Z", a, n).matrix + single_qubit("Z", b, n).matrix, label=label)
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
        channels = [DephasingChannel(code.observable(axis), tau_slow, slow_amp, "logical")
                    for axis in "zx"]
        sequence = "gmax_cycle"
    else:  # four_qubit_blockwise
        omegas = p["omegas"] = knob("omegas", (1.0, 0.7, 0.4, 0.2))
        h = _zeeman(omegas)
        channels = [pair_collective(1, 2, 4, "S_z(1,2)"), pair_collective(3, 4, 4, "S_z(3,4)"),
                    *slow_channels(4)]
    schedule = (named_sequence(sequence, code=code, cycle_time=cycle_time, physical=True)
                if use_pulses else None)
    return NoiseScenario(
        name=name, h_system=h, channels=tuple(channels), code=code if encoded else None,
        schedule=schedule, repetitions=repetitions if schedule else 0, ensemble_size=ensemble_size,
        total_time=repetitions * cycle_time, seed=seed, initial_state=initial,
        observable=observable, max_step=max_step, params=p,
    )
