"""Stochastic dephasing engine: OU statistics, propagation, ensembles."""
import dataclasses
import hashlib
import itertools
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aht.codes import build_code
from aht.config import _MAX_NOISE_BYTES, DEFAULT_TOL, ValidationError
from aht.decoupling import cycle_propagator, named_sequence
from aht.noise import (
    _BATCH_STEPS,
    _SUM_ROWS,
    SCENARIO_NAMES,
    DecayCurve,
    NoiseScenario,
    _build_grid,
    _draw,
    _evolve,
    _noise_bytes,
    _ou_in_place,
    _path,
    _reachable_block,
    _run,
    _sampled,
    _step_propagators,
    _su2_step,
    build_scenario,
    ensemble_coherence,
    ensemble_coherences,
    final_error,
    propagate_trajectory,
    trajectory_propagator,
)
from aht.operators import Operator, PauliString, expm, pauli_sum, single_qubit
from aht.verify import run_suite


#: (gaps between OU samples, steps spanning one correlation time
#: tau_c = 1): a uniform grid and one whose gaps alternate 0.05 / 0.15.
OU_GRIDS = {
    "uniform": (np.full(399, 0.1), 10),
    "alternating": (np.resize([0.05, 0.15], 399), 10),
}


def ou_law(amplitude, tau_c, gaps):
    """``rho`` and ``kick`` of each sample, ``gaps`` between consecutive samples;
    none before the first, whose ``rho`` is 0 and ``kick`` is ``amplitude``."""
    rho = np.exp(-np.concatenate([[np.inf], gaps]) / tau_c)
    return rho, amplitude * np.sqrt(1 - rho * rho)


def ou_samples(gaps, amplitude, seed, n_traj=2000):
    """``_ou_in_place`` at tau_c = 1 on seeded standard-normal draws, as ``(n_traj, steps)``."""
    x = np.random.default_rng(seed).standard_normal((n_traj, len(gaps) + 1)).T.copy()
    _ou_in_place(x, *ou_law(amplitude, 1.0, gaps))
    return x.T


#: every library scenario with pulses on and off, plus physical hybrid_dephasing
CONFIGS = {
    **{name: (name, {}) for name in SCENARIO_NAMES},
    **{f"{name}-free": (name, {"pulses": False}) for name in SCENARIO_NAMES},
    "hybrid_dephasing-physical": ("hybrid_dephasing", {"encoded": False}),
    "hybrid_dephasing-physical-free": ("hybrid_dephasing", {"encoded": False, "pulses": False}),
}

#: basis indices each configuration propagates: the encoded states live on
#: |01>, |10> (and their products); the physical pulse train flips |+>|0>
#: onto all four basis states
CODE_BLOCKS = {
    "hybrid_dephasing": [1, 2],
    "encoded_spin_boson": [1, 2],
    "encoded_depolarizing": [1, 2],
    "four_qubit_blockwise": [5, 6, 9, 10],
    "hybrid_dephasing-physical": [0, 1, 2, 3],
}

#: sha256 of ``ensemble_coherence`` mean and std-error bytes at
#: ``repetitions=2, ensemble_size=16, seed=29`` (numpy 2.4, OpenBLAS,
#: x86-64): the three diagonal-path ones re-recorded with the interval
#: sampler, which reduces the draws straight to interval sums and moved
#: their states by rounding only (see
#: ``test_interval_sampler_matches_per_step_samples``), the two
#: non-diagonal ones recorded with the closed-form 2x2 step propagators
#: (see ``test_paths_match_the_step_exponentials``); ``hybrid_dephasing-physical``
#: re-recorded once more when both samplers took one OU step law from the
#: step lengths (gaps ``(dt_prev + dt) / 2``, not differences of midpoint
#: times), which moved its curve by rounding only, 2.6e-15, and the other
#: four not at all (see ``test_samples_take_the_exact_step_gaps``); the two
#: non-diagonal ones re-recorded when their 2-dim steps were applied straight
#: to the two state components (``_su2_step``, the trace phase once per batch),
#: which moved each curve by rounding only, 1.1e-16; a change that moves them
#: says so and re-records them
PINNED_DIGESTS = {
    "hybrid_dephasing": "b3832edd66c65e7064e2f537e7710eb5836420c38546aa3fa78a0efe6804f05e",
    "hybrid_dephasing-physical": "6ca575d5b8e53ffe30a72e3348cc6e130b3ae719565a051d5b637607d5029cd9",
    "encoded_spin_boson": "362d5e4f81fd6a735cb332c02e178b00b8159e7486de1110e1626cce34f2b39c",
    "encoded_depolarizing": "45e3b64e128a3c2b5a69a1f18410b562ded908f914a1ddbfe2d13bf64f541e48",
    "four_qubit_blockwise": "014768038afd30188eca67e69e192f0ca59e3a8c5ac19287646319031cdcae8a",
}


#: the library scenarios whose drift and couplings are diagonal, so that
#: ``_evolve`` takes one phase update per event interval, and their configurations
DIAGONAL_NAMES = ("hybrid_dephasing", "four_qubit_blockwise")
DIAGONAL_CONFIGS = [config for config, (name, _) in CONFIGS.items() if name in DIAGONAL_NAMES]


#: diagonal configurations whose intervals differ in length: cp_x_symmetric
#: (1/4, 1/2, 1/4 of a cycle) on its default grid, and with a max_step that
#: splits the intervals into steps of different lengths
UNEQUAL_INTERVALS = {"cp_x_symmetric": {}, "cp_x_symmetric-max_step": {"max_step": 0.0013}}


def diagonal_scenario(config, ensemble_size=1):
    """A diagonal configuration at ``repetitions=2, seed=3``."""
    if config in UNEQUAL_INTERVALS:
        sc = build_scenario("hybrid_dephasing", repetitions=2, ensemble_size=ensemble_size,
                            seed=3, **UNEQUAL_INTERVALS[config])
        schedule = named_sequence("cp_x_symmetric", code=sc.code, cycle_time=1.0, physical=True)
        return dataclasses.replace(sc, schedule=schedule)
    name, knobs = CONFIGS[config]
    return build_scenario(name, repetitions=2, ensemble_size=ensemble_size, seed=3, **knobs)


def interval_sums(grid, noise):
    """Per-step samples ``(channels, steps, rows)`` summed over each interval of the grid,
    weighted by the step lengths, as ``(channels, rows, intervals)``: what the diagonal
    path reads."""
    bounds, noise = [0, *grid.ends], noise.swapaxes(1, 2)
    return np.stack([
        np.sum(noise[:, :, a:b] * grid.durations[a:b], axis=-1) for a, b in zip(bounds, bounds[1:])
    ], axis=-1)


def sampled(sc, trajectories, diagonal):
    """The noise ``_sampled`` gives the one run on the path ``diagonal``: per-step samples
    ``(channels, steps, rows)`` off the diagonal path, interval sums ``(channels, rows,
    intervals)`` on it, the run's channel arrays stacked."""
    return np.array(next(_sampled([sc], diagonal, trajectories))[1])


def evolve(sc, noise, rows):
    """``_evolve`` of ``rows`` copies of the initial state under ``noise``, on the full space."""
    psi, grid = np.tile(sc.initial_state, (rows, 1)), _build_grid(sc)
    plan = _path(sc, psi)
    states = np.zeros((len(grid.times), *psi.shape), dtype=complex)
    states[..., plan.block] = _evolve(plan, noise, psi, grid)
    return states


def pinned_scenario(config, **over):
    """A configuration at the ``PINNED_DIGESTS`` knobs, with ``over`` on top."""
    name, knobs = CONFIGS[config]
    return build_scenario(name, **{"repetitions": 2, "ensemble_size": 16, "seed": 29, **knobs, **over})


def digest(curve):
    """sha256 of a curve's mean and std-error bytes, as ``PINNED_DIGESTS`` holds."""
    return hashlib.sha256(curve.mean.tobytes() + curve.std_error.tobytes()).hexdigest()


def with_trace_part(sc):
    """``sc`` with a drift offset 0.7 and a trace part 0.3 on its first coupling."""
    first, *rest = sc.channels
    one = np.eye(sc.h_system.dim)
    offset = dataclasses.replace(first, coupling=Operator(first.coupling.matrix + 0.3 * one))
    return dataclasses.replace(sc, h_system=Operator(sc.h_system.matrix + 0.7 * one),
                               channels=(offset, *rest))


#: an exchange between the two dfs2 blocks of four_qubit_blockwise, which joins them
#: into one block the batched eigh propagates
EXCHANGE = pauli_sum([PauliString.from_word("XX", [2, 3], 4, 0.3)]).matrix


#: the cases of the propagation oracle besides ``CONFIGS``, built by ``path_case``:
#: cp_x_symmetric's unequal intervals, on the SU(2) path in steps of two lengths and on
#: the diagonal path, there also in steps of two lengths; a drift offset and a trace
#: part (``with_trace_part``) on each path; record intervals of 50 steps, more than
#: three batches, on the SU(2) and diagonal paths; a state on all 4 basis states of the two encoded
#: scenarios, which takes the batched eigh on the whole space; and ``EXCHANGE`` on
#: four_qubit_blockwise, which takes it on an 8-dim block of the 16-dim space
PATH_CASES = {
    "cp_x_symmetric": ("encoded_spin_boson", {"max_step": 0.013}),
    "cp_x_symmetric-diagonal": ("hybrid_dephasing", {}),
    "cp_x_symmetric-diagonal-max_step": ("hybrid_dephasing", {"max_step": 0.0013}),
    "trace": ("encoded_spin_boson", {}),
    "trace-free": ("encoded_spin_boson", {"pulses": False}),
    "trace-depolarizing": ("encoded_depolarizing", {}),
    "trace-diagonal": ("hybrid_dephasing", {}),
    "trace-diagonal-free": ("hybrid_dephasing", {"pulses": False}),
    "long-interval": ("encoded_spin_boson", {"pulses": False, "max_step": 2e-3}),
    "long-interval-depolarizing": ("encoded_depolarizing", {"pulses": False, "max_step": 2e-3}),
    "long-interval-diagonal": ("hybrid_dephasing", {"pulses": False, "max_step": 2e-3}),
    "four-dim": ("encoded_spin_boson", {"max_step": 0.0125}),
    "four-dim-free": ("encoded_spin_boson", {"pulses": False, "max_step": 0.0125}),
    "four-dim-trace": ("encoded_spin_boson", {"max_step": 0.0125}),
    "four-dim-depolarizing": ("encoded_depolarizing", {"max_step": 0.0125}),
    "four-dim-depolarizing-free": ("encoded_depolarizing", {"pulses": False, "max_step": 0.0125}),
    "exchange": ("four_qubit_blockwise", {}),
    "exchange-free": ("four_qubit_blockwise", {"pulses": False}),
    "exchange-trace": ("four_qubit_blockwise", {}),
}


def path_case(case):
    """A case of ``CONFIGS`` or ``PATH_CASES`` at ``repetitions=2, seed=3``."""
    name, knobs = {**CONFIGS, **PATH_CASES}[case]
    sc = build_scenario(name, repetitions=2, ensemble_size=1, seed=3, **knobs)
    if case.startswith("cp_x_symmetric"):
        sc = dataclasses.replace(sc, schedule=named_sequence(
            "cp_x_symmetric", code=sc.code, cycle_time=1.0, physical=True))
    if case.startswith("four-dim"):
        sc = dataclasses.replace(sc, initial_state=np.full(4, 0.5))
    if case.startswith("exchange"):
        sc = dataclasses.replace(sc, h_system=Operator(sc.h_system.matrix + EXCHANGE))
    return with_trace_part(sc) if "trace" in case else sc


def step_exponentials(sc, noise):
    """The oracle of every propagation path: for each row of the per-step noise ``noise``
    ``(channels, steps, rows)``, the ordered product on the full space of scipy's ``expm``
    of each step's frozen Hamiltonian ``h0 + sum_c x_c coupling_c``, each pulse applied after
    the step it ends; returns the products at the record steps, ``(records, rows, dim, dim)``."""
    from scipy.linalg import expm

    grid, dim = _build_grid(sc), sc.h_system.dim
    h = sc.h_system.matrix + sum(x[..., None, None] * ch.coupling.matrix
                                 for x, ch in zip(noise, sc.channels))
    u = np.broadcast_to(np.eye(dim, dtype=complex), (noise.shape[2], dim, dim))
    products = [u]
    for k, step in enumerate(expm(-1j * grid.durations[:, None, None, None] * h), 1):
        u = step @ u
        if k in grid.pulses:
            u = grid.pulses[k] @ u
        if k in grid.record_steps:
            products.append(u)
    return np.array(products)


def code_block(sc):
    """The basis indices ``_evolve`` propagates for the scenario's initial state."""
    generators = [sc.h_system.matrix, *(ch.coupling.matrix for ch in sc.channels)]
    generators += _build_grid(sc).pulses.values()
    return _reachable_block(sc.initial_state[None, :], generators)


def ou_reference(amplitude, tau_c, gaps, draws):
    """The OU recursion one column at a time into a second array:
    ``x_0 = amp xi_0``, ``x_k = rho x_{k-1} + amp sqrt(1 - rho^2) xi_k``."""
    out = np.empty(draws.shape)
    out[:, 0] = amplitude * draws[:, 0]
    rho = np.exp(-gaps / tau_c)
    kick = amplitude * np.sqrt(1 - rho * rho)
    for k in range(1, draws.shape[1]):
        out[:, k] = rho[k - 1] * out[:, k - 1] + kick[k - 1] * draws[:, k]
    return out


def exact_gaussian_mean(sc):
    """Exact ensemble mean of the observable at each record time, on the
    diagonal path with monomial pulses; reads only the scenario and its grid.

    Each nonzero initial amplitude follows one basis-index path through
    the pulses and gathers the phase ``sum_k dt_k (h0 + sum_c x_c(m_k)
    coupling_c)`` along it.  The phase difference of two paths is linear
    in the Gaussian samples, so its average is exact:
    ``exp(-i <dphi>) exp(-sum_c w_c^T K_c w_c / 2)`` with
    ``K_c = amp^2 exp(-|m_k - m_l| / tau_c)`` at the step midpoints ``m_k``,
    taken here from the step lengths, not from the sampler.
    """
    grid = _build_grid(sc)
    steps = grid.durations.shape[0]
    where = np.flatnonzero(sc.initial_state)
    factor = sc.initial_state[where]
    index = np.empty((len(where), steps), dtype=int)  # basis index of each path per step
    ends, amps = [where], [factor]  # per record: path end index, pulse factors times psi
    for k in range(steps):
        index[:, k] = where
        if k + 1 in grid.pulses:
            cols = grid.pulses[k + 1][:, where]
            assert np.all(np.count_nonzero(cols, axis=0) == 1), "pulse is not monomial"
            where = np.argmax(cols != 0, axis=0)
            factor = factor * cols[where, np.arange(len(where))]
        if k + 1 in grid.record_steps:
            ends.append(where)
            amps.append(factor)
    ends, amps = np.array(ends), np.array(amps)
    records = np.array(sorted(grid.record_steps))

    def pair_steps(diag):
        # (paths, paths, steps): dt_k (diag[path b] - diag[path a])
        v = diag.real[index] * grid.durations
        return v[None, :, :] - v[:, None, :]

    def at_records(x):
        # sums over the steps before each record, as (records, paths, paths)
        total = np.concatenate([np.zeros((*x.shape[:-1], 1)), np.cumsum(x, axis=-1)], axis=-1)
        return np.moveaxis(total[..., records], -1, 0)

    exponent = 1j * at_records(pair_steps(np.diag(sc.h_system.matrix)))
    m = np.concatenate([[0.0], np.cumsum(grid.durations)])[:-1] + grid.durations / 2
    for ch in sc.channels:
        w = pair_steps(np.diag(ch.coupling.matrix))
        kern = ch.amplitude**2 * np.exp(-np.abs(m[:, None] - m[None, :]) / ch.correlation_time)
        # w^T K w as a running sum: w_k^2 K_kk + 2 w_k sum_{l<k} K_kl w_l
        below = w @ np.tril(kern, -1).T
        exponent = exponent + at_records(w * w * np.diag(kern) + 2 * w * below) / 2
    obs = sc.observable.matrix[ends[:, :, None], ends[:, None, :]]
    terms = amps.conj()[:, :, None] * obs * amps[:, None, :] * np.exp(-exponent)
    return terms.sum(axis=(1, 2)).real


def quasi_static_mean(sc, nodes=12):
    """Exact ensemble mean of the observable at each record time when each
    channel's noise is one static value ``x_c ~ N(0, amp_c^2)`` (correlation
    times far past the run); reads only public scenario fields.

    The mean is a Gauss-Hermite sum, ``nodes`` per channel, of deterministic
    curves: each node evolves under the constant ``h_system + sum_c x_c
    coupling_c`` by ``operators.expm`` per interval and the schedule's pulses.
    """
    z, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / w.sum()  # the N(0, 1) weights
    sch, obs = sc.schedule, sc.observable.matrix
    if sch is None:  # one interval per record
        cycle, records = [(sc.total_time / sc.record_points, None)], sc.record_points
    else:  # pulse i ends interval i; records end cycles
        pulses = [p.matrix for p in sch.pulses] + [None]
        cycle = [(tau * sch.cycle_time, p) for tau, p in zip(sch.durations, pulses)]
        records = sc.repetitions
    mean = np.zeros(records + 1)
    for node in itertools.product(range(nodes), repeat=len(sc.channels)):
        h = sc.h_system.matrix + sum(
            ch.amplitude * z[k] * ch.coupling.matrix for ch, k in zip(sc.channels, node)
        )
        u = np.eye(sc.h_system.dim, dtype=complex)
        for length, pulse in cycle:
            u = expm(h, length).matrix @ u
            u = u if pulse is None else pulse @ u
        psi, curve = sc.initial_state, []
        for _ in range(records + 1):
            curve.append((psi.conj() @ obs @ psi).real)
            psi = u @ psi
        mean += np.prod(w[list(node)]) * np.array(curve)
    return mean


def tcl2_mean(sc):
    """Second-order (TCL2, Born) ensemble mean of the observable at each record
    time, and the trace norm ``delta_2`` of the second-order term there; reads
    the scenario and its step grid, never the simulator's propagation.

    In the toggling frame of the noiseless evolution ``U0`` (drift and pulses,
    by ``scipy.linalg.expm`` per distinct step length), a coupling ``A`` at a
    step of length ``dt`` reads ``B_k = U0(t_k)^+ A U0(t_k) dt`` at the step
    midpoint ``t_k``.  The Gaussian average to second order is ``rho0 -
    sum_channels sum_k amp^2 [B_k, [S_k + B_k / 2, rho0]]`` with ``S_k =
    sum_(l<k) exp(-(t_k - t_l) / tau_c) B_l`` (Kubo 1962; Breuer and
    Petruccione 2002; Green, Ball and Biercuk, NJP 15, 095004, 2013), read
    against ``U0(t)^+ O U0(t)``; its neglected terms are of order ``delta_2^2``.
    """
    from scipy.linalg import expm

    grid, h0, obs = _build_grid(sc), sc.h_system.matrix, sc.observable.matrix
    half = {dt: expm(-0.5j * dt * h0) for dt in set(grid.durations.tolist())}
    rho0 = np.outer(sc.initial_state, sc.initial_state.conj())
    u, second = np.eye(sc.h_system.dim, dtype=complex), np.zeros_like(rho0)
    s, b_prev = [0.0] * len(sc.channels), [0.0] * len(sc.channels)
    means, deltas = [np.trace(rho0 @ obs).real], [0.0]
    for k, dt in enumerate(grid.durations):
        mid = half[dt] @ u  # U0 at the step midpoint
        gap = (grid.durations[k - 1] + dt) / 2 if k else np.inf
        for c, ch in enumerate(sc.channels):
            b = mid.conj().T @ ch.coupling.matrix @ mid * dt
            s[c] = np.exp(-gap / ch.correlation_time) * (s[c] + b_prev[c])
            inner = (s[c] + b / 2) @ rho0 - rho0 @ (s[c] + b / 2)
            second += ch.amplitude**2 * (b @ inner - inner @ b)
            b_prev[c] = b
        u = half[dt] @ mid
        if k + 1 in grid.pulses:
            u = grid.pulses[k + 1] @ u
        if k + 1 in grid.record_steps:
            means.append(np.trace((rho0 - second) @ u.conj().T @ obs @ u).real)
            deltas.append(np.abs(np.linalg.eigvalsh(second)).sum())
    return np.array(means), np.array(deltas)


#: (scenario, pulses, tau_slow, slow_amplitude) of the finite-tau TCL2 gate: weak
#: noise, the amplitude of each scenario and tau taking delta_2 near 0.04 without pulses
TCL2_CASES = [
    (name, pulses, tau, amplitude)
    for name, amplitudes in [("encoded_spin_boson", {0.3: 0.05, 3.0: 0.02}),
                             ("encoded_depolarizing", {0.3: 0.06, 3.0: 0.025})]
    for pulses in (True, False) for tau, amplitude in amplitudes.items()
]

class TestOuTrajectory:
    def test_zero_amplitude(self):
        for gaps, _ in OU_GRIDS.values():
            assert np.array_equal(ou_samples(gaps, 0.0, seed=1, n_traj=10), np.zeros((10, 400)))

    def test_deterministic_for_seed(self):
        for gaps, _ in OU_GRIDS.values():
            assert np.array_equal(ou_samples(gaps, 0.5, seed=42), ou_samples(gaps, 0.5, seed=42))

    def test_autocorrelation_at_one_correlation_time(self):
        # oracle: closed-form OU autocorrelation amp^2 exp(-lag/tau_c),
        # pooled over 2000 trajectories; every window of `lag` gaps spans 1.0
        amp = 0.7
        for gaps, lag in OU_GRIDS.values():
            assert np.sum(gaps[:lag]) == pytest.approx(1.0, abs=1e-12)
            x = ou_samples(gaps, amp, seed=11)
            estimate = float(np.mean(x[:, :-lag] * x[:, lag:]))
            assert estimate == pytest.approx(amp**2 / np.e, rel=0.05)

    def test_stationary_variance(self):
        for gaps, _ in OU_GRIDS.values():
            x = ou_samples(gaps, 0.5, seed=3)
            assert float(np.var(x)) == pytest.approx(0.25, rel=0.05)

    @pytest.mark.parametrize("steps", [1, 2, 3, 64, 257, 515])
    @pytest.mark.parametrize("rows", [1, 7, 500])
    def test_row_walk_matches_column_recursion(self, steps, rows):
        # the in-place walk over step rows, bit for bit against the plain loop
        rng = np.random.default_rng([steps, rows])
        grids = {
            "uniform": np.full(steps - 1, 0.01),
            "alternating": np.resize([0.05, 0.15], steps - 1),
            "random": rng.uniform(1e-3, 0.5, steps - 1),
        }
        for gaps in grids.values():
            draws = rng.standard_normal((rows, steps))
            x = draws.T.copy()
            _ou_in_place(x, *ou_law(0.7, 0.3, gaps))
            assert np.array_equal(x.T, ou_reference(0.7, 0.3, gaps, draws))

    @pytest.mark.parametrize("name", ["hybrid_dephasing", "encoded_depolarizing"])
    def test_samples_take_the_exact_step_gaps(self, name):
        # on a 16-cycle grid (6400 steps of 2.5 ms; 320 of 50 ms) the gap between
        # samples k-1 and k is (dt_(k-1) + dt_k) / 2, bit for bit: a difference of
        # midpoint times would carry rounding of up to about 1e-12 late in the run
        sc = build_scenario(name, repetitions=16, ensemble_size=3, seed=12)
        grid = _build_grid(sc)
        dt, noise = grid.durations, sampled(sc, range(3), False)
        for c, ch in enumerate(sc.channels):
            draws = np.array([np.random.default_rng([sc.seed, c, i]).standard_normal(len(dt))
                              for i in range(3)])
            expected = ou_reference(ch.amplitude, ch.correlation_time, (dt[:-1] + dt[1:]) / 2, draws)
            assert np.array_equal(noise[c].T, expected)


class TestStepGrid:
    @pytest.mark.parametrize(
        "knobs", [{}, {"pulses": False}, {"max_step": 0.004}], ids=["pulsed", "free", "max_step"]
    )
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_steps_follow_the_rule(self, name, knobs):
        # module docstring: dt <= min(tau_c / 20, T_c / 20, max_step), with T_c
        # the whole run without pulses; pulses fire at the schedule boundaries
        sc = build_scenario(name, repetitions=3, **knobs)
        grid = _build_grid(sc)
        sch = sc.schedule
        caps = [ch.correlation_time / 20 for ch in sc.channels]
        caps.append((sch.cycle_time if sch else sc.total_time) / 20)
        caps.append(knobs.get("max_step", np.inf))
        assert np.max(grid.durations) <= min(caps) * (1 + 1e-12)
        elapsed = np.concatenate([[0.0], np.cumsum(grid.durations)])
        assert elapsed[-1] == pytest.approx(sc.total_time, abs=1e-12)
        assert np.allclose(elapsed[sorted(grid.record_steps)], grid.times, rtol=0, atol=1e-12)
        fired = sorted(grid.pulses)
        expected = [] if sch is None else [
            ((rep + sum(sch.durations[: i + 1])) * sch.cycle_time, pulse.matrix)
            for rep in range(sc.repetitions) for i, pulse in enumerate(sch.pulses)
        ]
        assert len(fired) == len(expected)
        for done, (boundary, matrix) in zip(fired, expected):
            assert elapsed[done] == pytest.approx(boundary, abs=1e-12)
            assert np.array_equal(grid.pulses[done], matrix)


def slow_only_scenario(**over):
    kw = dict(
        encoded=True, fast_amplitude=0.0, slow_amplitude=0.2, omega1=0.0, omega2=0.0,
        repetitions=4, ensemble_size=50, seed=5, pulses=False,
    )
    kw.update(over)
    return build_scenario("hybrid_dephasing", **kw)


class TestPropagation:
    def test_free_precession_closed_form(self):
        # no noise, no pulses: |+_L> precesses at delta_omega exactly
        sc = build_scenario(
            "hybrid_dephasing", encoded=True, fast_amplitude=0.0, slow_amplitude=0.0,
            omega1=1.4, omega2=0.6, repetitions=4, ensemble_size=1, seed=0, pulses=False,
        )
        res = propagate_trajectory(sc)
        code = build_code("dfs2")
        obs = code.observable("x").matrix
        delta = (1.4 - 0.6) / 2
        for t, psi in zip(res.times, res.states):
            got = (psi.conj() @ obs @ psi).real
            assert got == pytest.approx(np.cos(2 * delta * t), abs=1e-10)

    def test_collective_noise_invariance_is_exact(self):
        # (fast amplitude, equal Zeeman frequency, trajectories, seed)
        for amplitude, omega, n_traj, seed in ((2.0, 0.9, 1, 7), (1.5, 0.8, 8, 909)):
            sc = build_scenario(
                "hybrid_dephasing", encoded=True, fast_amplitude=amplitude, slow_amplitude=0.0,
                omega1=omega, omega2=omega, repetitions=4, ensemble_size=n_traj, seed=seed,
                pulses=False,
            )
            for k in range(n_traj):
                res = propagate_trajectory(sc, trajectory=k)
                assert np.array_equal(res.final_state, sc.initial_state)

    def test_fast_cp_preserves_coherence(self):
        # slow channel with many encoded pulses per correlation time
        sc = build_scenario(
            "hybrid_dephasing", encoded=True, fast_amplitude=0.0, slow_amplitude=0.5,
            tau_slow=50.0, cycle_time=0.25, repetitions=64, ensemble_size=200, seed=9,
        )
        curve = ensemble_coherence(sc)
        assert curve.mean[-1] > 0.99
        free = build_scenario(
            "hybrid_dephasing", encoded=True, fast_amplitude=0.0, slow_amplitude=0.5,
            tau_slow=50.0, cycle_time=0.25, repetitions=64, ensemble_size=200, seed=9,
            pulses=False,
        )
        assert ensemble_coherence(free).mean[-1] < 0.5

    def test_trajectory_propagator_is_unitary(self):
        sc = slow_only_scenario(pulses=True, ensemble_size=1)
        grid = _build_grid(sc)
        rng = np.random.default_rng(0)
        noise = rng.normal(0, 0.3, size=(len(sc.channels), grid.durations.shape[0]))
        u = trajectory_propagator(sc, noise)
        assert u.is_unitary()

    def test_propagator_unitarity_threshold_read_from_tol(self):
        # rounding leaves a defect of about 1e-16: the diagonal path takes
        # one phase update per pulse or record, 12 over the 1600 steps
        sc = slow_only_scenario(pulses=True, ensemble_size=1)
        steps = _build_grid(sc).durations.shape[0]
        noise = np.random.default_rng(1).normal(0, 0.5, size=(len(sc.channels), steps))
        assert trajectory_propagator(sc, noise).is_unitary()
        noise[0, 5] = np.inf  # the propagator turns NaN, which must fail the check
        with np.errstate(invalid="ignore"), pytest.raises(ValidationError, match="unitarity"):
            trajectory_propagator(sc, noise)

    def test_explicit_noise_shape_checked(self):
        sc = slow_only_scenario()
        with pytest.raises(ValidationError):
            propagate_trajectory(sc, noise_values=np.zeros((1, 3)))
        with pytest.raises(ValidationError):
            trajectory_propagator(sc, np.zeros((1, 3)))

    @pytest.mark.parametrize("name", ["hybrid_dephasing", "encoded_spin_boson"])
    def test_explicit_noise_on_silent_channels_acts(self, name):
        # the amplitude scales only the seeded noise: explicit samples on channels of
        # amplitude 0 act as they do at amplitude 1, on either path, where the seeded
        # noise of those channels is zero
        sc = build_scenario(name, repetitions=2, ensemble_size=1, seed=3)
        silent, loud = (dataclasses.replace(sc, channels=tuple(
            dataclasses.replace(ch, amplitude=a) for ch in sc.channels)) for a in (0.0, 1.0))
        noise = np.random.default_rng(4).normal(0, 0.5, (len(sc.channels), len(_build_grid(sc).durations)))
        states = propagate_trajectory(silent, noise).states
        assert np.array_equal(states, propagate_trajectory(loud, noise).states)
        assert np.array_equal(trajectory_propagator(silent, noise).matrix,
                              trajectory_propagator(loud, noise).matrix)
        assert np.max(np.abs(states - propagate_trajectory(silent).states)) > 1e-3

    @pytest.mark.parametrize("value", [-1, 2.5, True])
    @pytest.mark.parametrize("name", ["hybrid_dephasing", "encoded_spin_boson"])
    def test_trajectory_must_be_a_whole_number_at_least_0(self, name, value):
        # on the diagonal path and off it, before numpy's seeding sees the value
        sc = build_scenario(name, repetitions=2, ensemble_size=3)
        with pytest.raises(ValidationError, match="trajectory"):
            propagate_trajectory(sc, trajectory=value)

    @pytest.mark.parametrize("config", CODE_BLOCKS)
    def test_code_block(self, config):
        name, knobs = CONFIGS[config]
        assert code_block(build_scenario(name, **knobs)).tolist() == CODE_BLOCKS[config]

    def test_block_links_either_direction(self):
        # |2> -> |0> through an entry above the diagonal, then |0> -> |3>
        # through one below it; |1> stays unreachable
        up, down = np.zeros((4, 4)), np.zeros((4, 4))
        up[0, 2] = down[3, 0] = 1.0
        psi = np.array([[0, 0, 1j, 0]])
        assert _reachable_block(psi, [up, down]).tolist() == [0, 2, 3]
        assert _reachable_block(psi, [down]).tolist() == [2]

    def test_single_trajectory_draws_its_own_stream(self):
        # trajectory k's noise is the ensemble's at index k of the trajectory axis, bit
        # for bit, on either path: (channels, steps, rows) and (channels, rows, intervals)
        sc = build_scenario("hybrid_dephasing", repetitions=2, ensemble_size=5, seed=4)
        for diagonal, axis in ((False, 2), (True, 1)):
            ensemble = sampled(sc, range(5), diagonal)
            for k in (0, 3):
                assert np.array_equal(sampled(sc, [k], diagonal), np.take(ensemble, [k], axis=axis))

    @pytest.mark.parametrize("n", [1, _SUM_ROWS - 1, _SUM_ROWS + 1, 2 * _SUM_ROWS + 3])
    @pytest.mark.parametrize("name,knobs", CONFIGS.values(), ids=CONFIGS.keys())
    def test_results_do_not_depend_on_batching(self, name, knobs, n):
        # through _run, the pipeline ensemble_coherence and propagate_trajectory share:
        # an ensemble row is the lone trajectory's run on its block, and batches of 5
        # trajectories, which cut the sampler's draw buffer elsewhere, reproduce the
        # whole ensemble, bit for bit
        sc = build_scenario(name, repetitions=2, ensemble_size=n, seed=8, **knobs)
        block = code_block(sc)

        def states(trajectories):
            return _run(sc, np.tile(sc.initial_state, (len(trajectories), 1)), trajectories)[2]

        full = states(range(n))
        for k in sorted({0, min(_SUM_ROWS, n - 1), n - 1}):
            assert np.array_equal(full[:, k], propagate_trajectory(sc, trajectory=k).states[:, block])
        batches = [states(range(a, min(a + 5, n))) for a in range(0, n, 5)]
        assert np.array_equal(np.concatenate(batches, axis=1), full)

    @pytest.mark.parametrize("config", [*DIAGONAL_CONFIGS, *UNEQUAL_INTERVALS])
    def test_interval_sampler_matches_per_step_samples(self, config):
        # the interval sums drawn directly against the per-step samples of the
        # same draws, summed over each interval: states move by rounding only
        sc = diagonal_scenario(config, ensemble_size=20)
        grid = _build_grid(sc)
        direct = evolve(sc, sampled(sc, range(20), True), 20)
        per_step = evolve(sc, interval_sums(grid, sampled(sc, range(20), False)), 20)
        assert np.max(np.abs(direct - per_step)) < 1e-12

    def test_unequal_intervals_split_unevenly(self):
        # the extra configurations above cover boundaries between steps of
        # different lengths: the sampler's boundary gap and kick
        for config in UNEQUAL_INTERVALS:
            grid = _build_grid(diagonal_scenario(config))
            assert len(set(np.diff([0, *grid.ends]).tolist())) > 1
        grid = _build_grid(diagonal_scenario("cp_x_symmetric-max_step"))
        assert len(np.unique(grid.durations)) > 1

    def test_diagonal_path_draws_no_per_step_samples(self, monkeypatch):
        # no OU recursion runs, and what the propagation reads is one sum per
        # (channel, trajectory, interval), not one sample per step
        shapes, evolve_states = [], _evolve

        def recorded(plan, noise, psi, grid):
            shapes.append(np.shape(noise) == (len(plan.couplings), len(psi), len(grid.ends)))
            return evolve_states(plan, noise, psi, grid)

        monkeypatch.setattr("aht.noise._ou_in_place", lambda *a: pytest.fail("OU recursion"))
        monkeypatch.setattr("aht.noise._evolve", recorded)
        for config in DIAGONAL_CONFIGS:
            curve = ensemble_coherence(diagonal_scenario(config, ensemble_size=4))
            assert np.all(np.isfinite(curve.mean))
        assert shapes == [True] * len(DIAGONAL_CONFIGS)

    @pytest.mark.parametrize("case", [*CONFIGS, *PATH_CASES])
    def test_paths_match_the_step_exponentials(self, case):
        # oracle: step_exponentials, on the full space. Each path (a phase update per
        # interval on a diagonal block, SU(2) steps on a 2-dim one, batched eigh on a larger
        # one) runs 3 rows of distinct strong noise; propagate_trajectory under the first
        # row is exactly zero off the block, and trajectory_propagator runs identity rows
        sc = path_case(case)
        grid, psi = _build_grid(sc), sc.initial_state
        noise = np.random.default_rng(4).normal(0, 0.5, (len(sc.channels), len(grid.durations), 3))
        exact = step_exponentials(sc, noise)
        read = interval_sums(grid, noise) if _path(sc, psi[None, :]).diagonal else noise
        assert np.max(np.abs(evolve(sc, read, 3) - exact @ psi)) < 1e-12
        states = propagate_trajectory(sc, noise[..., 0]).states
        assert np.max(np.abs(states - exact[:, 0] @ psi)) < 1e-12
        assert not states[:, np.setdiff1d(np.arange(len(psi)), code_block(sc))].any()
        u = trajectory_propagator(sc, noise[..., 0]).matrix
        assert np.max(np.abs(u - exact[-1, 0])) < 1e-12

    @pytest.mark.parametrize("dim", [2, 4])
    def test_step_propagators_match_expm(self, dim):
        # oracle: scipy's Pade expm, matrix by matrix; the stack holds random
        # Hermitian matrices, a multiple of the identity (Omega = 0, with
        # Omega half the eigenvalue spread), Omega = 1e-9, Omega = 1e-320 (whose
        # square, and so Omega * dt, underflows to 0) and Omega * dt > pi; a
        # 2-dim step is exp(-i m dt) [[p, -conj(q)], [q, conj(p)]] (_su2_step)
        from scipy.linalg import expm

        rng = np.random.default_rng(dim)
        a = rng.normal(size=(4, 6, dim, dim)) + 1j * rng.normal(size=(4, 6, dim, dim))
        h = (a + a.conj().swapaxes(-1, -2)) / 2
        h[0, 0] = 0.7 * np.eye(dim)
        h[0, 1] = -2.5 * np.eye(dim) + 1e-9 * np.diag(np.resize([1.0, -1.0], dim))
        h[0, 2] = 1e-320 * np.diag(np.resize([1.0, -1.0], dim))
        h[1] *= 8.0
        dt = np.array([[0.3], [1.1], [0.05], [2.0]])
        if dim == 2:
            d0, d1 = h[..., 0, 0].real, h[..., 1, 1].real
            m, z = (d0 + d1) / 2, (d0 - d1) / 2
            p, q = _su2_step(z, h[..., 1, 0].real, h[..., 1, 0].imag, dt)
            u = np.exp(-1j * m * dt)[..., None, None] * np.moveaxis(
                np.array([[p, -q.conj()], [q, p.conj()]]), (0, 1), (-2, -1))
        else:
            u = _step_propagators(h, dt)
        assert u.shape == h.shape
        width = np.ptp(np.linalg.eigvalsh(h), axis=-1) * dt
        assert width[0, 0] == 0 and 0 < width[0, 1] < 1e-8 and width[1].min() / 2 > np.pi
        assert 0 < width[0, 2] < 1e-300
        for i, j in np.ndindex(h.shape[:2]):
            assert np.max(np.abs(u[i, j] - expm(-1j * dt[i, 0] * h[i, j]))) < 1e-13

    @pytest.mark.parametrize("knob,value", [("slow_amplitude", 1e154), ("delta_omega", 1e155)])
    def test_overflow_is_refused_without_warnings(self, knob, value):
        # numpy's RuntimeWarnings fail the test (filterwarnings in pyproject.toml)
        sc = build_scenario("encoded_spin_boson", repetitions=2, ensemble_size=3, **{knob: value})
        for run in (propagate_trajectory, ensemble_coherence):
            with pytest.raises(ValidationError, match="not finite"):
                run(sc)

    def test_silent_channel_off_the_diagonal_path_is_a_zero_coupling(self):
        # encoded_depolarizing with its z channel at amplitude 0 has the curve of a
        # zero z coupling; both runs stay off the diagonal path
        sc = build_scenario("encoded_depolarizing", repetitions=2, ensemble_size=8, seed=3)
        z, x = sc.channels
        silent = dataclasses.replace(sc, channels=(dataclasses.replace(z, amplitude=0.0), x))
        zeroed = dataclasses.replace(sc, channels=(dataclasses.replace(z, coupling=Operator.zero(4)), x))
        curves = []
        for run in (silent, zeroed):
            assert not _path(run, run.initial_state[None, :]).diagonal
            curves.append(ensemble_coherence(run))
        assert np.max(np.abs(curves[0].mean - curves[1].mean)) < 1e-12
        assert np.max(np.abs(curves[0].std_error - curves[1].std_error)) < 1e-12

    @pytest.mark.parametrize("trace", [False, True], ids=["traceless", "trace"])
    @pytest.mark.parametrize("config", ["encoded_spin_boson", "encoded_depolarizing", "cp_x_symmetric",
                                        "long-interval", "four-dim"])
    def test_step_stream_does_not_depend_on_the_batch(self, monkeypatch, config, trace):
        # the steps are computed in batches across interval boundaries: batches of
        # 3, 7, 10 and 20 steps split the intervals (of 10 and 5 steps, under
        # cp_x_symmetric of 20 and 39 steps of two lengths, without pulses of 50 steps,
        # and of 40 on the 4-dim block, whose steps are eigh propagators), end on pulses
        # and on records and end between them; each gives the states of one-step batches
        sc = with_trace_part(path_case(config)) if trace else path_case(config)
        grid, noise = _build_grid(sc), sampled(sc, range(4), False)
        monkeypatch.setattr("aht.noise._BATCH_STEPS", 1)
        expected = evolve(sc, noise, 4)
        for batch in (3, 7, 10, 20, _BATCH_STEPS):
            monkeypatch.setattr("aht.noise._BATCH_STEPS", batch)
            assert np.array_equal(evolve(sc, noise, 4), expected)
        events = set(grid.ends)
        straddled = [b for b in (3, 7, 10, 20) if any(e % b for e in events)]
        at_ends = [b for b in (3, 7, 10, 20) if events & set(range(b, len(grid.durations), b))]
        assert straddled and at_ends and events & grid.record_steps
        assert events & grid.pulses.keys() or sc.schedule is None
        assert len(np.unique(grid.durations)) == 2 or config != "cp_x_symmetric"
        assert min(np.diff([0, *grid.ends])) > 3 * _BATCH_STEPS or config != "long-interval"

    @pytest.mark.parametrize("name,path", [("hybrid_dephasing", "diagonal"),
                                           ("encoded_spin_boson", "su2"),
                                           ("four_qubit_blockwise", "eigh")])
    def test_run_without_channels(self, name, path):
        # a run without channels reads no noise array on any of the three paths:
        # its curve is the observable under k noiseless cycle propagators, and
        # its propagator the cycle propagator's repetitions-th power
        sc = build_scenario(name, repetitions=3, ensemble_size=4, seed=3)
        h = sc.h_system
        if path == "eigh":  # an exchange between the two dfs2 blocks
            h = Operator(h.matrix + EXCHANGE)
        sc = dataclasses.replace(sc, h_system=h, channels=())
        plan = _path(sc, sc.initial_state[None, :])
        assert plan.diagonal == (path == "diagonal") and (len(plan.block) > 2) == (path == "eigh")
        u = cycle_propagator(h, sc.schedule).matrix
        states = [np.linalg.matrix_power(u, k) @ sc.initial_state for k in range(sc.repetitions + 1)]
        expected = [np.vdot(psi, sc.observable.matrix @ psi).real for psi in states]
        curve = ensemble_coherence(sc)
        assert np.max(np.abs(curve.mean - expected)) <= DEFAULT_TOL.equality
        assert np.max(curve.std_error) <= DEFAULT_TOL.equality
        full = trajectory_propagator(sc, np.zeros((0, len(_build_grid(sc).durations)))).matrix
        assert np.max(np.abs(full - np.linalg.matrix_power(u, sc.repetitions))) <= DEFAULT_TOL.equality


class TestEnsemble:
    def test_flat_curve_without_noise(self):
        sc = slow_only_scenario(slow_amplitude=0.0, ensemble_size=20)
        curve = ensemble_coherence(sc)
        assert np.allclose(curve.mean, 1.0, atol=1e-10)
        assert np.allclose(curve.std_error, 0.0, atol=1e-12)

    def test_gaussian_short_time_exponent(self):
        # oracle: cumulant expansion of Gaussian phase noise, exponent 2
        sc = slow_only_scenario(
            slow_amplitude=0.2, tau_slow=20.0, repetitions=4, ensemble_size=2000, seed=9
        )
        curve = ensemble_coherence(sc)
        mask = (curve.times > 0.3) & (curve.times <= 2.0)
        slope = np.polyfit(
            np.log(curve.times[mask]), np.log(-np.log(curve.mean[mask])), 1
        )[0]
        assert 1.8 <= slope <= 2.2

    def test_bit_reproducible(self):
        sc = slow_only_scenario(pulses=True, ensemble_size=64)
        a = ensemble_coherence(sc)
        b = ensemble_coherence(sc)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.std_error, b.std_error)

    def test_standard_error_scales_with_ensemble(self):
        small = ensemble_coherence(slow_only_scenario(ensemble_size=200))
        large = ensemble_coherence(slow_only_scenario(ensemble_size=400))
        ratio = np.mean(small.std_error[1:]) / np.mean(large.std_error[1:])
        assert 1.25 <= ratio <= 1.6

    def test_ensemble_density_matrix_is_physical(self):
        sc = slow_only_scenario(ensemble_size=40, pulses=True)
        states = []
        for k in range(8):
            states.append(propagate_trajectory(sc, trajectory=k).final_state)
        rho = sum(np.outer(s, s.conj()) for s in states) / len(states)
        assert np.allclose(rho, rho.conj().T, atol=1e-12)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-10

    @pytest.mark.parametrize("config", PINNED_DIGESTS)
    def test_pinned_bytes(self, config):
        assert digest(ensemble_coherence(pinned_scenario(config))) == PINNED_DIGESTS[config]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("config", DIAGONAL_CONFIGS)
    def test_mean_within_sampling_error_of_exact_gaussian(self, config, seed):
        # oracle: the exact Gaussian average, which never runs the simulator
        name, knobs = CONFIGS[config]
        sc = build_scenario(name, repetitions=2, ensemble_size=400, seed=seed, **knobs)
        curve = ensemble_coherence(sc)
        exact = exact_gaussian_mean(sc)
        assert np.all(np.abs(curve.mean - exact) <= 4.5 * curve.std_error + 1e-12)

    @pytest.mark.parametrize("pulses", [True, False])
    @pytest.mark.parametrize("name", ["encoded_spin_boson", "encoded_depolarizing"])
    def test_mean_within_sampling_error_of_quasi_static_average(self, name, pulses):
        # oracle for the non-diagonal path: at tau_slow = 1e9 the noise is a
        # static Gaussian vector, averaged exactly without the simulator
        knobs = dict(tau_slow=1e9, repetitions=4, slow_amplitude=0.3, ensemble_size=1000)
        exact = quasi_static_mean(build_scenario(name, pulses=pulses, **knobs))
        for seed in (1, 2):
            sc = build_scenario(name, pulses=pulses, seed=seed, **knobs)
            assert not _path(sc, sc.initial_state[None, :]).diagonal
            curve = ensemble_coherence(sc)
            assert np.all(np.abs(curve.mean - exact) <= 4.5 * curve.std_error + 1e-12)

    @pytest.mark.parametrize("name,pulses,tau,amplitude", TCL2_CASES)
    def test_mean_within_sampling_error_of_tcl2(self, name, pulses, tau, amplitude):
        # oracle for the non-diagonal path at finite tau: the second-order mean,
        # which holds to delta_2^2 at weak noise (delta_2 <= 0.05 here)
        knobs = dict(pulses=pulses, tau_slow=tau, slow_amplitude=amplitude, repetitions=8,
                     ensemble_size=500)
        exact, delta = tcl2_mean(build_scenario(name, **knobs))
        assert delta.max() <= 0.05
        for seed in (1, 2):
            curve = ensemble_coherence(build_scenario(name, seed=seed, **knobs))
            assert np.all(np.abs(curve.mean - exact) <= 4.5 * curve.std_error + delta**2)

    def test_csv_emission(self):
        sc = slow_only_scenario(ensemble_size=10)
        curve = ensemble_coherence(sc)
        text = curve.to_csv(sc.describe())
        lines = text.splitlines()
        assert lines[0].startswith("# {")
        assert lines[1] == "time_s,mean_coherence,std_error,n_traj"
        assert len(lines) == 2 + len(curve.times)


#: the encoded-vs-physical pair of ``PINNED_DIGESTS``: equal channel laws
PINNED_PAIR = ["hybrid_dephasing", "hybrid_dephasing-physical"]


def count_draws(monkeypatch) -> list:
    """Patch ``_draw`` to add the normals and the streams it draws to the returned pair."""
    counts, draw = [0, 0], _draw

    def counted(out, *args):
        counts[0] += out.size
        counts[1] += out.shape[0]
        draw(out, *args)
    monkeypatch.setattr("aht.noise._draw", counted)
    return counts


#: whole numbers of one to three 32-bit words, as seeds, channels and trajectories
WORDS = st.integers(min_value=0, max_value=2**70 - 1)


def global_rng_state() -> tuple:
    """``np.random``'s global (legacy) generator state, comparable with ``==``."""
    name, key, pos, has_gauss, gauss = np.random.get_state()
    return name, key.tobytes(), pos, has_gauss, gauss


def verify_runs(n, seed=2024):
    """The noise runs of ``aht verify``'s noise_suppression at ensemble ``n``: the
    coarse and fine suppression runs (6400 and 12800 steps) and the encoded and
    physical hybrid pair (6400 steps)."""
    suppression = dict(encoded=True, fast_amplitude=0.0, slow_amplitude=0.3, tau_slow=20.0,
                       omega1=1.0, omega2=0.6, ensemble_size=n, seed=seed, max_step=1.0 / 40)
    hybrid = dict(cycle_time=1.0, repetitions=16, fast_amplitude=1.0, slow_amplitude=0.3,
                  tau_fast=0.05, tau_slow=20.0, ensemble_size=n, seed=seed)
    return [build_scenario("hybrid_dephasing", cycle_time=1.0, repetitions=16, **suppression),
            build_scenario("hybrid_dephasing", cycle_time=0.5, repetitions=32, **suppression),
            *(build_scenario("hybrid_dephasing", encoded=e, **hybrid) for e in (True, False))]


#: ensemble sizes the grouped-sampling property draws: one trajectory, part of a
#: draw buffer, one full buffer, and past two
ENSEMBLES = (1, 4, _SUM_ROWS, 2 * _SUM_ROWS + 3)
#: (repetitions, max_step) of the grids it draws: one or two cycles, one under a step
#: cap, sixteen cycles, and sixteen of 1000 steps (16,000 steps in all)
GRIDS = ((1, None), (2, None), (1, 0.0013), (16, None), (16, 1e-3))


@st.composite
def scenario_lists(draw, grids=GRIDS) -> list:
    """1-4 library scenarios, on either path: each on one of ``grids``, pulses on or off,
    hybrid_dephasing encoded or physical, slow amplitude 0.1 or 0.3 and up to two
    channels silent (amplitude 0, correlation time kept); each takes the list's seed and
    ensemble size, or seed 7 and an ensemble size of its own."""
    shared = draw(st.sampled_from([3, 2**32 + 5])), draw(st.sampled_from(ENSEMBLES))
    scenarios = []
    for _ in range(draw(st.integers(1, 4))):
        name = draw(st.sampled_from(SCENARIO_NAMES))
        repetitions, max_step = draw(st.sampled_from(grids))
        seed, n = shared if draw(st.booleans()) else (7, draw(st.sampled_from(ENSEMBLES)))
        knobs = {"seed": seed, "ensemble_size": n,
                 "repetitions": repetitions, "pulses": draw(st.booleans()),
                 "slow_amplitude": draw(st.sampled_from([0.1, 0.3]))}
        if max_step is not None:
            knobs["max_step"] = max_step
        if name == "hybrid_dephasing":
            knobs["encoded"] = draw(st.booleans())
        sc = build_scenario(name, **knobs)
        silent = draw(st.sets(st.sampled_from(range(len(sc.channels))), max_size=2))
        channels = [dataclasses.replace(ch, amplitude=0.0) if c in silent else ch
                    for c, ch in enumerate(sc.channels)]
        scenarios.append(dataclasses.replace(sc, channels=tuple(channels)))
    return scenarios


def sampling_groups(scenarios, limit) -> list:
    """The groups ``ensemble_coherences`` samples together, by its documented rule: a
    scenario off the diagonal path alone; one on it in the last group of its seed and
    ensemble size, while ``_noise_bytes`` of that group stays within ``limit``."""
    groups, last = [], {}
    for i, sc in enumerate(scenarios):
        key = (sc.seed, sc.ensemble_size) if sc.name in DIAGONAL_NAMES else i
        if key not in last or _noise_bytes(sc.ensemble_size, [*last[key], sc], True) > limit:
            last[key] = []
            groups.append(last[key])
        last[key].append(sc)
    return groups


def watched_call(patch, scenarios) -> tuple:
    """``ensemble_coherences(scenarios)`` with ``patch`` wrapping ``_draw``, ``_sampled``
    and ``DecayCurve``: the curves; the streams seeded (rows drawn); for each run, the
    blocks its noise arrays are rows of, as weak references by id; and at each curve's
    reduction, the ids of those blocks then alive."""
    streams, reads, alive = [0], [], []
    draw, sample, curve = _draw, _sampled, DecayCurve

    def drawn(out, *args):
        streams[0] += len(out)
        draw(out, *args)

    def read(pair):
        blocks = [x if x.base is None else x.base for x in pair[1]]
        reads.append({id(b): weakref.ref(b) for b in blocks})
        return pair

    def reduced(*args):
        alive.append({i for run in reads for i, ref in run.items() if ref() is not None})
        return curve(*args)

    patch.setattr("aht.noise._draw", drawn)
    patch.setattr("aht.noise._sampled", lambda *args: map(read, sample(*args)))
    patch.setattr("aht.noise.DecayCurve", reduced)
    return ensemble_coherences(scenarios), streams[0], reads, alive


def sampling_peak(runs, diagonal, n) -> int:
    """The ``tracemalloc`` peak of ``_sampled`` drawing ``runs`` as one group of ``n``
    trajectories, after a one-trajectory call has made numpy's first-call allocations."""
    next(_sampled(runs, diagonal, range(1)))
    tracemalloc.start()
    try:
        next(_sampled(runs, diagonal, range(n)))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def curve_bytes(curve) -> tuple:
    """A curve's times, mean and standard error as bytes, and its trajectory count."""
    return curve.times.tobytes(), curve.mean.tobytes(), curve.std_error.tobytes(), curve.n_traj


def assert_sampling_contract(scenarios, split=None) -> list:
    """Assert clauses (a), (b) and (d) of ``ensemble_coherences``' contract on ``scenarios``,
    whatever the sampler does inside, and return its curves ((c), the memory, is
    ``test_grouped_sampling_peaks_within_its_count``'s). ``split`` sets the size limit to
    the count of the first ``split`` scenarios as one group (None keeps it); the groups
    follow from public fields and ``_noise_bytes``."""
    limit = _MAX_NOISE_BYTES if split is None else _noise_bytes(
        scenarios[0].ensemble_size, scenarios[:split], True)
    apart = [curve_bytes(ensemble_coherence(sc)) for sc in scenarios]  # also warms numpy up
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("aht.noise._MAX_NOISE_BYTES", limit)
        curves, streams, reads, alive = watched_call(patch, scenarios)
    groups = sampling_groups(scenarios, limit)
    # (a) each curve is the one it has apart, byte for byte
    assert [curve_bytes(c) for c in curves] == apart
    # (b) a group seeds each (seed, channel, trajectory) stream a run of it draws
    # once: its trajectories times its channels of nonzero amplitude in some run
    assert streams == sum(g[0].ensemble_size * len(
        {c for sc in g for c, ch in enumerate(sc.channels) if ch.amplitude}) for g in groups)
    # (d) at a curve's reduction a block is alive only if a later run reads it,
    # and none outlives the call
    for k, ids in enumerate(alive):
        assert ids <= set().union(*reads[k + 1:])
    assert not any(ref() is not None for run in reads for ref in run.values())
    return curves


class TestSharedNoise:
    def test_pinned_configurations_in_one_call_give_their_pinned_digests(self):
        # the three diagonal ones sample together, the two off it apart
        curves = ensemble_coherences([pinned_scenario(config) for config in PINNED_DIGESTS])
        assert [digest(c) for c in curves] == list(PINNED_DIGESTS.values())

    @given(scenarios=scenario_lists(), split=st.none() | st.integers(1, 4))
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_grouped_curves_keep_the_sampling_contract(self, scenarios, split):
        assert_sampling_contract(scenarios, split)

    @given(scenarios=scenario_lists(grids=((16, 1e-3),)))
    @example(scenarios=verify_runs(2 * _SUM_ROWS + 3))
    @example(scenarios=[build_scenario("encoded_spin_boson", pulses=False, max_step=1e-3,
                                       ensemble_size=1)])
    @example(scenarios=[build_scenario("hybrid_dephasing", encoded=e, max_step=1e-3, ensemble_size=1)
                        for e in (True, False, True, False)])
    @settings(max_examples=5, deadline=None, derandomize=True)
    def test_grouped_sampling_peaks_within_its_count(self, scenarios):
        # (c) each group's sampling peaks within 1.1 times the _noise_bytes count
        # that admits it, on grids where the count binds: 16,000 steps, and verify's
        # 6400 and 12800 (runs of equal laws build a grid each). On the 20- to
        # 800-step grids a group's interpreter objects alone, a few KiB, pass a
        # tenth of the count, and test_noise_size_bound leaves no room to count them
        for g in sampling_groups(scenarios, _MAX_NOISE_BYTES):
            diagonal, n = g[0].name in DIAGONAL_NAMES, g[0].ensemble_size
            assert sampling_peak(g, diagonal, n) <= 1.1 * _noise_bytes(n, g, diagonal)

    def test_silent_run_holds_no_draw_buffer(self):
        # both channels silent on 12,320 steps at ensemble 131: nothing is drawn, so no
        # draw buffer of 64 x 12,320 normals (6.3 MB) is allocated
        sc = build_scenario("encoded_spin_boson", pulses=False, max_step=0.0013,
                            ensemble_size=2 * _SUM_ROWS + 3)
        sc = dataclasses.replace(sc, channels=tuple(
            dataclasses.replace(ch, amplitude=0.0) for ch in sc.channels))
        assert len(_build_grid(sc).durations) == 12320
        assert sampling_peak([sc], False, sc.ensemble_size) < 2**20

    # named configurations of the contract: each asserts (a), (b) and (d), and
    # pinned digests where the run is a pinned one

    def test_pair_in_one_call_gives_both_pinned_digests(self):
        curves = assert_sampling_contract([pinned_scenario(config) for config in PINNED_PAIR])
        assert [digest(c) for c in curves] == [PINNED_DIGESTS[config] for config in PINNED_PAIR]

    def test_verify_runs_in_one_call_match_separate_calls(self):
        # coarse and the pair read the first 6400 normals of the streams fine draws to 12800
        scenarios = verify_runs(9)
        assert [len(_build_grid(sc).durations) for sc in scenarios] == [6400, 12800, 6400, 6400]
        assert_sampling_contract(scenarios)

    def test_verify_suite_draws_each_stream_once(self, monkeypatch):
        # at ensemble n: 3 streams a trajectory for the verify runs above (channel 0 is
        # silent in coarse and fine, not in the pair), and one for each of the 4
        # one-trajectory invariance runs on one channel
        n = 5
        draws = count_draws(monkeypatch)
        run_suite(2024, n)
        assert draws[1] == 3 * n + 4

    @pytest.mark.parametrize("split", [1, 2, 3])
    def test_group_splits_past_the_size_limit(self, split):
        # a limit that admits the first `split` of coarse, fine and the pair's encoded
        # run as one group, no more: the group splits, and every curve keeps its bytes
        assert_sampling_contract(verify_runs(3), split)

    def test_scenarios_off_the_diagonal_path_sample_apart(self):
        # two encoded_spin_boson runs of one seed and ensemble size, on 320 and 800
        # steps: each draws its own streams, and the first's noise is freed before
        # the second's is drawn
        assert_sampling_contract([
            build_scenario("encoded_spin_boson", repetitions=4, ensemble_size=5, seed=6, **knobs)
            for knobs in ({}, {"max_step": 0.02})])

    @pytest.mark.parametrize("knob,value", [("seed", 30), ("ensemble_size", 17)])
    def test_different_seed_or_ensemble_size_samples_apart(self, knob, value):
        curves = assert_sampling_contract([pinned_scenario(PINNED_PAIR[0]),
                                           pinned_scenario(PINNED_PAIR[1], **{knob: value})])
        assert digest(curves[0]) == PINNED_DIGESTS[PINNED_PAIR[0]]

    def test_different_grid_shares_the_streams(self):
        # 800 and 1000 steps in one group
        curves = assert_sampling_contract([pinned_scenario(PINNED_PAIR[0]),
                                           pinned_scenario(PINNED_PAIR[1], max_step=0.002)])
        assert digest(curves[0]) == PINNED_DIGESTS[PINNED_PAIR[0]]

    def test_non_diagonal_scenario_between_diagonal_ones(self):
        # the middle one samples on its own; the third joins the first's group
        configs = ["hybrid_dephasing", "encoded_spin_boson", "hybrid_dephasing-physical"]
        curves = assert_sampling_contract([pinned_scenario(c) for c in configs])
        assert [digest(c) for c in curves] == [PINNED_DIGESTS[c] for c in configs]

    def test_no_noise_is_kept_between_calls(self):
        # each call seeds the pair's streams anew, and frees them
        scenarios = [pinned_scenario(config) for config in PINNED_PAIR]
        first, second = assert_sampling_contract(scenarios), assert_sampling_contract(scenarios)
        assert [curve_bytes(c) for c in first] == [curve_bytes(c) for c in second]

    def test_noise_is_freed_after_the_last_propagation_that_reads_it(self):
        # the diagonal group of the first three; the last two sample on their own,
        # though their laws are equal (a drift is not part of one)
        assert_sampling_contract([pinned_scenario("hybrid_dephasing"),
                                  pinned_scenario("hybrid_dephasing", max_step=0.002),
                                  pinned_scenario("hybrid_dephasing-physical"),
                                  pinned_scenario("encoded_spin_boson"),
                                  pinned_scenario("encoded_spin_boson", j_drift=0.5)])

    def test_draw_is_the_seed_sequence_of_the_list(self):
        # _draw hands SeedSequence the uint32 words numpy makes of [seed, channel,
        # i]: the same normals, also for whole numbers of more than one word
        values = [0, 2**32 - 1, 2**32, 2**64 + 3]
        out = np.empty((len(values), 40))
        for seed, channel in itertools.product(values, (0, 5)):
            _draw(out, seed, channel, values)
            for row, i in zip(out, values):
                rng = np.random.default_rng(np.random.SeedSequence([seed, channel, i]))
                assert np.array_equal(row, rng.standard_normal(40))

    @given(seed=WORDS, channel=WORDS, trajectories=st.lists(WORDS, max_size=6))
    @example(seed=2**32 - 1, channel=2**32, trajectories=[0, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 3])
    @example(seed=2**64 - 1, channel=2**64 + 3, trajectories=[2**32, 7, 2**64 - 1])
    @example(seed=2**64 + 3, channel=2**32 - 1, trajectories=[])
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_draw_rows_are_fresh_seed_sequence_generators(self, seed, channel, trajectories):
        # _draw sets one PCG64 per call from each row's SeedSequence pool: every
        # row is the fresh generator's, bit for bit, for rows of any word counts
        # in one block, and np.random's global generator is not touched
        before = global_rng_state()
        out = np.empty((len(trajectories), 9))
        _draw(out, seed, channel, trajectories)
        for row, i in zip(out, trajectories):
            rng = np.random.default_rng(np.random.SeedSequence([seed, channel, i]))
            assert np.array_equal(row, rng.standard_normal(9))
        assert global_rng_state() == before

    def test_a_longer_draw_begins_with_the_shorter_one(self):
        # the sharing rests on this numpy property: a stream's first normals do
        # not depend on how many are drawn, also into a row of a wider buffer
        trajectories = [0, 7, 499]
        short, wide = np.empty((3, 6400)), np.empty((3, 12801))
        for seed, channel in [(2024, 0), (2024, 2), (11, 1)]:
            _draw(short, seed, channel, trajectories)
            _draw(wide[:, :12800], seed, channel, trajectories)
            assert np.array_equal(wide[:, :6400], short)
            for row, i in zip(wide, trajectories):
                rng = np.random.default_rng(np.random.SeedSequence([seed, channel, i]))
                assert np.array_equal(row[:12800], rng.standard_normal(12800))

    def test_each_curve_is_an_ensemble_coherence_call(self, monkeypatch):
        # a wrapper of the module's ensemble_coherence sees every scenario, in
        # group order, and a group is drawn inside its first run's call
        scenarios = [*verify_runs(3), pinned_scenario("encoded_spin_boson")]
        apart = [digest(ensemble_coherence(sc)) for sc in scenarios]
        seen, streams, draws = [], [], count_draws(monkeypatch)

        def wrapped(scenario, **kwargs):
            before = draws[1]
            curve = ensemble_coherence(scenario, **kwargs)
            seen.append(scenario)
            streams.append(draws[1] - before)
            return curve

        monkeypatch.setattr("aht.noise.ensemble_coherence", wrapped)
        assert [digest(c) for c in ensemble_coherences(scenarios)] == apart
        assert len(seen) == 5 and all(a is b for a, b in zip(seen, scenarios))
        assert streams == [3 * 3, 0, 0, 0, 2 * 16]

    def test_empty_list(self):
        assert ensemble_coherences([]) == []


#: ``describe()`` of every library scenario at its defaults, as recorded
#: before the four scenario constructors were merged into one.
LIBRARY_DEFAULTS = {
    "hybrid_dephasing": {
        "name": "hybrid_dephasing", "seed": 2024, "ensemble_size": 500, "total_time": 16.0,
        "repetitions": 16, "schedule": "cp_x", "cycle_time": 1.0, "code": "dfs2",
        "channels": [
            {"kind": "collective_fast", "amplitude": 1.0, "correlation_time": 0.05, "coupling": "S_z"},
            {"kind": "independent_slow", "amplitude": 0.1, "correlation_time": 20.0, "coupling": "1*ZI"},
            {"kind": "independent_slow", "amplitude": 0.1, "correlation_time": 20.0, "coupling": "1*IZ"},
        ],
        "encoded": True,
    },
    "encoded_spin_boson": {
        "name": "encoded_spin_boson", "seed": 2024, "ensemble_size": 500, "total_time": 16.0,
        "repetitions": 16, "schedule": "cp_x", "cycle_time": 1.0, "code": "dfs2",
        "channels": [
            {"kind": "independent_slow", "amplitude": 0.1, "correlation_time": 20.0, "coupling": "1*ZI"},
            {"kind": "independent_slow", "amplitude": 0.1, "correlation_time": 20.0, "coupling": "1*IZ"},
        ],
    },
    "encoded_depolarizing": {
        "name": "encoded_depolarizing", "seed": 2024, "ensemble_size": 500, "total_time": 16.0,
        "repetitions": 16, "schedule": "gmax_cycle", "cycle_time": 1.0, "code": "dfs2",
        "channels": [
            {"kind": "logical", "amplitude": 0.1, "correlation_time": 20.0, "coupling": None},
            {"kind": "logical", "amplitude": 0.1, "correlation_time": 20.0, "coupling": None},
        ],
    },
    "four_qubit_blockwise": {
        "name": "four_qubit_blockwise", "seed": 2024, "ensemble_size": 500, "total_time": 16.0,
        "repetitions": 16, "schedule": "cp_x", "cycle_time": 1.0, "code": "dfs2x2",
        "channels": [
            {"kind": "collective_fast", "amplitude": 1.0, "correlation_time": 0.05, "coupling": "S_z(1,2)"},
            {"kind": "collective_fast", "amplitude": 1.0, "correlation_time": 0.05, "coupling": "S_z(3,4)"},
            {"kind": "independent_slow", "amplitude": 0.1, "correlation_time": 20.0, "coupling": "1*ZIII"},
            {"kind": "independent_slow", "amplitude": 0.1, "correlation_time": 20.0, "coupling": "1*IZII"},
            {"kind": "independent_slow", "amplitude": 0.1, "correlation_time": 20.0, "coupling": "1*IIZI"},
            {"kind": "independent_slow", "amplitude": 0.1, "correlation_time": 20.0, "coupling": "1*IIIZ"},
        ],
        "omegas": (1.0, 0.7, 0.4, 0.2),
    },
}


class TestScenarioLibrary:
    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            build_scenario("telegraph")

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_describe_at_defaults(self, name):
        assert build_scenario(name).describe() == LIBRARY_DEFAULTS[name]

    @pytest.mark.parametrize(
        "name,foreign",
        [
            ("hybrid_dephasing", "delta_omega"),
            ("encoded_spin_boson", "fast_amplitude"),
            ("encoded_depolarizing", "encoded"),
            ("four_qubit_blockwise", "omega1"),
        ],
    )
    def test_unknown_knobs_rejected(self, name, foreign):
        # a misspelt shared knob, and a knob that only another scenario reads
        for knob in ("slow_amplitud", foreign):
            with pytest.raises(ValidationError, match=knob):
                build_scenario(name, **{knob: 0.3})

    def test_accepted_knobs_echoed(self):
        sc = build_scenario("encoded_spin_boson", slow_amplitude=0.2, j_drift=1, tau_slow=5.0)
        assert sc.params == {"slow_amplitude": 0.2, "j_drift": 1}
        sc = build_scenario("four_qubit_blockwise", omegas=[1.0, 0.5, 0.25, 0.0])
        assert sc.params == {"omegas": (1.0, 0.5, 0.25, 0.0)}

    @pytest.mark.parametrize(
        "omegas", [[1.0, 0.5], [1.0, 0.7, 0.4, 0.2, 0.1], "abcd", [1, 2, 3, None]]
    )
    def test_omegas_need_four_numbers(self, omegas):
        with pytest.raises(ValidationError, match="omegas"):
            build_scenario("four_qubit_blockwise", omegas=omegas)

    @pytest.mark.parametrize("size", [0, -3, True, 2.5])
    def test_rejects_empty_ensemble(self, size):
        # as a knob and when built directly: a boolean or a fraction is no size either
        with pytest.raises(ValidationError, match="ensemble_size"):
            build_scenario("hybrid_dephasing", ensemble_size=size)
        sc = build_scenario("hybrid_dephasing", repetitions=2, ensemble_size=4)
        with pytest.raises(ValidationError, match="ensemble_size"):
            dataclasses.replace(sc, ensemble_size=size)

    @pytest.mark.parametrize(
        "knob,step",
        [*(("max_step", step) for step in (0, -1.0, True, "x")),
         ("slow_amplitude", -1), ("fast_amplitude", -1)],
        ids=["0", "-1.0", "True", "x", "slow_amplitude", "fast_amplitude"],
    )
    def test_rejects_nonpositive_max_step(self, knob, step):
        # as a knob and when built directly: a boolean or a string is no step either;
        # a negative amplitude knob is refused under the knob's name, not the channel's
        with pytest.raises(ValidationError, match=knob):
            build_scenario("hybrid_dephasing", **{knob: step})
        if knob == "max_step":
            sc = build_scenario("hybrid_dephasing", ensemble_size=1, pulses=False)
            with pytest.raises(ValidationError, match="max_step"):
                dataclasses.replace(sc, max_step=step)

    @pytest.mark.parametrize("value", [float("nan"), np.inf, "x", None, True])
    @pytest.mark.parametrize("field", ["correlation_time", "amplitude"])
    def test_channel_rejects_nonfinite(self, field, value):
        # nor a string, None or a boolean
        ch = build_scenario("hybrid_dephasing", ensemble_size=1).channels[0]
        with pytest.raises(ValidationError, match=field):
            dataclasses.replace(ch, **{field: value})

    def test_channel_reads_a_matrix_coupling(self):
        # a matrix is read as an Operator of its entries; an Operator is kept, label and all
        ch = build_scenario("hybrid_dephasing", ensemble_size=1).channels[0]
        assert dataclasses.replace(ch, amplitude=0.5).coupling is ch.coupling
        from_matrix = dataclasses.replace(ch, coupling=ch.coupling.matrix).coupling
        assert from_matrix.label is None and np.array_equal(from_matrix.matrix, ch.coupling.matrix)
        for bad in ("x", np.ones((2, 4)), None):
            with pytest.raises(ValidationError, match="operator must be a square matrix"):
                dataclasses.replace(ch, coupling=bad)

    @pytest.mark.parametrize("value", [float("nan"), True, "x"])
    def test_rejects_nan_total_time(self, value):
        # nor a boolean or a string; a number is stored as a float
        sc = build_scenario("hybrid_dephasing", ensemble_size=1, pulses=False)
        with pytest.raises(ValidationError, match="total_time"):
            dataclasses.replace(sc, total_time=value)
        replaced = dataclasses.replace(sc, total_time=2, max_step=1)
        assert type(replaced.total_time) is float and type(replaced.max_step) is float

    @pytest.mark.parametrize(
        "knobs",
        [{}, {"pulses": False}, {"max_step": 0.0013}, {"repetitions": 3, "cycle_time": 0.37}],
        ids=["pulsed", "free", "max_step", "short_cycles"],
    )
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_noise_size_bound(self, name, knobs):
        # the bound counts the bytes of the sampler of the run's path: off the
        # diagonal path channels x trajectories x grid steps samples plus a
        # draw buffer of _SUM_ROWS trajectories and 4 step-length words, on it
        # channels x trajectories x intervals sums plus (2 _SUM_ROWS + 10)
        # step-length vectors; the largest ensemble under the limit is
        # accepted, one more is not; neither allocates anything
        sc = build_scenario(name, ensemble_size=1, **knobs)
        grid = _build_grid(sc)
        steps, values = len(grid.durations), _MAX_NOISE_BYTES // 8
        if name in ("hybrid_dephasing", "four_qubit_blockwise"):  # the diagonal ones
            fits = (values - (2 * _SUM_ROWS + 10) * steps) // (len(sc.channels) * len(grid.ends))
        else:  # the samples, a draw buffer of _SUM_ROWS trajectories and the step law
            fits = (values - (_SUM_ROWS + 4) * steps) // (len(sc.channels) * steps)
        assert fits >= _SUM_ROWS
        assert build_scenario(name, ensemble_size=fits, **knobs).ensemble_size == fits
        with pytest.raises(ValidationError, match="bytes of noise"):
            build_scenario(name, ensemble_size=fits + 1, **knobs)

    def test_small_ensembles_count_the_interval_sampler(self):
        # one trajectory on 40 million steps: its 3 channels' samples take
        # 0.96 GB, under the limit, but the interval sampler's buffer, product
        # and weights take 12 step-length vectors, 3.84 GB, so it is refused
        knobs = {"ensemble_size": 1, "pulses": False, "max_step": 4e-7}
        with pytest.raises(ValidationError, match="bytes of noise"):
            build_scenario("hybrid_dephasing", **knobs)
        coarse = build_scenario("hybrid_dephasing", **{**knobs, "max_step": 4e-5})
        assert coarse.ensemble_size == 1  # the same run on a coarser grid is accepted

    def test_size_check_counts_only_the_path_sampler(self):
        # 21000 trajectories on 6400 steps: hybrid_dephasing's 3 channels would
        # take 3.2 GB of per-step samples, but its diagonal path needs 16 MB of
        # sums and 7 MB of work space, so it is admitted; encoded_spin_boson's
        # 2 channels on the same grid are not diagonal and need 2.15 GB, plus
        # 3.3 MB of draw buffer (64 trajectories) and 0.2 MB of grid and step law
        knobs = {"ensemble_size": 21000, "max_step": 0.0025}
        sc = build_scenario("hybrid_dephasing", **knobs)
        assert len(_build_grid(sc).durations) == 6400
        assert 8 * len(sc.channels) * sc.ensemble_size * 6400 > _MAX_NOISE_BYTES
        with pytest.raises(ValidationError, match="run needs 2153881600 bytes of noise"):
            build_scenario("encoded_spin_boson", **knobs)

    @pytest.mark.parametrize(
        "knobs",
        [{"repetitions": 10**9}, {"max_step": 1e-300}, {"max_step": 5e-324},
         {"ensemble_size": 10**15}, {"ensemble_size": 10**400}, {"tau_fast": 1e-300}],
    )
    def test_oversized_runs_rejected_before_allocation(self, knobs):
        # step counts past any grid, also where a float count would overflow
        with pytest.raises(ValidationError, match="bytes of noise"):
            build_scenario("hybrid_dephasing", **knobs)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, 2.5])
    def test_rejects_negative_seed_when_built_directly(self, seed):
        # build_scenario checks its seed knob; a replaced seed is checked too
        sc = build_scenario("hybrid_dephasing", repetitions=2, ensemble_size=4)
        with pytest.raises(ValidationError, match="seed"):
            dataclasses.replace(sc, seed=seed)

    @pytest.mark.parametrize("pulses,value", [(True, True), (True, 2.5), (True, _MAX_NOISE_BYTES // 8 + 1),
                                              (True, 10**400), (False, -3)],
                             ids=["True", "2.5", "past-the-bound", "overflow", "negative"])
    def test_rejects_fractional_repetitions_when_built_directly(self, pulses, value):
        # nor a count past _MAX_NOISE_BYTES // 8, the knob's bound, refused before its float
        # product with the cycle time overflows, nor one below 0, also without a schedule
        sc = build_scenario("hybrid_dephasing", repetitions=2, ensemble_size=4, pulses=pulses)
        with pytest.raises(ValidationError, match="repetitions must") as direct:
            dataclasses.replace(sc, repetitions=value)
        # the knob reads the same rule: the same message
        with pytest.raises(ValidationError, match=re.escape(str(direct.value))):
            build_scenario("hybrid_dephasing", repetitions=value, ensemble_size=4, pulses=pulses)

    @pytest.mark.parametrize("field,value", [("seed", 3.0), ("ensemble_size", 4.0), ("repetitions", 2.0)])
    def test_whole_floats_are_stored_as_ints_when_built_directly(self, field, value):
        # the seed 3.0, the ensemble size 4.0 and 2.0 repetitions are 3, 4 and 2,
        # and run as them
        sc = build_scenario("hybrid_dephasing", repetitions=2, ensemble_size=4, seed=3)
        replaced = dataclasses.replace(sc, **{field: value})
        assert type(getattr(replaced, field)) is int and getattr(replaced, field) == value
        assert digest(ensemble_coherence(replaced)) == digest(ensemble_coherence(sc))

    def test_rejects_non_hermitian_observable(self):
        sc = build_scenario("hybrid_dephasing", ensemble_size=1)
        with pytest.raises(ValidationError, match="Hermitian"):
            dataclasses.replace(sc, observable=Operator(np.diag(np.ones(3), 1)))

    def test_rejects_initial_state_without_unit_norm(self):
        sc = build_scenario("hybrid_dephasing", ensemble_size=1)
        for state in (np.zeros(4), [np.nan, 0, 0, 0], [2, 0, 0, 0]):
            with pytest.raises(ValidationError, match="norm 1"):
                dataclasses.replace(sc, initial_state=np.asarray(state, dtype=complex))

    def test_schedule_total_time_consistency_enforced(self):
        code = build_code("dfs2")
        with pytest.raises(ValidationError):
            NoiseScenario(
                name="bad",
                h_system=Operator.zero(4),
                channels=(),
                code=code,
                schedule=named_sequence("cp_x", code=code, cycle_time=1.0, physical=True),
                repetitions=3,
                ensemble_size=10,
                total_time=2.0,
                seed=0,
                initial_state=code.plus_state(),
                observable=code.observable("x"),
            )

    def test_encoded_depolarizing_annihilates_both_channels(self):
        from aht.decoupling import average_zeroth, frames_from_scheme

        sc = build_scenario("encoded_depolarizing", ensemble_size=10)
        frames = frames_from_scheme(sc.schedule)
        for ch in sc.channels:
            avg = average_zeroth(ch.coupling, frames)
            assert np.max(np.abs(avg.matrix)) < 1e-10

    def test_encoded_depolarizing_suppression(self):
        free = build_scenario(
            "encoded_depolarizing", pulses=False, slow_amplitude=0.3, repetitions=8,
            ensemble_size=150, seed=3,
        )
        driven = build_scenario(
            "encoded_depolarizing", pulses=True, slow_amplitude=0.3, repetitions=8,
            ensemble_size=150, seed=3,
        )
        assert final_error(ensemble_coherence(driven)) < 0.3 * final_error(ensemble_coherence(free))

    def test_encoded_spin_boson_drift_is_logical(self):
        from aht.codes import logical_action

        sc = build_scenario("encoded_spin_boson", delta_omega=0.4, j_drift=0.3, ensemble_size=10)
        act = logical_action(sc.h_system, build_code("dfs2"))
        assert act.preserves_code
        expected = 0.4 * np.diag([1.0, -1.0]) + 0.3 * np.array([[0, 1], [1, 0]])
        assert np.allclose(act.logical_part.matrix, expected, atol=1e-12)

    def test_four_qubit_blockwise_protects_block_collective(self):
        sc = build_scenario(
            "four_qubit_blockwise", slow_amplitude=0.0, fast_amplitude=2.0,
            omegas=(0.5, 0.5, 0.5, 0.5), repetitions=2, ensemble_size=1, pulses=False, seed=1,
        )
        res = propagate_trajectory(sc)
        assert np.array_equal(res.final_state, sc.initial_state)

    def test_error_generators_restrict_to_logical_z(self):
        code = build_code("dfs2")
        z_l = code.observable("z").matrix
        r1 = code.restrict(single_qubit("Z", 1, 2))
        r2 = code.restrict(single_qubit("Z", 2, 2))
        assert np.array_equal(r1, code.restrict(z_l))
        assert np.array_equal(r1, -r2)
