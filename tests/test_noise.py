"""Stochastic dephasing engine: OU statistics, propagation, ensembles."""
import dataclasses
import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from aht.codes import build_code
from aht.config import _MAX_NOISE_BYTES, ValidationError
from aht.decoupling import named_sequence
from aht.noise import (
    _BATCH_STEPS,
    _OU_BLOCK,
    _SUM_ROWS,
    SCENARIO_NAMES,
    NoiseScenario,
    _build_grid,
    _channel_noise,
    _evolve,
    _interval_noise,
    _ou_in_place,
    _path,
    _reachable_block,
    _run,
    _step_propagators,
    _su2_step,
    build_scenario,
    ensemble_coherence,
    final_error,
    propagate_trajectory,
    trajectory_propagator,
)
from aht.operators import Operator, expm, single_qubit


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
    """``_ou_in_place`` at tau_c = 1 on seeded standard-normal draws."""
    x = np.random.default_rng(seed).standard_normal((n_traj, len(gaps) + 1))
    _ou_in_place(x, *ou_law(amplitude, 1.0, gaps))
    return x


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
#: (see ``test_batched_steps_match_per_step_eigh``); ``hybrid_dephasing-physical``
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


#: configurations whose drift and couplings are diagonal, so that
#: ``_evolve`` takes one phase update per event interval
DIAGONAL_CONFIGS = [
    config for config, (name, _) in CONFIGS.items()
    if name in ("hybrid_dephasing", "four_qubit_blockwise")
]
#: the others, whose steps take the exponential of a frozen Hamiltonian
EIGH_CONFIGS = [config for config in CONFIGS if config not in DIAGONAL_CONFIGS]


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
    """Per-step samples ``(channels, rows, steps)`` summed over each interval of
    the grid, weighted by the step lengths: what the diagonal path reads."""
    bounds = [0, *grid.ends]
    return np.stack([
        np.sum(noise[:, :, a:b] * grid.durations[a:b], axis=-1) for a, b in zip(bounds, bounds[1:])
    ], axis=-1)


def evolve(sc, noise, rows):
    """``_evolve`` of ``rows`` copies of the initial state under ``noise``."""
    psi = np.tile(sc.initial_state, (rows, 1))
    return _evolve(_path(sc, psi), noise, psi, _build_grid(sc))


def code_block(sc):
    """The basis indices ``_evolve`` propagates for the scenario's initial state."""
    generators = [sc.h_system.matrix, *(ch.coupling.matrix for ch in sc.channels)]
    generators += _build_grid(sc).pulses.values()
    return _reachable_block(sc.initial_state[None, :], generators)


def per_step_reference(sc, noise):
    """The diagonal path one step at a time on the full space: every step
    multiplies by ``exp(-i dt (h0 + sum_c x_c coupling_c))``."""
    grid = _build_grid(sc)
    d0 = np.diag(sc.h_system.matrix).real
    dc = [np.diag(ch.coupling.matrix).real for ch in sc.channels]
    psi = sc.initial_state
    states = [psi]
    for k, dt in enumerate(grid.durations):
        psi = np.exp(-1j * dt * (d0 + sum(x[k] * d for x, d in zip(noise, dc)))) * psi
        if k + 1 in grid.pulses:
            psi = grid.pulses[k + 1] @ psi
        if k + 1 in grid.record_steps:
            states.append(psi)
    return np.array(states)


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


def per_step_eigh_reference(sc, noise):
    """The non-diagonal path one step at a time on the full space: per step,
    one batched ``eigh`` of ``h0 + sum_c x_c coupling_c`` over the noise
    rows of ``noise`` ``(channels, rows, steps)``; returns ``(records, rows, dim)``."""
    grid = _build_grid(sc)
    couplings = [ch.coupling.matrix for ch in sc.channels]
    psi = np.tile(sc.initial_state, (noise.shape[1], 1))
    states = [psi]
    for k, dt in enumerate(grid.durations):
        h = sc.h_system.matrix + sum(x[:, k, None, None] * c for x, c in zip(noise, couplings))
        evals, vecs = np.linalg.eigh(h)
        amp = np.einsum("tji,tj->ti", vecs.conj(), psi) * np.exp(-1j * evals * dt)
        psi = np.einsum("tij,tj->ti", vecs, amp)
        if k + 1 in grid.pulses:
            psi = psi @ grid.pulses[k + 1].T
        if k + 1 in grid.record_steps:
            states.append(psi)
    return np.array(states)


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

    @pytest.mark.parametrize("steps", [1, 2, _OU_BLOCK - 1, _OU_BLOCK, _OU_BLOCK + 1, 2 * _OU_BLOCK + 3])
    @pytest.mark.parametrize("rows", [1, 7, 500])
    def test_block_walk_matches_column_recursion(self, steps, rows):
        # every block edge of the in-place walk, bit for bit against the plain loop
        rng = np.random.default_rng([steps, rows])
        grids = {
            "uniform": np.full(steps - 1, 0.01),
            "alternating": np.resize([0.05, 0.15], steps - 1),
            "random": rng.uniform(1e-3, 0.5, steps - 1),
        }
        for gaps in grids.values():
            draws = rng.standard_normal((rows, steps))
            x = draws.copy()
            _ou_in_place(x, *ou_law(0.7, 0.3, gaps))
            assert np.array_equal(x, ou_reference(0.7, 0.3, gaps, draws))

    @pytest.mark.parametrize("name", ["hybrid_dephasing", "encoded_depolarizing"])
    def test_samples_take_the_exact_step_gaps(self, name):
        # on a 16-cycle grid (6400 steps of 2.5 ms; 320 of 50 ms) the gap between
        # samples k-1 and k is (dt_(k-1) + dt_k) / 2, bit for bit: a difference of
        # midpoint times would carry rounding of up to about 1e-12 late in the run
        sc = build_scenario(name, repetitions=16, ensemble_size=3, seed=12)
        grid = _build_grid(sc)
        dt, noise = grid.durations, _channel_noise(sc, grid, range(3))
        for c, ch in enumerate(sc.channels):
            draws = np.array([np.random.default_rng([sc.seed, c, i]).standard_normal(len(dt))
                              for i in range(3)])
            expected = ou_reference(ch.amplitude, ch.correlation_time, (dt[:-1] + dt[1:]) / 2, draws)
            assert np.array_equal(noise[c], expected)


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

    @pytest.mark.parametrize("name,knobs", CONFIGS.values(), ids=CONFIGS.keys())
    def test_propagator_matches_state_propagation(self, name, knobs):
        # oracle: the propagator of the identity rows, which reach every
        # index and so run on the full space; the state runs on its block
        sc = build_scenario(name, repetitions=2, ensemble_size=1, seed=3, **knobs)
        steps = _build_grid(sc).durations.shape[0]
        noise = np.random.default_rng(1).normal(0, 0.5, size=(len(sc.channels), steps))
        u = trajectory_propagator(sc, noise)
        final = propagate_trajectory(sc, noise_values=noise).final_state
        assert np.max(np.abs(u.matrix @ sc.initial_state - final)) < 1e-12

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

    @pytest.mark.parametrize("name,knobs", CONFIGS.values(), ids=CONFIGS.keys())
    def test_states_vanish_outside_the_block(self, name, knobs):
        sc = build_scenario(name, repetitions=2, ensemble_size=1, seed=3, **knobs)
        outside = np.setdiff1d(np.arange(sc.h_system.dim), code_block(sc))
        states = propagate_trajectory(sc).states
        assert np.array_equal(states[:, outside], np.zeros((len(states), len(outside))))

    def test_single_trajectory_draws_its_own_stream(self):
        # trajectory k's noise is row k of the ensemble's, bit for bit, from either sampler
        sc = build_scenario("hybrid_dephasing", repetitions=2, ensemble_size=5, seed=4)
        grid = _build_grid(sc)
        for sampler in (_channel_noise, _interval_noise):
            ensemble = sampler(sc, grid, range(5))
            for k in (0, 3):
                assert np.array_equal(sampler(sc, grid, [k]), ensemble[:, k : k + 1])

    @pytest.mark.parametrize("n", [1, _SUM_ROWS - 1, _SUM_ROWS + 1, 2 * _SUM_ROWS + 3])
    @pytest.mark.parametrize("name,knobs", CONFIGS.values(), ids=CONFIGS.keys())
    def test_results_do_not_depend_on_batching(self, name, knobs, n):
        # through _run, which ensemble_coherence and propagate_trajectory share:
        # an ensemble row is the lone trajectory's run, and batches of 5
        # trajectories, which cut the sampler's draw buffer elsewhere,
        # reproduce the whole ensemble, bit for bit
        sc = build_scenario(name, repetitions=2, ensemble_size=n, seed=8, **knobs)

        def states(trajectories):
            return _run(sc, np.tile(sc.initial_state, (len(trajectories), 1)), trajectories)[1]

        full = states(range(n))
        for k in sorted({0, min(_SUM_ROWS, n - 1), n - 1}):
            assert np.array_equal(full[:, k], propagate_trajectory(sc, trajectory=k).states)
        batches = [states(range(a, min(a + 5, n))) for a in range(0, n, 5)]
        assert np.array_equal(np.concatenate(batches, axis=1), full)

    @pytest.mark.parametrize("config", [*DIAGONAL_CONFIGS, *UNEQUAL_INTERVALS])
    def test_interval_sampler_matches_per_step_samples(self, config):
        # the interval sums drawn directly against the per-step samples of the
        # same draws, summed over each interval: states move by rounding only
        sc = diagonal_scenario(config, ensemble_size=20)
        grid = _build_grid(sc)
        direct = evolve(sc, _interval_noise(sc, grid, range(20)), 20)
        per_step = evolve(sc, interval_sums(grid, _channel_noise(sc, grid, range(20))), 20)
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
        monkeypatch.setattr("aht.noise._channel_noise", lambda *a: pytest.fail("per-step draw"))
        monkeypatch.setattr("aht.noise._ou_in_place", lambda *a: pytest.fail("OU recursion"))
        for config in DIAGONAL_CONFIGS:
            curve = ensemble_coherence(diagonal_scenario(config, ensemble_size=4))
            assert np.all(np.isfinite(curve.mean))

    @pytest.mark.parametrize("config", DIAGONAL_CONFIGS)
    def test_interval_update_matches_per_step_loop(self, config):
        # one phase update per pulse or record interval moves each state by
        # rounding only; the per-step loop is the reference
        name, knobs = CONFIGS[config]
        sc = build_scenario(name, repetitions=2, ensemble_size=1, seed=3, **knobs)
        steps = _build_grid(sc).durations.shape[0]
        noise = np.random.default_rng(2).normal(0, 0.5, size=(len(sc.channels), steps))
        states = propagate_trajectory(sc, noise_values=noise).states
        assert np.max(np.abs(states - per_step_reference(sc, noise))) < 1e-12

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

    @pytest.mark.parametrize("config", EIGH_CONFIGS)
    def test_batched_steps_match_per_step_eigh(self, config):
        # the closed-form steps, built per event interval, against the
        # per-step eigh loop, on 6 trajectories of strong random noise
        name, knobs = CONFIGS[config]
        sc = build_scenario(name, repetitions=2, ensemble_size=6, seed=3, **knobs)
        grid = _build_grid(sc)
        noise = np.random.default_rng(4).normal(0, 0.5, (len(sc.channels), 6, len(grid.durations)))
        states = evolve(sc, noise, 6)
        assert np.max(np.abs(states - per_step_eigh_reference(sc, noise))) < 1e-12

    @pytest.mark.parametrize("pulses", [True, False])
    def test_trace_phase_matches_per_step_eigh(self, pulses):
        # the library blocks are traceless; a drift offset and a coupling with
        # a trace part give the 2-dim step its phase exp(-i sum m dt) per batch
        sc = build_scenario("encoded_spin_boson", repetitions=2, ensemble_size=6, seed=3,
                            pulses=pulses)
        first, *rest = sc.channels
        assert first.coupling.label == single_qubit("Z", 1, 2).label
        offset = dataclasses.replace(first, coupling=Operator(first.coupling.matrix + 0.3 * np.eye(4)))
        sc = dataclasses.replace(sc, h_system=Operator(sc.h_system.matrix + 0.7 * np.eye(4)),
                                 channels=(offset, *rest))
        grid = _build_grid(sc)
        noise = np.random.default_rng(4).normal(0, 0.5, (len(sc.channels), 6, len(grid.durations)))
        states = evolve(sc, noise, 6)
        assert np.max(np.abs(states - per_step_eigh_reference(sc, noise))) < 1e-12

    @pytest.mark.parametrize("knob,value", [("slow_amplitude", 1e154), ("delta_omega", 1e155)])
    def test_overflow_is_refused_without_warnings(self, knob, value):
        # numpy's RuntimeWarnings fail the test (filterwarnings in pyproject.toml)
        sc = build_scenario("encoded_spin_boson", repetitions=2, ensemble_size=3, **{knob: value})
        for run in (propagate_trajectory, ensemble_coherence):
            with pytest.raises(ValidationError, match="not finite"):
                run(sc)

    @pytest.mark.parametrize("name", ["encoded_spin_boson", "encoded_depolarizing"])
    def test_interval_longer_than_a_batch(self, name):
        # without pulses each of the 20 record intervals spans 200 steps,
        # more than three batches
        sc = build_scenario(
            name, repetitions=2, ensemble_size=3, seed=6, pulses=False, max_step=5e-4
        )
        grid = _build_grid(sc)
        assert len(grid.durations) // sc.record_points > 3 * _BATCH_STEPS
        noise = _channel_noise(sc, grid, range(3))
        states = evolve(sc, noise, 3)
        assert np.max(np.abs(states - per_step_eigh_reference(sc, noise))) < 1e-12


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
        name, knobs = CONFIGS[config]
        sc = build_scenario(name, repetitions=2, ensemble_size=16, seed=29, **knobs)
        curve = ensemble_coherence(sc)
        digest = hashlib.sha256(curve.mean.tobytes() + curve.std_error.tobytes()).hexdigest()
        assert digest == PINNED_DIGESTS[config]

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

    def test_csv_emission(self):
        sc = slow_only_scenario(ensemble_size=10)
        curve = ensemble_coherence(sc)
        text = curve.to_csv(sc.describe())
        lines = text.splitlines()
        assert lines[0].startswith("# {")
        assert lines[1] == "time_s,mean_coherence,std_error,n_traj"
        assert len(lines) == 2 + len(curve.times)


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

    @pytest.mark.parametrize("size", [0, -3])
    def test_rejects_empty_ensemble(self, size):
        with pytest.raises(ValidationError, match="ensemble_size"):
            build_scenario("hybrid_dephasing", ensemble_size=size)

    @pytest.mark.parametrize("step", [0, -1.0])
    def test_rejects_nonpositive_max_step(self, step):
        with pytest.raises(ValidationError, match="max_step"):
            build_scenario("hybrid_dephasing", max_step=step)

    @pytest.mark.parametrize(
        "field,value",
        [("correlation_time", float("nan")), ("amplitude", float("nan")), ("amplitude", np.inf)],
    )
    def test_channel_rejects_nonfinite(self, field, value):
        ch = build_scenario("hybrid_dephasing", ensemble_size=1).channels[0]
        with pytest.raises(ValidationError, match=field):
            dataclasses.replace(ch, **{field: value})

    def test_rejects_nan_total_time(self):
        sc = build_scenario("hybrid_dephasing", ensemble_size=1, pulses=False)
        with pytest.raises(ValidationError, match="total_time"):
            dataclasses.replace(sc, total_time=float("nan"))

    @pytest.mark.parametrize(
        "knobs",
        [{}, {"pulses": False}, {"max_step": 0.0013}, {"repetitions": 3, "cycle_time": 0.37}],
        ids=["pulsed", "free", "max_step", "short_cycles"],
    )
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_noise_size_bound(self, name, knobs):
        # the bound counts the bytes of the sampler of the run's path: off the
        # diagonal path channels x trajectories x grid steps samples, on it
        # channels x trajectories x intervals sums plus (2 _SUM_ROWS + 10)
        # step-length vectors; the largest ensemble under the limit is
        # accepted, one more is not; neither allocates anything
        sc = build_scenario(name, ensemble_size=1, **knobs)
        grid = _build_grid(sc)
        steps, values = len(grid.durations), _MAX_NOISE_BYTES // 8
        if name in ("hybrid_dephasing", "four_qubit_blockwise"):  # the diagonal ones
            fits = (values - (2 * _SUM_ROWS + 10) * steps) // (len(sc.channels) * len(grid.ends))
        else:
            fits = values // (len(sc.channels) * steps)
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
        # 2 channels on the same grid are not diagonal and need 2.15 GB
        knobs = {"ensemble_size": 21000, "max_step": 0.0025}
        sc = build_scenario("hybrid_dephasing", **knobs)
        assert len(_build_grid(sc).durations) == 6400
        assert 8 * len(sc.channels) * sc.ensemble_size * 6400 > _MAX_NOISE_BYTES
        with pytest.raises(ValidationError, match="run needs 2150400000 bytes of noise"):
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

    def test_noise_allocation_is_the_counted_tensor(self):
        # the bytes the size limit counts are all the noise draw allocates:
        # draws land in the tensor and the OU recursion runs in place
        sc = build_scenario("hybrid_dephasing", encoded=False, ensemble_size=200, repetitions=16)
        grid = _build_grid(sc)
        counted = len(sc.channels) * sc.ensemble_size * len(grid.durations) * 8
        tracemalloc.start()
        try:
            _channel_noise(sc, grid, range(sc.ensemble_size))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * counted

    def test_interval_sampler_allocation_is_counted(self):
        # the interval sampler's peak stays under what the size limit counts
        # for it, and grows with the ensemble only by its (channels,
        # trajectories, intervals) sums, not by the steps
        peaks, sums = {}, {}
        for n in (1, _SUM_ROWS, 2 * _SUM_ROWS + 3):
            sc = build_scenario("hybrid_dephasing", pulses=False, ensemble_size=n)
            grid = _build_grid(sc)
            sums[n] = len(sc.channels) * n * len(grid.ends) * 8
            counted = sums[n] + (2 * min(n, _SUM_ROWS) + 10) * len(grid.durations) * 8
            _interval_noise(sc, grid, range(1))  # numpy's first-call allocations
            tracemalloc.start()
            try:
                _interval_noise(sc, grid, range(n))
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peaks[n] <= 1.1 * counted
        big = 2 * _SUM_ROWS + 3
        assert peaks[big] - peaks[_SUM_ROWS] <= 1.1 * (sums[big] - sums[_SUM_ROWS])

    def test_rejects_negative_seed_when_built_directly(self):
        # build_scenario checks its seed knob; a replaced seed is checked too
        sc = build_scenario("hybrid_dephasing", repetitions=2, ensemble_size=4)
        for seed in (-1, 1.5, True):
            with pytest.raises(ValidationError, match="seed"):
                dataclasses.replace(sc, seed=seed)

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
