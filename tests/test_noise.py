"""Stochastic dephasing engine: OU statistics, propagation, ensembles."""
import dataclasses
import hashlib

import numpy as np
import pytest

from aht.codes import build_code
from aht.config import _MAX_NOISE_BYTES, ValidationError
from aht.decoupling import named_sequence
from aht.noise import (
    _BATCH_STEPS,
    SCENARIO_NAMES,
    NoiseScenario,
    _build_grid,
    _channel_noise,
    _evolve,
    _ou_batch,
    _reachable_block,
    _step_propagators,
    build_scenario,
    ensemble_coherence,
    final_error,
    propagate_trajectory,
    trajectory_propagator,
)
from aht.operators import Operator, single_qubit


#: (gaps between OU samples, steps spanning one correlation time
#: tau_c = 1): a uniform grid and one whose gaps alternate 0.05 / 0.15.
OU_GRIDS = {
    "uniform": (np.full(399, 0.1), 10),
    "alternating": (np.resize([0.05, 0.15], 399), 10),
}


def ou_samples(gaps, amplitude, seed, n_traj=2000):
    """``_ou_batch`` at tau_c = 1 on seeded standard-normal draws."""
    draws = np.random.default_rng(seed).standard_normal((n_traj, len(gaps) + 1))
    return _ou_batch(amplitude, 1.0, gaps, draws)


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
#: x86-64): the three diagonal-path ones recorded with the one phase
#: update per event interval, the two non-diagonal ones re-recorded with
#: the closed-form 2x2 step propagators, which moved their states by
#: rounding only (see ``test_batched_steps_match_per_step_eigh``); a change
#: that moves them says so and re-records them
PINNED_DIGESTS = {
    "hybrid_dephasing": "fd8bf71828e51321e64dc64d4d196332a04527d79974e20f00e96a730ccac335",
    "hybrid_dephasing-physical": "542e5a15f396697b8d3a769dd147cd87893a0649e5041decbcc49ee859663d5a",
    "encoded_spin_boson": "6acb7e6206516082ab59bb5631589f5fa0f0e209fcc94b1d9a54ef0c8fba303b",
    "encoded_depolarizing": "35591e4d63cae88f916f571fddebb3151bf5607422df748d2de0013676cd91da",
    "four_qubit_blockwise": "fdde1296522d6d5b2c3f2cab59a0ae0ea3450bb5c4a4a01150f4e30a239e980b",
}


#: configurations whose drift and couplings are diagonal, so that
#: ``_evolve`` takes one phase update per event interval
DIAGONAL_CONFIGS = [
    config for config, (name, _) in CONFIGS.items()
    if name in ("hybrid_dephasing", "four_qubit_blockwise")
]
#: the others, whose steps take the exponential of a frozen Hamiltonian
EIGH_CONFIGS = [config for config in CONFIGS if config not in DIAGONAL_CONFIGS]


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
    ``K_c = amp^2 exp(-|m_k - m_l| / tau_c)`` at the grid midpoints.
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
    m = grid.midpoints
    for ch in sc.channels:
        w = pair_steps(np.diag(ch.coupling.matrix))
        kern = ch.amplitude**2 * np.exp(-np.abs(m[:, None] - m[None, :]) / ch.correlation_time)
        # w^T K w as a running sum: w_k^2 K_kk + 2 w_k sum_{l<k} K_kl w_l
        below = w @ np.tril(kern, -1).T
        exponent = exponent + at_records(w * w * np.diag(kern) + 2 * w * below) / 2
    obs = sc.observable.matrix[ends[:, :, None], ends[:, None, :]]
    terms = amps.conj()[:, :, None] * obs * amps[:, None, :] * np.exp(-exponent)
    return terms.sum(axis=(1, 2)).real


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
        # trajectory k's noise is row k of the ensemble's, bit for bit
        sc = build_scenario("hybrid_dephasing", repetitions=2, ensemble_size=5, seed=4)
        grid = _build_grid(sc)
        ensemble = _channel_noise(sc, grid, range(5))
        for k in (0, 3):
            assert np.array_equal(_channel_noise(sc, grid, [k]), ensemble[:, k : k + 1])

    @pytest.mark.parametrize("name,knobs", CONFIGS.values(), ids=CONFIGS.keys())
    def test_results_do_not_depend_on_batching(self, name, knobs):
        # each ensemble row is the lone trajectory's run, and batches of 5
        # trajectories reproduce the whole ensemble, bit for bit
        n = 12
        sc = build_scenario(name, repetitions=2, ensemble_size=n, seed=8, **knobs)
        grid = _build_grid(sc)

        def evolve(trajectories):
            psi = np.tile(sc.initial_state, (len(trajectories), 1))
            return _evolve(sc, _channel_noise(sc, grid, trajectories), psi, grid)

        full = evolve(range(n))
        for k in range(n):
            assert np.array_equal(full[:, k], propagate_trajectory(sc, trajectory=k).states)
        batches = [evolve(range(a, min(a + 5, n))) for a in range(0, n, 5)]
        assert np.array_equal(np.concatenate(batches, axis=1), full)

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
        # Omega half the eigenvalue spread), Omega = 1e-9 and Omega * dt > pi
        from scipy.linalg import expm

        rng = np.random.default_rng(dim)
        a = rng.normal(size=(4, 6, dim, dim)) + 1j * rng.normal(size=(4, 6, dim, dim))
        h = (a + a.conj().swapaxes(-1, -2)) / 2
        h[0, 0] = 0.7 * np.eye(dim)
        h[0, 1] = -2.5 * np.eye(dim) + 1e-9 * np.diag(np.resize([1.0, -1.0], dim))
        h[1] *= 8.0
        dt = np.array([[0.3], [1.1], [0.05], [2.0]])
        u = _step_propagators(h, dt)
        assert u.shape == h.shape
        width = np.ptp(np.linalg.eigvalsh(h), axis=-1) * dt
        assert width[0, 0] == 0 and 0 < width[0, 1] < 1e-8 and width[1].min() / 2 > np.pi
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
        states = _evolve(sc, noise, np.tile(sc.initial_state, (6, 1)), grid)
        assert np.max(np.abs(states - per_step_eigh_reference(sc, noise))) < 1e-12

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
        states = _evolve(sc, noise, np.tile(sc.initial_state, (3, 1)), grid)
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
        # the bound counts channels x trajectories x grid steps x 8 bytes:
        # the largest ensemble under the limit is accepted, one more is not;
        # neither allocates anything
        sc = build_scenario(name, ensemble_size=1, **knobs)
        per_trajectory = len(sc.channels) * len(_build_grid(sc).durations) * 8
        fits = _MAX_NOISE_BYTES // per_trajectory
        assert build_scenario(name, ensemble_size=fits, **knobs).ensemble_size == fits
        with pytest.raises(ValidationError, match="bytes of noise"):
            build_scenario(name, ensemble_size=fits + 1, **knobs)

    @pytest.mark.parametrize(
        "knobs",
        [{"repetitions": 10**9}, {"max_step": 1e-300}, {"max_step": 5e-324},
         {"ensemble_size": 10**15}, {"ensemble_size": 10**400}, {"tau_fast": 1e-300}],
    )
    def test_oversized_runs_rejected_before_allocation(self, knobs):
        # step counts past any grid, also where a float count would overflow
        with pytest.raises(ValidationError, match="bytes of noise"):
            build_scenario("hybrid_dephasing", **knobs)

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
