"""Decoupling cycles: frames, averages, corrections, named sequences."""
import hashlib
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from aht.codes import build_code, dfs2x2_logical_hamiltonian
from aht.scenario import Scenario
from aht.config import ValidationError
from aht.decoupling import (
    DecouplingScheme,
    DecouplingSet,
    SEQUENCE_NAMES,
    _defect_sweep,
    average_zeroth,
    builtin_groups,
    close_group,
    cycle_propagator,
    effective_defect,
    first_order_correction,
    frames_from_scheme,
    named_sequence,
    project_group,
)
from aht.operators import (
    SIGMA,
    MatrixLike,
    Operator,
    PauliString,
    exchange,
    expm,
    logm_effective,
    pauli_decompose,
    pauli_sum,
    phase_insensitive_fidelity,
    random_hermitian,
)

I2, X, Y, Z = SIGMA["I"], SIGMA["X"], SIGMA["Y"], SIGMA["Z"]

#: (shifts, couplings) of dfs2x2 NMR networks; the second is the input of
#: the ``sequence_selectivity`` check in ``aht verify``.
NETWORKS = [
    ((1.9, 1.2, 0.7, 0.2),
     {(1, 2): 0.8, (3, 4): 0.5, (1, 3): 0.3, (1, 4): 0.1, (2, 3): 0.07, (2, 4): 0.21}),
    ((2.2, 1.3, 0.8, 0.1),
     {(1, 2): 0.9, (3, 4): 0.7, (1, 3): 0.31, (1, 4): 0.11, (2, 3): 0.05, (2, 4): 0.17}),
]


def dipolar_pair() -> np.ndarray:
    return 3 * PauliString(2, "ZZ").to_operator().matrix - exchange(1, 2, 2).matrix


class TestSchemeValidation:
    def test_durations_must_normalize(self):
        px = expm(X, np.pi / 2)
        with pytest.raises(ValidationError):
            DecouplingScheme((px, px), (0.5, 0.6))

    def test_cyclicity_enforced(self):
        px = expm(X, np.pi / 2)
        with pytest.raises(ValidationError):
            DecouplingScheme((px,), (1.0,))

    def test_nonpositive_duration(self):
        px = expm(X, np.pi / 2)
        with pytest.raises(ValidationError):
            DecouplingScheme((px, px), (1.0, 0.0))

    # NaN fails every comparison, so each check must be written to fail on it;
    # a string, None or a boolean is no number either
    @pytest.mark.parametrize("cycle_time", [float("nan"), "x", None, True])
    def test_rejects_nan_cycle_time(self, cycle_time):
        px = expm(X, np.pi / 2)
        with pytest.raises(ValidationError, match="cycle_time"):
            DecouplingScheme((px, px), (0.5, 0.5), cycle_time=cycle_time)

    @pytest.mark.parametrize("durations", [(float("nan"), float("nan")), ("x", 0.5), 1.0],
                             ids=["nan", "x", "not-a-list"])
    def test_rejects_nan_durations(self, durations):
        px = expm(X, np.pi / 2)
        with pytest.raises(ValidationError, match="durations"):
            DecouplingScheme((px, px), durations)

    @pytest.mark.parametrize(
        "weights", [(float("nan"), float("nan")), (float("nan"), 1.0), ("x", 1.0), (True, 0.0), 1.0],
        ids=["nan", "nan-one", "x", "True", "not-a-list"],
    )
    def test_rejects_nan_weights(self, weights):
        frames = (Operator(I2), Operator(X))
        with pytest.raises(ValidationError, match="weights"):
            DecouplingSet(frames, weights)


    def test_matrix_pulses_read_as_operators(self):
        # a matrix pulse becomes an Operator of the same entries, an Operator stays itself
        cp = named_sequence("cp_x")
        from_matrices = replace(cp, pulses=[p.matrix for p in cp.pulses])
        assert replace(cp, label="again").pulses[0] is cp.pulses[0]
        h = Z + 0.5 * X
        assert (cycle_propagator(h, from_matrices).matrix.tobytes()
                == cycle_propagator(h, cp).matrix.tobytes())


class TestFrames:
    def test_cp_frames(self):
        frames = frames_from_scheme(named_sequence("cp_x"))
        assert len(frames.frames) == 2
        assert frames.weights == (0.5, 0.5)
        assert phase_insensitive_fidelity(frames.frames[0].matrix, I2) == pytest.approx(1.0)
        assert phase_insensitive_fidelity(frames.frames[1].matrix, X) == pytest.approx(1.0)
        assert frames.is_group

    def test_whh4_frames_and_axes(self):
        frames = frames_from_scheme(named_sequence("whh4"))
        assert len(frames.frames) == 5
        # conjugating sigma_z through the frames must visit exactly 3 axes
        axes = set()
        for f in frames.frames:
            comps = pauli_decompose(f.matrix.conj().T @ Z @ f.matrix)
            (axis,) = [k for k, v in comps.items() if abs(v) > 1e-10]
            axes.add(axis)
        assert axes == {"X", "Y", "Z"}
        assert not frames.is_group

    def test_single_identity_pulse(self):
        scheme = DecouplingScheme((expm(np.zeros((2, 2)), 1.0),), (1.0,))
        frames = frames_from_scheme(scheme)
        assert len(frames.frames) == 1
        assert np.allclose(frames.frames[0].matrix, I2)

    def test_symmetric_cp_last_frame_trivial(self):
        frames = frames_from_scheme(named_sequence("cp_x_symmetric"))
        assert len(frames.frames) == 3
        assert phase_insensitive_fidelity(frames.frames[2].matrix, I2) == pytest.approx(1.0)
        assert frames.is_group  # {1, pi_x} with aggregated weights 1/2 each


class TestAverages:
    def test_cp_kills_sigma_z(self):
        avg = average_zeroth(Z, frames_from_scheme(named_sequence("cp_x")))
        assert np.max(np.abs(avg.matrix)) < 1e-12

    def test_whh4_kills_dipolar(self):
        avg = average_zeroth(dipolar_pair(), frames_from_scheme(named_sequence("whh4", n_qubits=2)))
        assert np.max(np.abs(avg.matrix)) < 1e-10

    def test_maximal_averaging(self):
        rng = np.random.default_rng(8)
        h = random_hermitian(1, rng, norm=None).matrix + 0.3 * np.eye(2)
        gmax = builtin_groups()["gmax"]
        avg = average_zeroth(h, gmax)
        assert np.allclose(avg.matrix, np.trace(h) / 2 * np.eye(2), atol=1e-12)

    def test_trace_preserving_and_unital(self):
        rng = np.random.default_rng(12)
        frames = frames_from_scheme(named_sequence("whh4", n_qubits=2))
        h = random_hermitian(2, rng)
        assert average_zeroth(h, frames).trace() == pytest.approx(h.trace(), abs=1e-12)
        assert np.allclose(average_zeroth(np.eye(4), frames).matrix, np.eye(4), atol=1e-12)


class TestProjector:
    def test_cp_projects_onto_x_component(self):
        cp = builtin_groups()["cp_x"]
        h = 0.7 * X + 1.3 * Z
        assert np.allclose(project_group(h, cp).matrix, 0.7 * X, atol=1e-12)

    def test_requires_group(self):
        frames = frames_from_scheme(named_sequence("whh4"))
        with pytest.raises(ValidationError):
            project_group(Z, frames)

    def test_logical_hard_pulse_projection(self):
        # the collective encoded pi_x group keeps both x couplings and zz
        code = build_code("dfs2x2")
        nu = (2.0, 1.1, 0.9, 0.3)
        j = {(1, 2): 0.8, (3, 4): 0.5, (1, 3): 0.2, (1, 4): 0.06, (2, 3): 0.04, (2, 4): 0.12}
        h, coeffs = dfs2x2_logical_hamiltonian(nu, j)
        group = frames_from_scheme(named_sequence("cp_x", code=code))
        comps = pauli_decompose(project_group(h, group).matrix, threshold=1e-12)
        expected = {
            "XI": np.pi * j[(1, 2)],
            "IX": np.pi * j[(3, 4)],
            "ZZ": 2 * np.pi * coeffs.d,
        }
        assert set(comps) == set(expected)
        for k, v in expected.items():
            assert comps[k] == pytest.approx(v, abs=1e-12)

    def test_idempotence_and_commutant_all_groups(self):
        rng = np.random.default_rng(23)
        for name, group in builtin_groups().items():
            h = random_hermitian(group.dim.bit_length() - 1, rng)
            p = project_group(h, group)
            assert np.allclose(project_group(p, group).matrix, p.matrix, atol=1e-10), name
            for u in group.frames:
                comm = p.matrix @ u.matrix - u.matrix @ p.matrix
                assert np.max(np.abs(comm)) < 1e-10, name


class TestFirstOrder:
    def test_commuting_frames_vanish(self):
        corr = first_order_correction(Z, named_sequence("cp_x", cycle_time=0.3))
        assert np.max(np.abs(corr.matrix)) < 1e-14

    def test_single_identity_frame(self):
        scheme = DecouplingScheme((expm(np.zeros((2, 2)), 1.0),), (1.0,))
        assert np.max(np.abs(first_order_correction(X + Z, scheme).matrix)) < 1e-14

    def test_hand_derived_value(self):
        # oracle: Magnus double integral done by hand for H = Z + X/2 under
        # asymmetric CP; the cross term gives -(T_c/4) sigma_y
        tc = 0.1
        corr = first_order_correction(Z + 0.5 * X, named_sequence("cp_x", cycle_time=tc))
        assert np.allclose(corr.matrix, -(tc / 4) * Y, atol=1e-13)

    def test_correction_is_hermitian(self):
        rng = np.random.default_rng(31)
        h = random_hermitian(2, rng)
        corr = first_order_correction(h, named_sequence("whh4", n_qubits=2, cycle_time=0.2))
        assert corr.is_hermitian()


class TestCyclePropagator:
    def test_zero_hamiltonian(self):
        u = cycle_propagator(np.zeros((2, 2)), named_sequence("cp_x", cycle_time=0.7))
        assert phase_insensitive_fidelity(u.matrix, I2) == pytest.approx(1.0)

    def test_exact_refocusing(self):
        u = cycle_propagator(Z, named_sequence("cp_x", cycle_time=1.7))
        assert phase_insensitive_fidelity(u.matrix, I2) == pytest.approx(1.0, abs=1e-12)

    def test_defect_scales_linearly(self):
        h = Z + 0.5 * X
        d1 = effective_defect(h, named_sequence("cp_x", cycle_time=0.1))[0]
        d2 = effective_defect(h, named_sequence("cp_x", cycle_time=0.05))[0]
        assert 1.7 < d1 / d2 < 2.3

    def test_propagator_is_unitary(self):
        rng = np.random.default_rng(4)
        u = cycle_propagator(random_hermitian(2, rng), named_sequence("whh4", n_qubits=2, cycle_time=0.4))
        assert u.is_unitary()


#: One scan document per named sequence, unencoded where the sequence
#: allows it and on the logical and physical spaces of a code otherwise.
SCAN_SEQUENCES = [
    *(({"name": name}, 2) for name in ("cp_x", "cp_x_symmetric", "cp_y", "whh4", "gmax_cycle")),
    *(({"name": name, "code": "dfs2x2"}, 2) for name in ("s1_selective_x1", "s1_selective_x2", "zz_extractor")),
    ({"name": "cp_x", "code": "dfs2", "physical": True}, 2),
    ({"name": "s1_selective_x2", "code": "dfs2x2", "physical": True}, 4),
]


def scan_id(value) -> str:
    return "-".join(map(str, value.values())) if isinstance(value, dict) else f"{value}q"


def expm_product(h: MatrixLike, scheme: DecouplingScheme) -> np.ndarray:
    """The cycle propagator as the ordered product of ``expm`` factors and pulses."""
    u = np.eye(scheme.dim, dtype=complex)
    for i, tau in enumerate(scheme.durations):
        u = expm(h, tau * scheme.cycle_time).matrix @ u
        if i < len(scheme.pulses):
            u = scheme.pulses[i].matrix @ u
    return u


def defect_reference(h: MatrixLike, scheme: DecouplingScheme) -> tuple[float, float]:
    """``effective_defect`` composed per call from the public functions."""
    u = cycle_propagator(h, scheme).matrix
    zeroth = average_zeroth(h, frames_from_scheme(scheme)).matrix
    defects = []
    for approx in (zeroth, zeroth + first_order_correction(h, scheme).matrix):
        overlap = np.trace(expm(approx, scheme.cycle_time).matrix.conj().T @ u)
        aligned = u * (overlap.conjugate() / abs(overlap))
        diff = logm_effective(aligned, scheme.cycle_time).matrix - approx
        diff = diff - np.trace(diff) / diff.shape[0] * np.eye(diff.shape[0])
        defects.append(float(np.linalg.norm(diff, 2)))
    return defects[0], defects[1]


class TestOneDecompositionPerSweep:
    """``H`` and the zeroth-order average are diagonalized once per cycle and
    per sweep; the outputs equal the per-factor and per-point computations
    byte for byte."""

    @pytest.mark.parametrize("sequence,n", SCAN_SEQUENCES, ids=scan_id)
    def test_cycle_propagator_is_the_expm_product(self, sequence, n):
        scheme = Scenario(kind="propagate", n_qubits=n, hamiltonian={"terms": ["Z1"]}, code="dfs2x2",
                          sequence={**sequence, "cycle_time": 0.37}).resolve_sequence()
        h = random_hermitian(n, np.random.default_rng(n))
        assert cycle_propagator(h, scheme).matrix.tobytes() == expm_product(h, scheme).tobytes()

    @pytest.mark.parametrize("sequence,n", SCAN_SEQUENCES, ids=scan_id)
    def test_scan_rows_are_per_point_effective_defects(self, sequence, n):
        sweep = [0.4, 0.2, 0.1, 0.05, 0.025]
        rng = np.random.default_rng(7)
        terms = [f"{rng.uniform(0.2, 1.2):.6f} {w}" for w in ("XX 1 2", "Z 1", "Y 2", "ZY 1 2")]
        sc = Scenario(kind="scan", n_qubits=n, hamiltonian={"terms": terms}, code="dfs2x2",
                      sequence=sequence, sweep=sweep, target="magnus_defect")
        h, scheme = sc.resolve_hamiltonian(), sc.resolve_sequence()
        per_point = [effective_defect(h, replace(scheme, cycle_time=tc)) for tc in sweep]
        assert per_point == [defect_reference(h, replace(scheme, cycle_time=tc)) for tc in sweep]
        assert _defect_sweep(h, scheme, sweep) == per_point
        rows = [f"{tc:.12g},{d0:.12g},{d1:.12g}" for tc, (d0, d1) in zip(sweep, per_point)]
        assert sc.run() == "\n".join(["cycle_time,defect,defect_with_first_order", *rows]) + "\n"

    def test_sweep_checks_each_cycle_time(self):
        scheme = named_sequence("cp_x")
        for bad in (0.0, -0.1, float("nan")):
            with pytest.raises(ValidationError, match="cycle_time must be positive"):
                _defect_sweep(Z + 0.5 * X, scheme, [0.1, bad])
        with pytest.raises(ValidationError, match="expm time must be finite"):
            _defect_sweep(Z + 0.5 * X, scheme, [0.1, float("inf")])

    @pytest.mark.parametrize("call", [cycle_propagator, effective_defect])
    def test_non_hermitian_h_and_infinite_time_keep_their_errors(self, call):
        with pytest.raises(ValidationError, match="expm generator must be Hermitian"):
            call(Z + 0.5j * X, named_sequence("cp_x", cycle_time=0.1))
        # an infinite cycle time is refused by the scheme, before any call
        for build in (lambda: named_sequence("cp_x", cycle_time=float("inf")),
                      lambda: replace(named_sequence("cp_x"), cycle_time=float("inf"))):
            with pytest.raises(ValidationError, match="cycle_time must be positive and finite"):
                build()
        with pytest.raises(ValidationError, match="operator must be a square matrix of side 2"):
            call(np.eye(4), named_sequence("cp_x", cycle_time=0.1))


class TestNamedSequences:
    @pytest.mark.parametrize("name", ["cpmg_8", ["cp_x"]])
    def test_unknown_name(self, name):
        # an unhashable name is unknown too, not a TypeError
        with pytest.raises(ValidationError, match="unknown sequence"):
            named_sequence(name)

    def test_encoded_needs_code(self):
        with pytest.raises(ValidationError):
            named_sequence("s1_selective_x1")

    def test_cp_timings(self):
        assert named_sequence("cp_x").durations == (0.5, 0.5)
        assert named_sequence("cp_x_symmetric").durations == (0.25, 0.5, 0.25)
        assert named_sequence("whh4").durations == (1 / 6, 1 / 6, 1 / 3, 1 / 6, 1 / 6)

    def test_s1_selects_first_x(self):
        code = build_code("dfs2x2")
        frames = frames_from_scheme(named_sequence("s1_selective_x1", code=code))
        for nu, j in NETWORKS:
            h, _ = dfs2x2_logical_hamiltonian(nu, j)
            avg = average_zeroth(h, frames)
            comps = pauli_decompose(avg.matrix)
            assert abs(comps["XI"]) > 1e-3
            stray = {k: v for k, v in comps.items() if k != "XI" and abs(v) > 1e-10}
            assert not stray

    def test_s1_variant_selects_second_x(self):
        code = build_code("dfs2x2")
        h, _ = dfs2x2_logical_hamiltonian(*NETWORKS[0])
        avg = average_zeroth(h, frames_from_scheme(named_sequence("s1_selective_x2", code=code)))
        comps = pauli_decompose(avg.matrix)
        assert abs(comps["IX"]) > 1e-3
        assert not {k: v for k, v in comps.items() if k != "IX" and abs(v) > 1e-10}

    def test_zz_extractor(self):
        code = build_code("dfs2x2")
        frames = frames_from_scheme(named_sequence("zz_extractor", code=code))
        for nu, j in NETWORKS:
            h, coeffs = dfs2x2_logical_hamiltonian(nu, j)
            avg = average_zeroth(h, frames)
            comps = pauli_decompose(avg.matrix)
            assert comps["ZZ"] == pytest.approx(2 * np.pi * coeffs.d, abs=1e-12)
            assert not {k: v for k, v in comps.items() if k != "ZZ" and abs(v) > 1e-10}

    def test_physical_realization_matches_logical_average(self):
        # averaging the physical four-spin operator over the physical pulse
        # train, then restricting, must equal averaging the restriction over
        # the logical pulse train
        from aht.codes import logical_action, nmr_hamiltonian, weak_coupling_truncation

        code = build_code("dfs2x2")
        nu = (1.9, 1.2, 0.7, 0.2)
        j = {(1, 2): 0.8, (3, 4): 0.5, (1, 3): 0.3, (1, 4): 0.1, (2, 3): 0.07, (2, 4): 0.21}
        physical_h = pauli_sum(
            weak_coupling_truncation(nmr_hamiltonian(nu, j), ("H", "H", "C", "C")), 4
        )
        phys_avg = average_zeroth(
            physical_h, frames_from_scheme(named_sequence("s1_selective_x1", code=code, physical=True))
        )
        logical_of_avg = logical_action(phys_avg, code).logical_part
        h_l, _ = dfs2x2_logical_hamiltonian(nu, j)
        log_avg = average_zeroth(h_l, frames_from_scheme(named_sequence("s1_selective_x1", code=code)))
        assert np.allclose(logical_of_avg.matrix, log_avg.matrix, atol=1e-10)


#: ``is_group`` of ``frames_from_scheme(named_sequence(...))`` per sequence,
#: recorded before the group test moved to ``equal_up_to_phase``.  Columns:
#: 1, 2, 3 physical qubits; dfs2 logical, physical; dfs2x2 logical, physical;
#: ns3 logical, physical.  ``T`` group, ``F`` not a group, ``-`` the
#: configuration is rejected with ``ValidationError``.
SEQUENCE_IS_GROUP = {
    "cp_x": "TTT TT TT TT",
    "cp_x_symmetric": "TTT TT TT TT",
    "cp_y": "TTT TT TT T-",
    "whh4": "FFF -- -- --",
    "gmax_cycle": "TTT TT TT T-",
    "s1_selective_x1": "--- -- TT --",
    "s1_selective_x2": "--- -- TT --",
    "zz_extractor": "--- -- TT --",
}
SEQUENCE_CONFIGS = [(1, None, False), (2, None, False), (3, None, False)] + [
    (1, code, physical) for code in ("dfs2", "dfs2x2", "ns3") for physical in (False, True)
]
#: sha256 prefix of ``named_sequence(name, ..., cycle_time=0.3)`` over
#: ``SEQUENCE_CONFIGS``: each pulse's shape, label and matrix bytes, then the
#: durations, cycle time and label, or the message of a rejected configuration.
SEQUENCE_DIGESTS = {
    "cp_x": "b98ea6883169f262",
    "cp_x_symmetric": "72a36cee213301fc",
    "cp_y": "5856ed3380cf750f",
    "whh4": "7a749123969257b0",
    "gmax_cycle": "ac0187bfdda846c6",
    "s1_selective_x1": "c685feae623aa257",
    "s1_selective_x2": "3d24a4bd4e7bcb77",
    "zz_extractor": "d8416fe749794c0b",
}
BUILTIN_IS_GROUP = {
    "cp_x": True, "cp_y": True, "gmax": True, "transformer24": True, "cp_xx_2q": True,
    "dfs2_gmax_physical": True, "ns3_cp_x_physical": True, "dfs2x2_cp_x_logical": True,
    "s1_logical": True, "zz_logical": True, "s1_physical_4q": True,
}


class TestGroupMachinery:
    def test_pi_pulse_group_modulo_phase(self):
        # {1, exp(-i pi X/2)} must count as a group despite the -1 square
        frames = DecouplingSet((expm(np.zeros((2, 2)), 0.0), expm(X, np.pi / 2)), (0.5, 0.5))
        assert frames.is_group

    def test_is_group_identifies_phases(self):
        for phase in (1.0, -1.0, 1j, np.exp(0.7j)):
            frames = DecouplingSet((Operator(I2), Operator(phase * X)), (0.5, 0.5))
            assert "is_group" not in vars(frames)  # computed on first read only
            assert frames.is_group
        merged = DecouplingSet(tuple(Operator(m) for m in (I2, -I2, X, 1j * X)), (0.25,) * 4)
        assert merged.is_group  # two classes of weight 1/2 each
        assert not DecouplingSet((Operator(I2), Operator(X)), (0.25, 0.75)).is_group
        assert not DecouplingSet(tuple(Operator(m) for m in (I2, X, Y)), (1 / 3,) * 3).is_group
        with pytest.raises(ValidationError):
            DecouplingSet.group([I2, X, Y])

    def test_close_group_rejects_nan(self):
        with pytest.raises(ValidationError):
            close_group([X, np.array([[0.0, 1.0], [1.0, np.nan]])])

    def test_close_group_merges_across_a_rounding_boundary(self):
        # g and g2 agree to 1e-11 but sit either side of the boundary 0.123456785
        # (entry (0, 0), real part), where rounding to 8 decimals tells them apart
        alpha = np.arccos(np.sqrt(0.123456785 + 4e-12))
        v = np.array([[np.cos(alpha), -np.sin(alpha)], [np.sin(alpha), np.cos(alpha)]])
        g = v @ np.diag([1, 1j]) @ v.T
        g2 = v @ np.diag([1, 1j * np.exp(1e-11j)]) @ v.T
        assert g[0, 0].real > 0.123456785 > g2[0, 0].real
        elements = close_group([g, g2])
        assert len(elements) == 4
        assert all(np.array_equal(e.matrix, m) for e, m in zip(elements, (I2, g, g @ g, g @ (g @ g))))

    def test_close_group_keeps_breadth_first_order(self):
        elements = close_group([expm(X, np.pi / 2), expm(Z, np.pi / 2)])
        assert len(elements) == 8
        assert np.array_equal(elements[0].matrix, np.eye(2))
        assert np.array_equal(elements[1].matrix, expm(X, np.pi / 2).matrix)
        assert np.array_equal(elements[2].matrix, expm(Z, np.pi / 2).matrix)

    @pytest.mark.parametrize("name", SEQUENCE_NAMES)
    def test_sequence_verdicts_pinned(self, name):
        got = ""
        for n_qubits, code, physical in SEQUENCE_CONFIGS:
            try:
                scheme = named_sequence(
                    name, n_qubits, code=build_code(code) if code else None, physical=physical
                )
            except ValidationError:
                got += "-"
                continue
            got += "T" if frames_from_scheme(scheme).is_group else "F"
        assert got == SEQUENCE_IS_GROUP[name].replace(" ", "")

    @pytest.mark.parametrize("name", SEQUENCE_NAMES)
    def test_sequence_bytes_pinned(self, name):
        digest = hashlib.sha256()
        for n_qubits, code, physical in SEQUENCE_CONFIGS:
            try:
                scheme = named_sequence(
                    name, n_qubits, code=build_code(code) if code else None,
                    cycle_time=0.3, physical=physical,
                )
            except ValidationError as exc:
                digest.update(f"error:{exc}".encode())
                continue
            for p in scheme.pulses:
                digest.update(f"{p.matrix.shape}{p.label}".encode())
                digest.update(np.ascontiguousarray(p.matrix).tobytes())
            digest.update(f"{scheme.durations!r}{scheme.cycle_time!r}{scheme.label}".encode())
        assert digest.hexdigest()[:16] == SEQUENCE_DIGESTS[name]

    def test_builtin_verdicts_pinned(self):
        assert {k: g.is_group for k, g in builtin_groups().items()} == BUILTIN_IS_GROUP

    def test_builtin_groups_are_built_once_and_read_only(self):
        groups = builtin_groups()
        assert builtin_groups() is groups
        with pytest.raises(TypeError):
            groups["cp_x"] = groups["cp_y"]
        for group in groups.values():
            with pytest.raises(ValueError, match="read-only"):
                group.frames[0].matrix[0, 0] = 2.0
            with pytest.raises(FrozenInstanceError):
                group.frames = group.frames[:1]
        assert "is_group" in vars(groups["gmax"])  # the verdict is cached with the group

    def test_builtin_groups_cover_one_to_four_qubits(self):
        dims = {g.dim for g in builtin_groups().values()}
        assert {2, 4, 8, 16} <= dims
