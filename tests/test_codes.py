"""Code constructions, logical actions, closed-form identities."""
import itertools

import numpy as np
import pytest

from aht.codes import (
    build_code,
    dfs2x2_logical_hamiltonian,
    hetero_coefficients,
    logical_action,
    nmr_hamiltonian,
    ns3_hamiltonian,
    ns3_logical_hamiltonian,
    verify_pulse_correspondence,
    weak_coupling_truncation,
)
from aht.config import ValidationError
from aht.operators import (
    SIGMA,
    Operator,
    PauliString,
    collective,
    exchange,
    pauli_sum,
    phase_insensitive_fidelity,
    random_hermitian,
    single_qubit,
)

I2, X, Y, Z = SIGMA["I"], SIGMA["X"], SIGMA["Y"], SIGMA["Z"]

HETERO_PAIRS = [(1, 3), (1, 4), (2, 3), (2, 4)]
ALL_PAIRS = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
SPECIES = ("H", "H", "C", "C")


def dfs2x2_physical(nu, j):
    terms = weak_coupling_truncation(nmr_hamiltonian(nu, j), SPECIES)
    return pauli_sum(terms, 4)


class TestBuildCode:
    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            build_code("steane")

    def test_dfs2_isometry_columns(self):
        code = build_code("dfs2")
        assert np.allclose(code.isometry[:, 0], [0, 1, 0, 0])
        assert np.allclose(code.isometry[:, 1], [0, 0, 1, 0])

    def test_dfs2_kills_collective_z(self):
        code = build_code("dfs2")
        assert np.max(np.abs(collective("Z", 2).matrix @ code.projector())) < 1e-14

    def test_dfs2x2_inside_zero_quantum(self):
        code = build_code("dfs2x2")
        assert code.logical_dim == 4
        sz = collective("Z", 4).matrix
        zero_quantum_dim = int(np.sum(np.isclose(np.diag(sz), 0)))
        assert zero_quantum_dim == 6
        assert np.max(np.abs(sz @ code.projector())) < 1e-14

    def test_ns3_collective_ops_act_trivially_on_logical(self):
        code = build_code("ns3")
        for a in "XYZ":
            r = code.restrict(collective(a, 3))
            blocks = r.reshape(2, 2, 2, 2)
            logical = np.einsum("izjz->ij", blocks) / 2
            # purely syndrome action: the logical partial trace is scalar
            assert np.max(np.abs(logical - np.trace(logical) / 2 * np.eye(2))) < 1e-12
            rebuilt = np.kron(np.eye(2), np.einsum("iziw->zw", blocks) / 2)
            assert np.max(np.abs(r - rebuilt)) < 1e-12

    @pytest.mark.parametrize("name", ["dfs2", "dfs2x2", "ns3"])
    def test_observables_preserve_code_and_pauli_algebra(self, name):
        code = build_code(name)
        for ell in range(1, code.n_logical + 1):
            ops = {a: code.observable(a, ell) for a in "xyz"}
            for a in "xyz":
                assert code.leakage(ops[a]) < 1e-10
                r2 = code.restrict(ops[a] @ ops[a])
                assert np.allclose(r2, np.eye(code.logical_dim * code.syndrome_dim), atol=1e-10)
            for a, b, c in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
                prod = code.restrict(ops[a] @ ops[b])
                target = 1j * code.restrict(ops[c])
                assert np.allclose(prod, target, atol=1e-10)

    def test_cross_block_observables_commute(self):
        code = build_code("dfs2x2")
        for a in "xyz":
            for b in "xyz":
                oa, ob = code.observable(a, 1).matrix, code.observable(b, 2).matrix
                assert np.max(np.abs(oa @ ob - ob @ oa)) < 1e-12


class TestLogicalAction:
    def test_s12_on_ns3(self):
        # oracle: explicit total-spin basis restriction
        act = logical_action(exchange(1, 2, 3), build_code("ns3"))
        assert act.preserves_code
        assert not act.syndrome_nontrivial
        assert act.identity_offset == pytest.approx(-1.0, abs=1e-12)
        assert np.allclose(act.logical_part.matrix, 2 * X, atol=1e-12)

    def test_symmetric_network_acts_as_identity(self):
        for omega, j in ((1.7, 0.9), (1.9, 0.8)):
            act = logical_action(ns3_hamiltonian(omega, j, j, j), build_code("ns3"))
            assert np.max(np.abs(act.logical_part.matrix)) < 1e-10

    def test_zeeman_term_is_pure_syndrome(self):
        act = logical_action(collective("Z", 3), build_code("ns3"))
        assert act.syndrome_nontrivial
        assert act.factorizable
        assert np.max(np.abs(act.logical_part.matrix)) < 1e-12
        assert np.allclose(act.syndrome_part.matrix, Z, atol=1e-12)

    def test_error_generators_on_dfs2(self):
        code = build_code("dfs2")
        plus = logical_action(single_qubit("Z", 1, 2), code)
        minus = logical_action(single_qubit("Z", 2, 2), code)
        assert np.allclose(plus.logical_part.matrix, Z, atol=1e-14)
        assert plus.identity_offset == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(minus.logical_part.matrix, -Z, atol=1e-14)

    def test_leakage_reported(self):
        act = logical_action(single_qubit("X", 1, 2), build_code("dfs2"))
        assert not act.preserves_code
        assert act.leakage_norm > 0.9

    def test_linearity(self):
        code = build_code("dfs2")
        h1 = single_qubit("Z", 1, 2)
        h2 = code.observable("x")
        combined = logical_action(Operator(2.0 * h1.matrix - 0.5 * h2.matrix), code)
        parts = 2.0 * logical_action(h1, code).logical_part.matrix - 0.5 * logical_action(h2, code).logical_part.matrix
        assert np.allclose(combined.logical_part.matrix, parts, atol=1e-12)

    @pytest.mark.parametrize("name", ["dfs2", "dfs2x2", "ns3"])
    def test_round_trip_of_logical_operators(self, name):
        rng = np.random.default_rng(77)
        code = build_code(name)
        paulis = {"x": X, "y": Y, "z": Z}
        for _ in range(5):
            coeffs = rng.uniform(-1, 1, size=(code.n_logical, 3))
            physical = np.zeros((2**code.n_physical,) * 2, dtype=complex)
            abstract = np.zeros((code.logical_dim,) * 2, dtype=complex)
            for ell in range(code.n_logical):
                for idx, a in enumerate("xyz"):
                    physical += coeffs[ell, idx] * code.observable(a, ell + 1).matrix
                    slot = [np.eye(2)] * code.n_logical
                    slot[ell] = paulis[a]
                    term = slot[0]
                    for s in slot[1:]:
                        term = np.kron(term, s)
                    abstract += coeffs[ell, idx] * term
            act = logical_action(Operator(physical), code)
            assert act.leakage_norm < 1e-10
            assert np.allclose(act.logical_part.matrix, abstract, atol=1e-10)


    @pytest.mark.parametrize("name", ["dfs2", "dfs2x2"])
    @pytest.mark.parametrize("offset", [0.0, 1e9, 1e12])
    def test_subspace_codes_split_as_restriction_minus_offset(self, name, offset):
        # a one-dimensional syndrome: the general path must give R - c 1 exactly,
        # with no syndrome part, also where c leaves rounding in the trace
        rng = np.random.default_rng(5)
        code = build_code(name)
        dim = 2**code.n_physical
        for _ in range(10):
            h = random_hermitian(code.n_physical, rng).matrix + offset * np.eye(dim)
            act = logical_action(h, code)
            r = code.restrict(h)
            c = np.trace(r) / code.logical_dim
            assert act.logical_part.matrix.tobytes() == (r - c * np.eye(code.logical_dim)).tobytes()
            assert act.identity_offset == float(c.real)
            assert act.syndrome_part is None and "syndrome_part_real" not in act.to_dict()
            assert act.factorizable and not act.syndrome_nontrivial

    @pytest.mark.parametrize("offset", [1e3, 1e6, 1e9, 1e12, 1e14])
    def test_subsystem_flags_ignore_identity_offset(self, offset):
        # rounding of c in r - c 1 is not syndrome action: the logical-only network
        # keeps its offset-0 flags, and the Zeeman term still reaches the syndrome
        code = build_code("ns3")
        for omega, expected in ((0.0, False), (0.7, True)):
            h = ns3_hamiltonian(omega, 1.1, -0.4, 0.3).matrix
            base = logical_action(h, code)
            act = logical_action(h + offset * np.eye(8), code)
            assert base.syndrome_nontrivial is expected and base.factorizable
            assert act.syndrome_nontrivial is expected and act.factorizable


class TestNs3ClosedForm:
    def test_direct_substitutions(self):
        assert np.allclose(ns3_logical_hamiltonian(0.0, 1, 0, 0).matrix, 2 * X)
        assert np.allclose(
            ns3_logical_hamiltonian(0.0, 0, 0, 1).matrix, -X + np.sqrt(3) * Y
        )
        assert np.max(np.abs(ns3_logical_hamiltonian(2.3, 1.1, 1.1, 1.1).matrix)) < 1e-14
        # fully symmetric couplings: the closed form is identically zero
        assert np.max(np.abs(ns3_logical_hamiltonian(1.9, 0.8, 0.8, 0.8).matrix)) == 0.0

    def test_matches_brute_force_restriction(self):
        rng = np.random.default_rng(13)
        code = build_code("ns3")
        for _ in range(100):
            omega, j12, j23, j31 = rng.uniform(-2, 2, size=4)
            brute = logical_action(ns3_hamiltonian(omega, j12, j23, j31), code)
            closed = ns3_logical_hamiltonian(omega, j12, j23, j31)
            assert np.max(np.abs(brute.logical_part.matrix - closed.matrix)) < 1e-10


class TestDfs2x2ClosedForm:
    def test_j13_only(self):
        op, coeffs = dfs2x2_logical_hamiltonian([0, 0, 0, 0], {(1, 3): 1.0})
        assert (coeffs.a, coeffs.b, coeffs.c, coeffs.d) == (0.125, 0.25, 0.25, 0.25)
        # brute-force restriction fixes the logical zz prefactor at 2 pi d
        brute = logical_action(dfs2x2_physical([0, 0, 0, 0], {(1, 3): 1.0}), build_code("dfs2x2"))
        assert np.allclose(op.matrix, brute.logical_part.matrix, atol=1e-12)
        assert np.allclose(op.matrix, 2 * np.pi * 0.25 * np.kron(Z, Z), atol=1e-12)

    def test_symmetric_hetero_network_identity_action(self):
        j = {p: 0.7 for p in HETERO_PAIRS}
        op, coeffs = dfs2x2_logical_hamiltonian([0, 0, 0, 0], j)
        assert coeffs.b == coeffs.c == coeffs.d == 0.0
        assert np.max(np.abs(op.matrix)) < 1e-14
        brute = logical_action(dfs2x2_physical([0, 0, 0, 0], j), build_code("dfs2x2"))
        assert np.max(np.abs(brute.logical_part.matrix)) < 1e-12

    def test_shift_only(self):
        op, _ = dfs2x2_logical_hamiltonian([1.5, 0.4, 0, 0], {})
        assert np.allclose(op.matrix, np.pi * (1.5 - 0.4) * np.kron(Z, I2), atol=1e-14)

    def test_matches_brute_force_restriction(self):
        rng = np.random.default_rng(29)
        code = build_code("dfs2x2")
        for _ in range(100):
            nu = rng.uniform(-3, 3, size=4)
            j = {p: rng.uniform(-2, 2) for p in ALL_PAIRS}
            closed, _ = dfs2x2_logical_hamiltonian(nu, j)
            brute = logical_action(dfs2x2_physical(nu, j), code)
            assert brute.preserves_code
            assert np.max(np.abs(brute.logical_part.matrix - closed.matrix)) < 1e-10

    def test_hetero_coefficients_formulae(self):
        co = hetero_coefficients({(1, 3): 1.0, (1, 4): 2.0, (2, 3): 3.0, (2, 4): 4.0})
        assert co.a == pytest.approx((1 + 2 + 3 + 4) / 8)
        assert co.b == pytest.approx((1 - 2 + 3 - 4) / 4)
        assert co.c == pytest.approx((1 + 2 - 3 - 4) / 4)
        assert co.d == pytest.approx((1 - 2 - 3 + 4) / 4)

    @pytest.mark.parametrize("pair", [(1, 9), (0, 2), (4, 5), "15"])
    def test_rejects_qubits_outside_the_four(self, pair):
        with pytest.raises(ValidationError, match="outside 1..4"):
            dfs2x2_logical_hamiltonian([1, 0.5, 0.2, 0.1], {pair: 1.0})
        with pytest.raises(ValidationError, match="outside 1..4"):
            hetero_coefficients({pair: 1.0})


class TestWeakCoupling:
    def test_drops_only_hetero_transverse_terms(self):
        terms = nmr_hamiltonian([1, 1, 1, 1], {(1, 2): 1.0, (1, 3): 1.0})
        kept = weak_coupling_truncation(terms, SPECIES)
        words = {t.letters for t in kept}
        assert {"XXII", "YYII", "ZZII"} <= words  # homo-species pair survives whole
        assert "ZIZI" in words                    # hetero zz survives
        assert "XIXI" not in words and "YIYI" not in words

    def test_pi_factors(self):
        # labeled-unit convention: shifts pick up pi, couplings pi/2
        terms = nmr_hamiltonian([2.0, 0, 0, 0], {(1, 2): 3.0})
        by_word = {t.letters: t.coefficient for t in terms}
        assert by_word["ZIII"] == pytest.approx(2.0 * np.pi)
        assert by_word["XXII"] == pytest.approx(1.5 * np.pi)


#: Each code's pulse table: (axes, physical label) of every encoded pi rotation.
PULSE_TABLES = {
    "dfs2": [("x", "X1 X2"), ("y", "X1 Y2"), ("z", "Z2")],
    "dfs2x2": [("xi", "X1 X2"), ("ix", "X3 X4"), ("xx", "X1 X2 X3 X4"),
               ("xz", "X1 X2 Z4"), ("zx", "Z2 X3 X4"), ("zz", "Z2 Z4")],
    "ns3": [("x", "swap12")],
}


class TestPulseCorrespondence:
    @pytest.mark.parametrize("name", sorted(PULSE_TABLES))
    def test_all_tabulated_pairs_pass(self, name):
        checks = verify_pulse_correspondence(build_code(name))
        assert [(c.axes, c.physical_label) for c in checks] == PULSE_TABLES[name]
        for c in checks:
            assert c.preserves_code
            assert c.fidelity == pytest.approx(1.0, abs=1e-10)
            assert c.passed

    @pytest.mark.parametrize("name", sorted(PULSE_TABLES))
    def test_logical_pi_is_the_product_of_pi_rotations(self, name):
        code = build_code(name)
        factors = {"i": I2, "x": -1j * X, "y": -1j * Y, "z": -1j * Z}
        for word in itertools.product("ixyz", repeat=code.n_logical):
            expected = np.ones((1, 1))
            for a in word:
                expected = np.kron(expected, factors[a])
            assert np.array_equal(code.logical_pi("".join(word)).matrix, expected)

    def test_hard_pulse_row(self):
        code = build_code("dfs2x2")
        hard = pauli_sum([PauliString(4, "XXXX")], 4)
        fid = phase_insensitive_fidelity(code.logical_pi("xx").matrix, code.restrict(hard))
        assert fid == pytest.approx(1.0, abs=1e-12)

    def test_wrong_pairing_fails(self):
        code = build_code("dfs2")
        physical = code.physical_pi("x")  # X1 X2
        wrong_target = code.logical_pi("z")
        fid = phase_insensitive_fidelity(wrong_target.matrix, code.restrict(physical))
        assert fid < 0.5

    def test_ns3_swap_realization(self):
        checks = verify_pulse_correspondence(build_code("ns3"))
        assert all(c.passed for c in checks)
