"""Operator-algebra primitives: frozen examples and algebraic properties."""
import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aht
from aht import operators
from aht.config import BranchCutError, ValidationError
from aht.operators import (
    Operator,
    PauliString,
    SIGMA,
    collective,
    commutator,
    conjugate,
    exchange,
    expm,
    inner_product,
    logm_effective,
    pauli_decompose,
    pauli_sum,
    random_hermitian,
    single_qubit,
)

I2, X, Y, Z = SIGMA["I"], SIGMA["X"], SIGMA["Y"], SIGMA["Z"]


class TestOperatorType:
    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            Operator(np.zeros((2, 3)))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValidationError):
            Operator(np.zeros((3, 3)))

    def test_is_unitary_threshold_read_from_tol(self):
        # ||U U^dag - 1||_max = 2e-11 passes and 2e-9 fails DEFAULT_TOL.equality (1e-10)
        assert Operator((1 + 1e-11) * X).is_unitary()
        assert not Operator((1 + 1e-9) * X).is_unitary()

    def test_matrix_is_frozen(self):
        op = Operator(X)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0
        for name in ("matrix", "label"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(op, name, None)
        assert np.array_equal(op.matrix, X) and op.label is None


class TestPauliSum:
    def test_sigma_z_definition(self):
        op = pauli_sum([PauliString.from_word("Z", [1], 1)])
        assert np.array_equal(op.matrix, np.diag([1.0 + 0j, -1.0]))

    def test_exchange_spectrum(self):
        # oracle: brute-force diagonalization of the explicit 4x4
        op = pauli_sum([PauliString(2, w) for w in ("ZZ", "XX", "YY")])
        evals = np.sort(np.linalg.eigvalsh(op.matrix))
        assert np.allclose(evals, [-3, 1, 1, 1], atol=1e-12)
        assert np.allclose(op.matrix, exchange(1, 2, 2).matrix)

    def test_empty_sum(self):
        assert np.array_equal(pauli_sum([], n=1).matrix, np.zeros((2, 2)))

    def test_mismatched_counts(self):
        with pytest.raises(ValidationError):
            pauli_sum([PauliString(1, "Z"), PauliString(2, "ZZ")])

    def test_hermitian_iff_real_coefficients(self):
        assert pauli_sum([PauliString(1, "X", 0.5)]).is_hermitian()
        assert not pauli_sum([PauliString(1, "X", 0.5j)]).is_hermitian()


def fresh_kron(letters):
    """The string's matrix from a new ``np.kron`` chain over ``SIGMA``."""
    m = np.ones((1, 1), dtype=complex)
    for letter in letters:
        m = np.kron(m, SIGMA[letter])
    return m


#: every string on up to three qubits, and a seeded sample on four and five
CACHE_STRINGS = {
    n: ["".join(w) for w in itertools.product("IXYZ", repeat=n)] for n in (1, 2, 3)
}
CACHE_STRINGS.update({
    n: ["".join(w) for w in np.random.default_rng(n).choice(list("IXYZ"), size=(40, n))]
    for n in (4, 5)
})


class TestPauliCache:
    @pytest.mark.parametrize("n", sorted(CACHE_STRINGS))
    def test_matches_fresh_kron(self, n):
        rng = np.random.default_rng(10 + n)
        terms = [PauliString(n, w, complex(*rng.normal(size=2))) for w in CACHE_STRINGS[n]]
        total = np.zeros((2**n, 2**n), dtype=complex)
        for t in terms:
            total += t.coefficient * fresh_kron(t.letters)
            assert np.array_equal(PauliString(n, t.letters).to_operator().matrix, fresh_kron(t.letters))
            assert np.array_equal(t.to_operator().matrix, t.coefficient * fresh_kron(t.letters))
        assert np.array_equal(pauli_sum(terms).matrix, total)

    def test_cached_arrays_are_read_only_and_never_returned(self):
        for letters in ("X", "ZZ", "IYZ"):
            n = len(letters)
            cached = operators._pauli_matrix(letters)
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0, 0] = 5.0
            built = [PauliString(n, letters).to_operator(), pauli_sum([PauliString(n, letters)]),
                     single_qubit(letters[-1], n, n)]
            assert not any(np.shares_memory(op.matrix, cached) for op in built)

    def test_cache_holds_at_most_its_bound(self):
        operators._pauli_matrix.cache_clear()
        bound = operators._PAULI_CACHE_SIZE
        words = ["".join(w) for w in itertools.product("IXYZ", repeat=5)][: bound + 10]
        for w in words:
            PauliString(5, w).to_operator()
        assert operators._pauli_matrix.cache_info().currsize == bound

    def test_cached_string_needs_no_kron(self, monkeypatch):
        calls = []
        kron = np.kron

        def counting(a, b):
            calls.append(1)
            return kron(a, b)

        monkeypatch.setattr(operators.np, "kron", counting)
        operators._pauli_matrix.cache_clear()
        PauliString(3, "XYZ").to_operator()
        assert len(calls) == 3
        calls.clear()
        PauliString(3, "XYZ", 0.5).to_operator()
        pauli_sum([PauliString(3, "XYZ", 2.0), PauliString(3, "XYZ", -1j)])
        assert calls == []


class TestConjugate:
    def test_pauli_anticommutation(self):
        assert np.allclose(conjugate(Z, X).matrix, -Z)

    def test_identity(self):
        h = random_hermitian(2, np.random.default_rng(0))
        assert np.allclose(conjugate(h, np.eye(4)).matrix, h.matrix)

    def test_quarter_turn_about_x(self):
        # oracle: explicit 2x2 product with U = cos(pi/4) 1 - i sin(pi/4) X
        u = np.cos(np.pi / 4) * I2 - 1j * np.sin(np.pi / 4) * X
        expected = u.conj().T @ Z @ u
        got = conjugate(Z, expm(X, np.pi / 4))
        assert np.allclose(got.matrix, expected, atol=1e-14)
        assert np.allclose(got.matrix, Y, atol=1e-14)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            conjugate(Z, 2 * np.eye(2))

    def test_unitarity_threshold_read_from_tol(self):
        # ||U U^dag - 1||_max = 2e-11 passes and 2e-9 fails DEFAULT_TOL.equality (1e-10)
        near = (1 + 1e-11) * expm(X, 0.3).matrix
        assert np.allclose(conjugate(Z, near).matrix, conjugate(Z, expm(X, 0.3)).matrix)
        with pytest.raises(ValidationError):
            conjugate(Z, (1 + 1e-9) * expm(X, 0.3).matrix)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            conjugate(I2, np.full((2, 2), np.nan))
        with pytest.raises(ValidationError):
            conjugate(np.full((2, 2), np.nan), I2)

    def test_preserves_spectrum(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(2, rng)
        u = expm(random_hermitian(2, rng), 0.7)
        before = np.sort(np.linalg.eigvalsh(h.matrix))
        after = np.sort(np.linalg.eigvalsh(conjugate(h, u).matrix))
        assert np.allclose(before, after, atol=1e-10)


class TestExpm:
    def test_diagonal_exponential(self):
        got = expm(Z, np.pi / 2)
        assert np.allclose(got.matrix, np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]))

    def test_zero_hamiltonian(self):
        assert np.allclose(expm(np.zeros((2, 2)), 3.7).matrix, I2)

    def test_pi_over_two_about_x(self):
        # oracle: eigendecomposition of X gives cos - i sin form
        assert np.allclose(expm(X, np.pi / 2).matrix, -1j * X, atol=1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            expm(1j * X + Z, 1.0)

    def test_hermiticity_threshold_read_from_tol(self):
        # ||H - H^dag||_max = 2e-11 passes and 2e-9 fails DEFAULT_TOL.equality (1e-10)
        near = X + 1e-11j * I2
        assert np.allclose(expm(near, 0.3).matrix, expm(X, 0.3).matrix)
        with pytest.raises(ValidationError):
            expm(X + 1e-9j * I2, 0.3)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            expm(np.array([[0.0, 1.0], [1.0, np.nan]]), 0.3)
        with pytest.raises(ValidationError):
            expm(X, np.nan)

    def test_unitary_output(self):
        u = expm(random_hermitian(3, np.random.default_rng(1)), 2.5)
        assert u.is_unitary()

    @given(
        t1=st.floats(-5, 5, allow_nan=False),
        t2=st.floats(-5, 5, allow_nan=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_one_parameter_group(self, t1, t2):
        h = random_hermitian(2, np.random.default_rng(17))
        lhs = expm(h, t1).matrix @ expm(h, t2).matrix
        assert np.allclose(lhs, expm(h, t1 + t2).matrix, atol=1e-10)


class TestLogmEffective:
    def test_identity(self):
        assert np.allclose(logm_effective(np.eye(4), 1.0).matrix, 0)

    def test_inverse_of_expm(self):
        got = logm_effective(expm(Z, 0.3).matrix, 1.0)
        assert np.allclose(got.matrix, 0.3 * Z, atol=1e-12)

    def test_unitarity_threshold_read_from_tol(self):
        # ||U U^dag - 1||_max = 2e-11 passes and 2e-9 fails DEFAULT_TOL.equality (1e-10)
        near = (1 + 1e-11) * expm(Z, 0.3).matrix
        assert np.allclose(logm_effective(near, 1.0).matrix, 0.3 * Z, atol=1e-10)
        with pytest.raises(ValidationError):
            logm_effective((1 + 1e-9) * expm(Z, 0.3).matrix, 1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            logm_effective(np.full((2, 2), np.nan), 1.0)

    def test_bch_third_order(self):
        # oracle: Baker-Campbell-Hausdorff series through third order for
        # exp(A)exp(B) with A = -0.3i Z, B = -0.3i X
        a, b = -0.3j * Z, -0.3j * X
        com = lambda p, q: p @ q - q @ p
        z = (
            a + b + com(a, b) / 2
            + com(a, com(a, b)) / 12 + com(b, com(b, a)) / 12
        )
        h_series = 1j * z
        u = expm(Z, 0.3).matrix @ expm(X, 0.3).matrix
        h_eff = logm_effective(u, 1.0)
        assert np.max(np.abs(h_eff.matrix - h_series)) < 5e-4  # fourth order bound
        # exact contract regardless of the series
        assert np.allclose(expm(h_eff, 1.0).matrix, u, atol=1e-10)

    def test_round_trip_inside_branch(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            h = random_hermitian(2, rng, norm=None)
            h = h * ((np.pi - 0.1) / np.linalg.norm(h.matrix, 2) * rng.uniform(0.1, 1.0))
            assert np.allclose(logm_effective(expm(h, 1.0).matrix, 1.0).matrix, h.matrix, atol=1e-10)

    def test_branch_cut_reported(self):
        with pytest.raises(BranchCutError):
            logm_effective(expm(Z, np.pi).matrix, 1.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            logm_effective(np.eye(2), 0.0)
        with pytest.raises(ValidationError):
            logm_effective(2 * np.eye(2), 1.0)


class TestPairings:
    def test_canonical_commutator(self):
        assert np.allclose(commutator(X, Y).matrix, 2j * Z)

    def test_self_commutator(self):
        h = random_hermitian(2, np.random.default_rng(2))
        assert np.allclose(commutator(h, h).matrix, 0)

    def test_commutator_of_hermitians_is_antihermitian(self):
        rng = np.random.default_rng(9)
        c = commutator(random_hermitian(2, rng), random_hermitian(2, rng)).matrix
        assert np.allclose(c, -c.conj().T)

    def test_normalized_trace_pairing(self):
        assert inner_product(Z, Z) == pytest.approx(1.0)
        with pytest.raises(ValidationError):
            inner_product(Z, np.eye(4))

    def test_pauli_strings_orthonormal(self):
        words = [a + b for a in "IXYZ" for b in "IXYZ"]
        ops = {w: PauliString(2, w).to_operator().matrix for w in words}
        for wa in words:
            for wb in words:
                expected = 1.0 if wa == wb else 0.0
                assert inner_product(ops[wa], ops[wb]) == pytest.approx(expected, abs=1e-14)


class TestDecomposition:
    @given(st.text(alphabet="IXYZ", min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_unit_strings(self, word):
        coeffs = pauli_decompose(PauliString(len(word), word).to_operator())
        assert coeffs[word] == pytest.approx(1.0)
        assert sum(abs(v) for k, v in coeffs.items() if k != word) == pytest.approx(0.0, abs=1e-14)

    def test_collective_and_single(self):
        assert np.allclose(collective("X", 2).matrix, np.kron(X, I2) + np.kron(I2, X))
        assert np.allclose(single_qubit("Y", 2, 2).matrix, np.kron(I2, Y))


class TestImport:
    def test_import_leaves_scipy_linalg_and_optimize_unloaded(self):
        # scipy.linalg is imported inside logm_effective, the one function
        # that uses it, and scipy.optimize nowhere: transformer_reach solves
        # its least squares in numpy.  Both dominate start-up time.  aht.cli
        # pulls in every module of the package.
        src = str(Path(aht.__file__).resolve().parent.parent)
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import aht.cli; "
            "loaded = lambda: sorted(m for m in ('scipy.linalg', 'scipy.optimize') if m in sys.modules); "
            "print(loaded()); "
            "from aht.universality import generate_group, transformer_reach; "
            "assert transformer_reach(generate_group([[[0, 1], [1, 0]]]), [[1, 0], [0, -1]], "
            "[[1, 0], [0, 1]]).reachable is False; "
            "print(loaded())"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, src], capture_output=True, text=True, check=True,
            timeout=120,
        ).stdout
        assert out.split("\n")[:2] == ["[]", "[]"]
