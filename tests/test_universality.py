"""Lie closures, symmetric splits, transformer reachability."""
import warnings

import numpy as np
import pytest

from aht.codes import ns3_logical_hamiltonian
from aht.config import DEFAULT_TOL, ValidationError
from aht.decoupling import builtin_groups, project_group
from aht.operators import (
    SIGMA,
    expm,
    inner_product,
    random_hermitian,
    random_traceless_hermitian,
)
from aht.universality import (
    _nnls,
    cp_split,
    generate_group,
    lie_closure,
    transformer_generators,
    transformer_reach,
)

I2, X, Y, Z = SIGMA["I"], SIGMA["X"], SIGMA["Y"], SIGMA["Z"]


def transformer24():
    return generate_group([t.matrix for t in transformer_generators()], max_order=48)


def sequential_closure(gens, max_dim):
    """Reference closure: one commutator at a time, modified Gram-Schmidt twice."""
    vecs, ops, truncated = [], [], False

    def try_add(m):
        nonlocal truncated
        v = np.concatenate([m.real.ravel(), m.imag.ravel()]) / np.sqrt(len(m))
        for b in vecs + vecs:
            v = v - (b @ v) * b
        r = np.linalg.norm(v)
        truncated |= bool(r > DEFAULT_TOL.rank and len(vecs) >= max_dim)
        if r > DEFAULT_TOL.rank and not truncated:
            vecs.append(v / r)
            ops.append((v[: m.size] + 1j * v[m.size:]).reshape(m.shape) * np.sqrt(len(m)) / r)

    for g in gens:
        try_add(g)
    frontier = range(len(ops))
    while frontier and not truncated:
        start = len(ops)
        for i in frontier:
            for j in range(len(ops)):
                try_add(ops[i] @ ops[j] - ops[j] @ ops[i])
        frontier = range(start, len(ops))
    return ops, truncated


def random_generators(n_qubits, seed, traceless=True):
    rng = np.random.default_rng(seed)
    draw = random_traceless_hermitian if traceless else random_hermitian
    return [1j * draw(n_qubits, rng).matrix for _ in range(2)]


def parity_generators(seed):
    """Two traceless 3-qubit generators commuting with Z Z Z: su(4) + su(4) + u(1), dim 31."""
    parity = np.kron(Z, np.kron(Z, Z))
    return [(g + parity @ g @ parity) / 2 for g in random_generators(3, seed)]


class TestLieClosure:
    def test_single_generator(self):
        assert lie_closure([1j * X]).dimension == 1

    def test_su2_from_two(self):
        basis = lie_closure([1j * X, 1j * Y])
        assert basis.dimension == 3
        assert not basis.truncated

    def test_ns3_logical_pair(self):
        h_l = ns3_logical_hamiltonian(0.0, 1.2, 0.3, -0.4)
        projected = project_group(h_l, builtin_groups()["cp_x"])
        assert lie_closure([1j * h_l.matrix, 1j * projected.matrix]).dimension == 3

    def test_antihermiticity_threshold_read_from_tol(self):
        # ||G + G^dag||_max = 2e-11 passes and 2e-9 fails DEFAULT_TOL.equality (1e-10)
        assert lie_closure([1j * X + 1e-11 * Z, 1j * Y]).dimension == 3
        with pytest.raises(ValidationError):
            lie_closure([1j * X + 1e-9 * Z, 1j * Y])

    @pytest.mark.parametrize("scales", [
        *((s, s) for s in (1e-300, 1e-160, 1e-10, 1e-9, 1.0, 1e154, 1e155, 1e300)), (1e300, 1e-300),
    ], ids=lambda scales: "{:g},{:g}".format(*scales))
    def test_dimension_does_not_depend_on_scale(self, scales):
        # su(2) from X and Y at any generator scale, and with scales 600 decades apart
        assert lie_closure([scales[0] * 1j * X, scales[1] * 1j * Y]).dimension == 3

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            lie_closure([1j * np.full((2, 2), np.nan)])

    @pytest.mark.parametrize("bad", ["inf entry", "nan matrix"])
    def test_non_finite_generator_is_one_validation_error(self, bad):
        # refused before the scaling: no RuntimeWarning, no anti-Hermitian complaint
        if bad == "inf entry":
            g = 1j * X
            g[0, 1] = np.inf
        else:
            g = np.full((2, 2), np.nan, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="lie_closure generator must be finite"):
                lie_closure([1j * Y, g])

    def test_rejects_hermitian_input(self):
        with pytest.raises(ValidationError):
            lie_closure([X])

    def test_truncation_reported(self):
        basis = lie_closure([1j * X, 1j * Y], max_dim=2)
        assert basis.truncated
        assert basis.dimension == 2

    def test_basis_is_orthonormal_and_closed(self):
        rng = np.random.default_rng(21)
        gens = [1j * random_traceless_hermitian(2, rng).matrix for _ in range(2)]
        basis = lie_closure(gens)
        ops = [b.matrix for b in basis.basis]
        for i, a in enumerate(ops):
            for j, b in enumerate(ops):
                expected = 1.0 if i == j else 0.0
                assert inner_product(a, b).real == pytest.approx(expected, abs=1e-8)
                assert abs(inner_product(a, b).imag) < 1e-8
        # every commutator of basis elements stays in the span
        for a in ops:
            for b in ops:
                c = a @ b - b @ a
                residual = c.copy()
                for e in ops:
                    residual -= inner_product(e, c) * e
                assert np.max(np.abs(residual)) < 1e-7

    @pytest.mark.parametrize("traceless,expected", [(True, 255), (False, 256)])
    def test_four_qubit_closure(self, traceless, expected):
        basis = lie_closure(random_generators(4, 5, traceless))
        assert (basis.dimension, basis.truncated) == (expected, False)

    @pytest.mark.parametrize(
        "gens,max_dims,full",
        [
            (random_generators(2, 8), (2, 3, 7, 15, 256), 15),
            (random_generators(2, 9, traceless=False), (5, 16), 16),
            (random_generators(3, 10), (4, 20, 41), 63),
            (parity_generators(11), (12, 30, 31, 256), 31),
        ],
        ids=["su4", "u4", "su8", "su4+su4+u1"],
    )
    def test_matches_sequential_gram_schmidt(self, gens, max_dims, full):
        assert lie_closure(gens).dimension == full
        for max_dim in max_dims:
            basis = lie_closure(gens, max_dim=max_dim)
            ops, truncated = sequential_closure(gens, max_dim)
            assert (basis.dimension, basis.truncated) == (len(ops), truncated)
            for got, want in zip(basis.basis, ops):
                assert np.max(np.abs(got.matrix - want)) <= 1e-12

    @pytest.mark.parametrize(
        "gens", [parity_generators(12), random_generators(4, 13)], ids=["su4+su4+u1", "su16"]
    )
    def test_commutators_stay_in_span(self, gens):
        basis = lie_closure(gens)
        ops = np.stack([b.matrix for b in basis.basis])
        dim = ops.shape[1]
        rng = np.random.default_rng(14)
        for i, j in rng.integers(basis.dimension, size=(30, 2)):
            c = ops[i] @ ops[j] - ops[j] @ ops[i]
            coeffs = np.einsum("kab,ab->k", ops.conj(), c) / dim
            residual = c - np.einsum("k,kab->ab", coeffs, ops)
            assert np.sqrt(np.vdot(residual, residual).real / dim) <= DEFAULT_TOL.rank

    def test_invariance_under_order_and_conjugation(self):
        rng = np.random.default_rng(34)
        g1 = 1j * random_traceless_hermitian(2, rng).matrix
        g2 = 1j * random_traceless_hermitian(2, rng).matrix
        d_forward = lie_closure([g1, g2]).dimension
        d_backward = lie_closure([g2, g1]).dimension
        u = expm(random_hermitian(2, rng), 0.9).matrix
        d_conj = lie_closure([u.conj().T @ g1 @ u, u.conj().T @ g2 @ u]).dimension
        assert d_forward == d_backward == d_conj


class TestCpSplit:
    def test_basic_split(self):
        hs, ha = cp_split(Z + X, X)
        assert np.allclose(hs.matrix, X)
        assert np.allclose(ha.matrix, Z)

    def test_sum_and_projector_agreement(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(1, rng).matrix
        pulse = expm(X, np.pi / 2).matrix
        hs, ha = cp_split(h, pulse)
        assert np.allclose(hs.matrix + ha.matrix, h, atol=1e-14)
        assert np.allclose(hs.matrix, project_group(h, builtin_groups()["cp_x"]).matrix, atol=1e-12)

    def test_parts_orthogonal(self):
        rng = np.random.default_rng(6)
        h = random_hermitian(1, rng).matrix
        hs, ha = cp_split(h, X)
        assert abs(inner_product(hs, ha)) < 1e-12

    def test_invariant_hamiltonian(self):
        _, ha = cp_split(X, X)
        assert np.max(np.abs(ha.matrix)) < 1e-14

    def test_noncommuting_parts_grow_su2(self):
        rng = np.random.default_rng(41)
        h = random_traceless_hermitian(1, rng).matrix
        hs, ha = cp_split(h, X)
        if np.max(np.abs(hs.matrix @ ha.matrix - ha.matrix @ hs.matrix)) > 1e-6:
            assert lie_closure([1j * h, 1j * hs.matrix]).dimension >= 3

    def test_rejects_non_involution(self):
        with pytest.raises(ValidationError):
            cp_split(Z, expm(X, np.pi / 4).matrix)


class TestTransformerReach:
    def test_group_order(self):
        assert len(transformer24().frames) == 24

    def test_permutes_pauli_directions(self):
        g = transformer24()
        r = transformer_reach(g, Z, X)
        assert r.reachable
        # the returned solution really solves the average equation
        recon = sum(
            tau * (f.matrix.conj().T @ Z @ f.matrix)
            for tau, f in zip(r.weights, g.frames)
        )
        assert np.max(np.abs(recon - r.scale * X)) < 1e-8
        assert abs(sum(r.weights) - 1) < 1e-12

    def test_cp_orbit_cannot_rotate_z_to_x(self):
        r = transformer_reach(builtin_groups()["cp_x"], Z, X)
        assert not r.reachable
        assert r.residual > 0.5

    def test_target_equals_start(self):
        g = transformer24()
        a = random_traceless_hermitian(1, np.random.default_rng(2)).matrix
        r = transformer_reach(g, a, a)
        assert r.reachable
        assert r.scale > 0

    def test_fifty_random_targets(self):
        rng = np.random.default_rng(50)
        g = transformer24()
        for _ in range(50):
            a = random_traceless_hermitian(1, rng, norm=1.0)
            t = random_traceless_hermitian(1, rng, norm=1.0)
            r = transformer_reach(g, a, t)
            assert r.reachable and r.residual < 1e-8

    def test_degenerate_inputs(self):
        g = transformer24()
        with pytest.raises(ValidationError):
            transformer_reach(g, np.zeros((2, 2)), X)
        with pytest.raises(ValidationError):
            transformer_reach(g, X, np.zeros((2, 2)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("argument", ["a", "target"])
    def test_non_finite_input_is_one_validation_error(self, argument, value):
        bad = Z.astype(complex)
        bad[0, 1] = value
        a, t = (bad, X) if argument == "a" else (Z, bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="finite"):
                transformer_reach(transformer24(), a, t)

    @pytest.mark.parametrize("scale_a", [1e-15, 1.0, 1e200])
    @pytest.mark.parametrize("scale_t", [1e-15, 1.0, 1e200])
    def test_verdict_and_scale_do_not_depend_on_input_scale(self, scale_a, scale_t):
        g = transformer24()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = transformer_reach(g, scale_a * Z, scale_t * X)
            stuck = transformer_reach(builtin_groups()["cp_x"], scale_a * Z, scale_t * X)
        assert r.reachable and not stuck.reachable
        assert stuck.residual > 0.5
        # sum tau U^dag A U = lambda target, in the caller's units
        recon = sum(tau * (f.matrix.conj().T @ Z @ f.matrix) for tau, f in zip(r.weights, g.frames))
        assert np.max(np.abs(scale_a * recon - r.scale * scale_t * X)) <= 1e-12 * scale_a
        assert r.scale == pytest.approx(transformer_reach(g, Z, X).scale * scale_a / scale_t, rel=1e-12)

    def test_projection_lies_in_reachable_cone(self):
        rng = np.random.default_rng(61)
        for name, group in builtin_groups().items():
            h = random_traceless_hermitian(group.dim.bit_length() - 1, rng)
            projected = project_group(h, group)
            if np.linalg.norm(projected.matrix) < 1e-12:
                continue
            assert transformer_reach(group, h, projected.matrix).reachable, name


def conjugate_design(group, a, target):
    """The columns vec(U^dag a U) and vec(target) in real coordinates."""
    def vec(m):
        return np.concatenate([m.real.ravel(), m.imag.ravel()])

    columns = [vec(f.matrix.conj().T @ a @ f.matrix) for f in group.frames]
    return np.column_stack(columns), vec(target)


def assert_kkt(a, b, x):
    """Optimality of ``x >= 0`` for min ||a x - b||: the gradient a^T (b - a x)
    vanishes where x > 0 and is nonpositive where x = 0."""
    gradient = a.T @ (b - a @ x)
    assert np.all(x >= 0)
    assert np.all(np.abs(gradient[x > 0]) <= 1e-10)
    assert np.all(gradient[x == 0] <= 1e-10)


class TestNonnegativeLeastSquares:
    def test_matches_scipy_on_every_builtin_group(self):
        from scipy.optimize import nnls  # the oracle; the package does not import it

        rng = np.random.default_rng(21)
        for name, group in builtin_groups().items():
            n_qubits = group.dim.bit_length() - 1
            weights = rng.dirichlet(np.ones(len(group.frames)))
            verdicts = []
            for mixture in (False, True) * 4:
                a = random_hermitian(n_qubits, rng).matrix
                if mixture:  # a nonnegative mixture of the conjugates: reachable
                    target = sum(w * f.matrix.conj().T @ a @ f.matrix
                                 for w, f in zip(weights, group.frames))
                else:
                    target = random_hermitian(n_qubits, rng).matrix
                design, rhs = conjugate_design(group, a, target)
                x, residual = _nnls(design, rhs)
                _, expected = nnls(design, rhs)
                bar = DEFAULT_TOL.rank * np.linalg.norm(rhs)
                assert (residual < bar) == (expected < bar), name
                assert residual == pytest.approx(expected, abs=1e-12), name
                assert residual == pytest.approx(np.linalg.norm(design @ x - rhs), abs=1e-14)
                assert_kkt(design, rhs, x)
                verdicts.append(bool(residual < bar))
            assert all(verdicts[1::2]) and not all(verdicts[::2]), name

    def test_steps_back_when_a_coefficient_turns_negative(self):
        # column 0 enters first; with column 1 its coefficient turns negative
        # (-3.6), so the solution is column 1 alone
        a = np.array([[1.0, 0.9], [0.0, 0.1]])
        b = np.array([0.9, 0.5])
        x, residual = _nnls(a, b)
        assert x[0] == 0 and x[1] == pytest.approx(0.86 / 0.82, rel=1e-14)
        assert_kkt(a, b, x)

    def test_matches_scipy_on_random_designs(self):
        from scipy.optimize import nnls

        rng = np.random.default_rng(25)
        for shape in [(8, 12), (12, 8), (8, 8)] * 10:
            a, b = rng.normal(size=shape), rng.normal(size=shape[0])
            x, residual = _nnls(a, b)
            assert residual == pytest.approx(nnls(a, b)[1], abs=1e-12)
            assert_kkt(a, b, x)

    def test_negative_cone_gives_zero(self):
        rng = np.random.default_rng(22)
        a = rng.uniform(0.1, 1.0, size=(6, 4))
        b = -rng.uniform(0.1, 1.0, size=6)
        x, residual = _nnls(a, b)
        assert np.all(x == 0)
        assert residual == pytest.approx(np.linalg.norm(b), rel=1e-15)

    def test_column_gives_that_column(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(8, 5))
        for j in range(5):
            x, residual = _nnls(a, a[:, j])
            assert np.allclose(x, np.eye(5)[j], atol=1e-12)
            assert residual < 1e-12

    def test_duplicate_columns(self):
        rng = np.random.default_rng(24)
        base = rng.normal(size=(8, 3))
        a = base[:, [0, 1, 1, 2, 0]]
        b = a @ np.array([0.5, 0.0, 0.25, 1.0, 0.0])
        x, residual = _nnls(a, b)
        assert residual < 1e-12
        # duplicated columns may split their weight, but each sum is fixed
        assert x[0] + x[4] == pytest.approx(0.5, abs=1e-12)
        assert x[1] + x[2] == pytest.approx(0.25, abs=1e-12)
        assert x[3] == pytest.approx(1.0, abs=1e-12)
        assert_kkt(a, b, x)


class TestGenerateGroup:
    def test_pi_x_closure(self):
        assert len(generate_group([X]).frames) == 2

    def test_identity_closure(self):
        assert len(generate_group([np.eye(2)]).frames) == 1

    def test_transformer_closure_order(self):
        assert len(transformer24().frames) == 24

    def test_closure_budget_enforced(self):
        with pytest.raises(ValidationError):
            generate_group([t.matrix for t in transformer_generators()], max_order=8)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            generate_group([2 * X])
