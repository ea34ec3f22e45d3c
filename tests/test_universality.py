"""Lie closures, symmetric splits, transformer reachability."""
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

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            lie_closure([1j * np.full((2, 2), np.nan)])

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

    def test_projection_lies_in_reachable_cone(self):
        rng = np.random.default_rng(61)
        for name, group in builtin_groups().items():
            h = random_traceless_hermitian(group.dim.bit_length() - 1, rng)
            projected = project_group(h, group)
            if np.linalg.norm(projected.matrix) < 1e-12:
                continue
            assert transformer_reach(group, h, projected.matrix).reachable, name


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
