"""Tangential interpolation: feasibility, synthesis, corona, cross-checks."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aglerlab._linalg import min_eig
from aglerlab.auxfun import aux_function, extend_aux_finite, monomial_rows, row_sqnorms
from aglerlab.kernels import PointSample
from aglerlab.pick import (PickProblem, corona_right_inverse, pick_feasible, pick_solve,
                           sigma_model_min_eig)
from aglerlab.preorder import Preordering, classical, standard_ample
from aglerlab.realize import (FunctionSample, SolverParams, agler_decompose, eval_transfer,
                              lurking_isometry)
from aglerlab.sampling import random_points, random_transfer_sample
from helpers import classical_pick_matrix

RNG = np.random.default_rng
DISK = Preordering([(1,)])


def pointwise_right_inverse(sample: PointSample, lam) -> np.ndarray:
    """Sanity oracle omega(x) = psi^+(x)^* / |psi^+(x)|^2 (no norm bound claim)."""
    plus, _ = monomial_rows(sample.points, tuple(int(v) for v in lam))
    return plus.conj()[:, :, None] / row_sqnorms(plus)[:, None, None]


def scalar_problem(zs, targets, pre=DISK, a_vals=None):
    nodes = PointSample(np.array(zs, dtype=complex).reshape(len(zs), -1))
    a = (np.ones((len(zs), 1, 1), dtype=complex) if a_vals is None
         else np.array(a_vals, dtype=complex).reshape(-1, 1, 1))
    b = np.array(targets, dtype=complex).reshape(-1, 1, 1)
    return PickProblem(nodes, a, b, pre)


class TestFeasibility:
    def test_zero_target_always_feasible(self):
        rng = RNG(0)
        nodes = random_points(rng, 3, 2)
        a = rng.normal(size=(3, 1, 1)) + 1j * rng.normal(size=(3, 1, 1))
        problem = PickProblem(nodes, a, np.zeros_like(a), standard_ample(2))
        assert pick_feasible(problem).feasible

    def test_single_node_modulus(self):
        assert pick_feasible(scalar_problem([0.3], [0.5])).feasible
        out = pick_feasible(scalar_problem([0.3], [1.3]))
        assert out.status == "infeasible"
        assert out.witness is not None

    def test_classical_two_node(self):
        # oracle: 2x2 Pick matrix [[1, 1], [1, (1-|w|^2)/(1-|z|^2)]]
        ok = scalar_problem([0.0, 0.5], [0.0, 0.5])
        m_ok = classical_pick_matrix(ok)
        assert np.allclose(m_ok, [[1, 1], [1, 1]])
        assert pick_feasible(ok).feasible

        bad = scalar_problem([0.0, 0.5], [0.0, 0.9])
        m_bad = classical_pick_matrix(bad)
        assert m_bad[1, 1] == pytest.approx((1 - 0.81) / (1 - 0.25))
        assert np.linalg.eigvalsh(m_bad).min() < 0
        out = pick_feasible(bad)
        assert out.status == "infeasible"

    def test_agreement_with_pick_matrix_sign(self):
        rng = RNG(1)
        disagreements = 0
        for _ in range(200):
            n = int(rng.integers(2, 5))
            nodes = random_points(rng, n, 1)
            b = rng.uniform(0, 1.2, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
            problem = scalar_problem(nodes.points[:, 0], b)
            lo = np.linalg.eigvalsh(classical_pick_matrix(problem)).min()
            if abs(lo) <= 1e-8:
                continue
            out = pick_feasible(problem)
            if (lo > 0) != (out.status == "feasible"):
                disagreements += 1
        assert disagreements == 0


class TestSolve:
    def test_reproduces_identity_map(self):
        problem = scalar_problem([0.0, 0.5], [0.0, 0.5])
        out = pick_feasible(problem)
        sol = pick_solve(problem, out.certificate)
        assert sol.node_residual < 1e-7
        # held-out point: no uniqueness claim, only contractivity
        assert np.linalg.norm(eval_transfer(sol.colligation, [[0.25]])[0], 2) <= 1 + 1e-10

    def test_constant_ratio(self):
        rng = RNG(2)
        nodes = random_points(rng, 4, 1)
        a = rng.normal(size=(4, 1, 1)) + 1j * rng.normal(size=(4, 1, 1))
        b = 0.6 * a
        problem = PickProblem(nodes, a, b, DISK)
        out = pick_feasible(problem)
        assert out.feasible
        sol = pick_solve(problem, out.certificate)
        assert sol.node_residual < 1e-7
        for z in (0.1, -0.2 + 0.3j):
            assert np.linalg.norm(eval_transfer(sol.colligation, [[z]])[0], 2) <= 1 + 1e-10

    def test_bidisk_forward_generated_ample(self):
        rng = RNG(3)
        phi, _ = random_transfer_sample(rng, 3, 2)
        a = rng.normal(size=(3, 1, 1)) + 1j * rng.normal(size=(3, 1, 1))
        b = phi.values * a
        problem = PickProblem(phi.sample, a, b, standard_ample(2))
        out = pick_feasible(problem)
        assert out.feasible
        sol = pick_solve(problem, out.certificate)
        assert sol.node_residual < 1e-7

    def test_bidisk_forward_generated_classical(self):
        rng = RNG(4)
        phi, _ = random_transfer_sample(rng, 3, 2)
        a = rng.normal(size=(3, 1, 1)) + 1j * rng.normal(size=(3, 1, 1))
        b = phi.values * a
        problem = PickProblem(phi.sample, a, b, classical(2))
        out = pick_feasible(problem, SolverParams(max_iter=60000))
        assert out.feasible
        sol = pick_solve(problem, out.certificate)
        assert sol.node_residual < 1e-7


class TestCorona:
    def test_weight_one_inverse_is_constant_one(self):
        rng = RNG(5)
        s = random_points(rng, 3, 1)
        omegas, sol, res = corona_right_inverse(s, (1,), DISK)
        assert res < 1e-12
        assert np.allclose(omegas, 1.0)

    def test_bidisk(self):
        rng = RNG(6)
        s = random_points(rng, 4, 2)
        omegas, sol, res = corona_right_inverse(s, (1, 1), standard_ample(2))
        assert res < 1e-8
        for x in range(4):
            pr = monomial_rows(s.points[x:x + 1], (1, 1))[0][0]
            assert abs(pr @ omegas[x][:, 0] - 1.0) < 1e-8
        # off the node set only contractivity is promised
        z = random_points(rng, 1, 2).points[0]
        assert np.linalg.norm(eval_transfer(sol.colligation, [z])[0], 2) <= 1 + 1e-9

    def test_omegas_are_the_solutions_node_values(self):
        s = random_points(RNG(6), 4, 2)
        omegas, sol, _ = corona_right_inverse(s, (1, 1), standard_ample(2))
        assert np.array_equal(omegas, eval_transfer(sol.colligation, s.points)[:, :, :1])

    def test_pointwise_fallback(self):
        rng = RNG(7)
        s = random_points(rng, 4, 2)
        om = pointwise_right_inverse(s, (1, 1))
        for x in range(4):
            pr = monomial_rows(s.points[x:x + 1], (1, 1))[0][0]
            assert abs(pr @ om[x][:, 0] - 1.0) < 1e-14


class TestInvariants:
    def test_self_consistency_with_realize(self):
        rng = RNG(8)
        phi, _ = random_transfer_sample(rng, 4, 2)
        problem = PickProblem(phi.sample, np.ones((4, 1, 1), dtype=complex),
                              phi.values, standard_ample(2))
        out = pick_feasible(problem)
        assert out.feasible
        sol = pick_solve(problem, out.certificate)
        assert sol.node_residual < 1e-7

    @pytest.mark.parametrize("pre", [classical(2), standard_ample(2)], ids=["classical", "ample"])
    def test_realize_is_pick_with_identity(self, pre):
        phi, _ = random_transfer_sample(RNG(10), 4, 2)
        phi = FunctionSample(phi.sample, 0.9 * phi.values)
        out = agler_decompose(phi, pre, 1.0)
        assert out.feasible
        col = lurking_isometry(out.certificate, phi)
        problem = PickProblem(phi.sample, np.ones((4, 1, 1)), phi.values, pre)
        pick = pick_solve(problem, out.certificate).colligation
        for block in "ABCD":
            assert np.array_equal(getattr(col, block), getattr(pick, block)), block
        assert col.partition == pick.partition

    def test_node_monotonicity(self):
        rng = RNG(9)
        for _ in range(20):
            n = int(rng.integers(3, 5))
            nodes = random_points(rng, n, 1)
            b = rng.uniform(0, 1.1, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
            full = scalar_problem(nodes.points[:, 0], b)
            sub = scalar_problem(nodes.points[:-1, 0], b[:-1])
            f_full = pick_feasible(full).feasible
            f_sub = pick_feasible(sub).feasible
            if f_full:
                assert f_sub  # shrinking the node set preserves feasibility

    def test_sigma_model_path_agrees_on_clear_margins(self):
        # the sigma-model predicate carries the finite-stage extension error,
        # so its deviation from the authoritative Szego path is bounded by
        # the extension's pointwise defect; clear violations sign-agree
        rng = RNG(10)
        pre = standard_ample(2)
        for trial in range(6):
            phi, _ = random_transfer_sample(rng, 3, 2)
            ext = extend_aux_finite(phi.sample, (1, 1), pre)
            # perturbing the defect by eps perturbs its blockwise inverse by
            # up to eps |k_sigma|^2, which is the band the predicate inherits
            n, N = ext.aux.n, 3
            ksig = np.zeros((N * n, N * n), dtype=complex)
            for x in range(N):
                for y in range(N):
                    ksig[x * n:(x + 1) * n, y * n:(y + 1) * n] = np.linalg.inv(
                        np.eye(n) - ext.aux.sigmas[x] @ ext.aux.sigmas[y].conj().T)
            amp = np.linalg.norm(ksig, 2) ** 2
            band = 4 * abs(ext.pointwise_defect_min_eig) * amp + 1e-8
            a = np.ones((3, 1, 1), dtype=complex)
            feasible_problem = PickProblem(phi.sample, a, 0.9 * phi.values, pre)
            infeasible_problem = PickProblem(
                phi.sample, a, (2.5 / max(phi.sup_norm(), 1e-2)) * phi.values, pre)
            assert pick_feasible(feasible_problem).feasible
            assert sigma_model_min_eig(feasible_problem, ext.aux) >= -band
            out = pick_feasible(infeasible_problem)
            assert out.status == "infeasible"
            assert sigma_model_min_eig(infeasible_problem, ext.aux) < 0


def test_shape_validation():
    nodes = PointSample(np.array([[0.1 + 0j], [0.2 + 0j]]))
    with pytest.raises(ValueError, match="matching"):
        PickProblem(nodes, np.ones((2, 1, 1)), np.ones((3, 1, 1)), DISK)
    with pytest.raises(ValueError, match="dimension"):
        PickProblem(nodes, np.ones((2, 1, 1)), np.ones((2, 1, 1)), classical(2))


def test_classical_bidisk_infeasible_with_witness():
    # exercises the iterative solver's dual extraction on a Pick target
    rng = RNG(77)
    nodes = random_points(rng, 3, 2)
    a = np.ones((3, 1, 1), dtype=complex)
    b = np.array([0.2, 1.4, 0.3], dtype=complex).reshape(3, 1, 1)
    out = pick_feasible(PickProblem(nodes, a, b, classical(2)),
                        SolverParams(max_iter=40_000))
    assert out.status == "infeasible"
    assert out.witness is not None and out.witness.pairing < 0


# ---------------------------------------------------------------------------
# reference implementation: the sigma-model matrix laid out block by block, as
# before schur_product built it


def ref_sigma_model_min_eig(problem, sigma_ext):
    N, n, m = problem.nodes.n_points, sigma_ext.n, problem.m
    R = problem.target_blocks()
    big = np.zeros((N * m * n, N * m * n), dtype=complex)
    for x in range(N):
        for y in range(N):
            ksig = np.linalg.inv(np.eye(n) - sigma_ext.sigmas[x] @ sigma_ext.sigmas[y].conj().T)
            big[x * m * n:(x + 1) * m * n, y * m * n:(y + 1) * m * n] = np.kron(R[x, y], ksig)
    return min_eig(big), np.abs(big).max()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(d=st.sampled_from([2, 3]), m=st.sampled_from([1, 2]), n_points=st.integers(1, 6),
       edge=st.sampled_from([None, 1 - 1e-6, 1 - 1e-10]), extended=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sigma_model_min_eig_matches_blockwise_reference(d, m, n_points, edge, extended, seed):
    # the batched inverse and kron may round differently: 1e-12 x scale
    rng = RNG(seed)
    lam = tuple(int(v) for v in rng.integers(0, 2, d))
    lam = lam if any(lam) else (1,) * d
    pts = random_points(rng, n_points, d, rmax=0.9).points.copy()
    if edge is not None:  # one coordinate near the torus
        pts[rng.integers(n_points), rng.integers(d)] = edge * np.exp(2j * np.pi * rng.uniform())
    nodes = PointSample(pts)
    try:
        sigma = (extend_aux_finite(nodes, lam, standard_ample(d)).aux if extended
                 else aux_function(nodes, lam))
    except ArithmeticError:  # the finite-stage construction broke down near the torus
        return
    a, b = (rng.normal(size=(n_points, m, m)) + 1j * rng.normal(size=(n_points, m, m))
            for _ in range(2))
    problem = PickProblem(nodes, a, b, standard_ample(d))
    ref, scale = ref_sigma_model_min_eig(problem, sigma)
    assert abs(sigma_model_min_eig(problem, sigma) - ref) <= 1e-12 * scale
