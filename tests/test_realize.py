"""Decomposition solver, witnesses, colligations, transfer functions, norm."""
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from aglerlab._linalg import DEFAULT_TOL, polar_isometry, psd_clip, unitary_completion
from aglerlab.kernels import (HermitianKernel, PointSample, defect_factor, kolmogorov,
                              ones_kernel, psd_check)
from aglerlab.opmodel import kv_polynomial
from aglerlab.pick import PickProblem
from aglerlab.preorder import (Preordering, classical, minimal_reduction, parity_split,
                               standard_ample, standard_nearly_ample, unit, weight)
from aglerlab.realize import (Colligation, FunctionSample, SolverParams,
                              agler_decompose, ample_membership, decide_target,
                              eval_transfer, lurking_colligation, lurking_isometry,
                              pick_target, schur_agler_norm, target_blocks, transfer_compose,
                              validate_certificate, validate_witness)
from aglerlab.sampling import (random_classical_colligation, random_points,
                               random_transfer_sample, random_unitary)

RNG = np.random.default_rng


def sample_of(*zs, d=1):
    return PointSample(np.array(zs, dtype=complex).reshape(-1, d))


class TestAmpleMembership:
    def test_coordinate_function_in_ball(self):
        rng = RNG(0)
        s = random_points(rng, 5, 1)
        phi = FunctionSample(s, s.points[:, 0])
        ok, _ = ample_membership(phi, Preordering([(1,)]), 1.0)
        assert ok

    def test_double_coordinate_out(self):
        s = sample_of(0.9)
        phi = FunctionSample(s, np.array([1.8 + 0j]))
        ok, lo = ample_membership(phi, Preordering([(1,)]), 1.0)
        # oracle: (1 - 3.24) / (1 - 0.81)
        assert not ok
        assert lo == pytest.approx((1 - 1.8 ** 2) / (1 - 0.81))

    def test_bidisk_average(self):
        rng = RNG(1)
        s = random_points(rng, 6, 2)
        phi = FunctionSample(s, (s.points[:, 0] + s.points[:, 1]) / 2)
        ok, lo = ample_membership(phi, standard_ample(2), 1.0)
        assert ok and lo >= -1e-12

    def test_rejects_non_ample(self):
        rng = RNG(2)
        s = random_points(rng, 2, 2)
        phi = FunctionSample(s, s.points[:, 0])
        with pytest.raises(ValueError, match="ample"):
            ample_membership(phi, classical(2), 1.0)


class TestDecompose:
    def test_coordinate_d1_certificate_is_all_ones(self):
        # oracle: 1 - z w~ = Gamma(z,w) (1 - z w~) forces Gamma = [1]
        rng = RNG(3)
        s = random_points(rng, 3, 1)
        phi = FunctionSample(s, s.points[:, 0])
        out = agler_decompose(phi, Preordering([(1,)]), 1.0)
        assert out.feasible and out.residual < 1e-12
        G = out.certificate.gammas[(1,)]
        assert np.abs(G.blocks[:, :, 0, 0] - 1).max() < 1e-12

    def test_product_function_bidisk(self):
        # oracle: Gamma_1 = [1], Gamma_2 = (z1 w1~) reassemble 1 - z1 z2 w1~ w2~
        rng = RNG(4)
        s = random_points(rng, 4, 2)
        z = s.points
        phi = FunctionSample(s, z[:, 0] * z[:, 1])
        d1 = defect_factor(s, (1, 0))
        d2 = defect_factor(s, (0, 1))
        cand = (np.ones((4, 4)) * d1 + np.outer(z[:, 0], z[:, 0].conj()) * d2)
        target = 1 - np.outer(phi.values[:, 0, 0], phi.values[:, 0, 0].conj())
        assert np.abs(cand - target).max() < 1e-14
        out = agler_decompose(phi, classical(2), 1.0)
        assert out.feasible
        ok, resid, _ = validate_certificate(phi, classical(2), 1.0,
                                            out.certificate, 1e-8)
        assert ok and resid <= 1e-8

    def test_single_point_scaled_down_infeasible(self):
        s = sample_of(0.5)
        phi = FunctionSample(s, np.array([0.5 + 0j]))
        out = agler_decompose(phi, Preordering([(1,)]), 0.4)
        assert out.status == "infeasible"
        assert out.witness is not None
        assert out.witness.pairing < 0
        # the spec's one-point separating kernel [1]: pairing 0.16 - 0.25
        wit = validate_witness(phi, Preordering([(1,)]), 0.4, ones_kernel(s), 1e-8)
        assert wit is not None
        assert wit.pairing == pytest.approx(-0.09)

    def test_witness_validation_eigen_solves_once(self, monkeypatch):
        import aglerlab.kernels as kernels
        import aglerlab.realize as realize
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return psd_check(*args, **kwargs)

        monkeypatch.setattr(kernels, "psd_check", counted)
        monkeypatch.setattr(realize, "psd_check", counted)
        s = sample_of(0.5)
        phi = FunctionSample(s, np.array([0.5 + 0j]))
        assert validate_witness(phi, Preordering([(1,)]), 0.4, ones_kernel(s), 1e-8) is not None
        assert len(calls) == 1

    def test_statuses_are_validated_before_return(self):
        rng = RNG(5)
        phi, _ = random_transfer_sample(rng, 4, 2)
        pre = classical(2)
        out = agler_decompose(phi, pre, 1.0)
        assert out.feasible
        ok, _, _ = validate_certificate(phi, pre, 1.0, out.certificate, 1e-8)
        assert ok

    @pytest.mark.parametrize("r", [0.99, 0.999])
    @pytest.mark.parametrize("drop", [(0, 1), (0, 2), (1, 2)])
    def test_near_torus_below_sup_is_separated(self, r, drop):
        # phi = p_KV/5 on samples running up to its peak points, at c = 0.97
        # below sup|phi| = r^2, where the defect factors nearly vanish; the
        # dual iterate must stay bounded and still separate
        p = kv_polynomial()
        theta = RNG(103).uniform(0, 2 * np.pi, 3)
        pts = r * np.array([[1, 1, -1], [1, -1, 1], [-1, 1, 1], np.exp(1j * theta)])
        vals = [sum(coef[0, 0] * np.prod(z ** np.array(lam)) for lam, coef in p.coeffs.items())
                for z in pts]
        phi = FunctionSample(PointSample(pts), np.array(vals) / 5)
        pre = standard_nearly_ample(3, *drop)
        out = agler_decompose(phi, pre, 0.97, SolverParams(max_iter=30_000, stall_rtol=1e-9))
        assert out.status == "infeasible"
        assert validate_witness(phi, pre, 0.97, out.witness.kernel, 1e-8) is not None

    def test_ample_witness_outranks_a_certificate_within_tolerance(self):
        # cli-batch seed 1909, op 12: the Szego Gamma's least eigenvalue, -2.2e-8,
        # is within feas_tol * scale, yet the witness from its eigenvector
        # separates beyond the witness validator's tolerance
        rng = RNG(1909)
        for N, m in ((16, 1), (16, 2), (32, 1)):
            phi, _ = random_transfer_sample(rng, N, 2, m)
        c = float.fromhex("0x1.fe038981a87fcp-1")
        out = agler_decompose(phi, standard_ample(2), c)
        assert out.status == "infeasible"
        assert validate_witness(phi, standard_ample(2), c, out.witness.kernel, 1e-8) is not None

    def test_size_limit_named(self):
        # the interior-point Newton system is dense in (N*m)^2 unknowns
        phi, _ = random_transfer_sample(RNG(24), 33, 2)
        with pytest.raises(ValueError, match="MAX_INTERIOR_DIM"):
            agler_decompose(phi, classical(2), 1.0)

    def test_rejects_multiplicities(self):
        rng = RNG(6)
        s = random_points(rng, 2, 1)
        phi = FunctionSample(s, s.points[:, 0])
        with pytest.raises(ValueError, match="0/1"):
            agler_decompose(phi, Preordering([(2,)]), 1.0)


class TestLurkingIsometry:
    def test_shift_realization(self):
        rng = RNG(7)
        s = random_points(rng, 3, 1)
        phi = FunctionSample(s, s.points[:, 0])
        out = agler_decompose(phi, Preordering([(1,)]), 1.0)
        col = lurking_isometry(out.certificate, phi)
        # rank-one certificate: one-dimensional state space, 2x2 unitary, D = 0
        assert col.state_dim == 1
        assert col.operator().shape == (2, 2)
        assert abs(col.D[0, 0]) < 1e-10
        for z in [0.25, -0.1 + 0.3j]:
            assert eval_transfer(col, [[z]])[0, 0, 0] == pytest.approx(z, abs=1e-10)

    def test_roundtrip_classical_d2(self):
        rng = RNG(8)
        phi, _ = random_transfer_sample(rng, 5, 2)
        out = agler_decompose(phi, classical(2), 1.0)
        col = lurking_isometry(out.certificate, phi)
        back = FunctionSample(phi.sample, eval_transfer(col, phi.sample.points))
        assert np.abs(back.values - phi.values).max() < 1e-8

    def test_roundtrip_product_function(self):
        rng = RNG(9)
        s = random_points(rng, 4, 2)
        phi = FunctionSample(s, s.points[:, 0] * s.points[:, 1])
        out = agler_decompose(phi, classical(2), 1.0)
        col = lurking_isometry(out.certificate, phi)
        back = FunctionSample(s, eval_transfer(col, s.points))
        assert np.abs(back.values - phi.values).max() < 1e-8

    def test_gram_mismatch_rejected(self):
        rng = RNG(10)
        phi, _ = random_transfer_sample(rng, 4, 2)
        out = agler_decompose(phi, classical(2), 1.0)
        wrong = FunctionSample(phi.sample, phi.values * 0.5)
        with pytest.raises(ValueError, match="Gram"):
            lurking_isometry(out.certificate, wrong)


def _perturbed_colligation(defect, contractive=False, scale=1.0):
    """A colligation on classical(2) with slots 2 + 1 and m = 2 whose operator
    is scale U diag(sqrt(1 + defect)) for a unitary U, so U*U - 1 is
    diag(defect) up to rounding."""
    U = random_unitary(RNG(61), 5) * np.sqrt(1 + np.asarray(defect, dtype=float)) * scale
    return Colligation(U[:3, :3], U[:3, 3:], U[3:, :3], U[3:, 3:],
                       (((1, 0), 2), ((0, 1), 1)), contractive=contractive)


class TestUnitarityScreen:
    """The Frobenius screen decides only what the spectral check would accept."""

    @pytest.mark.parametrize("defect", [[0.5e-10, 0, 0, 0, 0], [0.9e-10] * 5,
                                        [-0.99e-10, 0.99e-10, 0.9e-10, 0, 0]],
                             ids=["frobenius-below", "frobenius-above", "mixed-signs"])
    def test_spectral_norm_just_below_is_accepted(self, defect):
        assert _perturbed_colligation(defect).state_dim == 3

    @pytest.mark.parametrize("defect", [[1.1e-10, 0, 0, 0, 0], [1.1e-10] * 5,
                                        [0, 0, 0, 0, -1.1e-10]])
    def test_spectral_norm_just_above_is_refused(self, defect):
        with pytest.raises(ValueError, match=r"^colligation is not unitary: "
                                             r"\|U\*U - 1\| = 1\.100e-10$"):
            _perturbed_colligation(defect)

    def test_overflowing_colligation_is_refused(self):
        # U*U overflows: its entries are inf or NaN, so no norm of it is finite
        big = [[1e200]]
        with pytest.raises(ValueError, match=r"^colligation is not unitary: "
                                             r"\|U\*U - 1\| = inf$"):
            Colligation(big, big, big, [[-1e200]], ((unit(1, 0), 1),))

    def test_contractive_norm_bound(self):
        assert _perturbed_colligation([0] * 5, True, 1 + 0.5e-10).contractive
        with pytest.raises(ValueError,
                           match=r"^colligation flagged contractive has norm 1\.0000000002"):
            _perturbed_colligation([0] * 5, True, 1 + 2e-10)


class TestEvalTransfer:
    def test_identity_colligation(self):
        col = Colligation(np.eye(1), np.zeros((1, 1)), np.zeros((1, 1)), np.eye(1),
                          ((unit(1, 0), 1),))
        assert eval_transfer(col, [[0.3]])[0, 0, 0] == pytest.approx(1.0)

    def test_coordinate_colligation(self):
        flip = Colligation([[0.0]], [[1.0]], [[1.0]], [[0.0]], ((unit(2, 0), 1),))
        z = [0.4 + 0.2j, -0.3]
        assert eval_transfer(flip, [z])[0][0, 0] == pytest.approx(z[0])

    def test_constant_contractive(self):
        col = Colligation(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)),
                          [[0.7]], (), contractive=True)
        assert eval_transfer(col, [[0.2]])[0, 0, 0] == pytest.approx(0.7)

    def test_contractive_values(self):
        rng = RNG(11)
        for _ in range(200):
            d = int(rng.integers(1, 4))
            col = random_classical_colligation(rng, d)
            z = random_points(rng, 1, d, rmax=0.98).points[0]
            assert np.linalg.norm(eval_transfer(col, [z])[0], 2) <= 1 + 1e-10

    def test_norm_bound_many_trials(self):
        # 2000 random (unitary colligation, point) pairs stay within the ball
        rng = RNG(12)
        worst = 0.0
        for _ in range(2000):
            d = int(rng.integers(1, 4))
            col = random_classical_colligation(rng, d)
            z = random_points(rng, 1, d, rmax=0.999).points[0]
            worst = max(worst, np.linalg.norm(eval_transfer(col, [z])[0], 2))
        assert worst <= 1 + 1e-10

    def test_boundary_point_rejected(self):
        col = Colligation([[0.0]], [[1.0]], [[1.0]], [[0.0]], ((unit(1, 0), 1),))
        with pytest.raises(ValueError):
            eval_transfer(col, [[1.0]])

    @pytest.mark.parametrize("points", [[0.3, 0.2], 0.3, [[[0.3, 0.2]]]])
    def test_points_that_are_not_a_matrix_rejected(self, points):
        col = random_classical_colligation(RNG(5), 2)
        with pytest.raises(ValueError, match=r"points must be an \(N, d\) array, got shape"):
            eval_transfer(col, points)

    def test_nonunitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            Colligation([[0.5]], [[0.0]], [[0.0]], [[0.5]], ((unit(1, 0), 1),))


class TestTransferCompose:
    def _coordinate(self, d, j):
        Z = np.zeros((1, 1))
        return Colligation(Z, [[1.0]], [[1.0]], Z, ((unit(d, j), 1),))

    def _identity(self, d):
        return Colligation(np.eye(1), np.zeros((1, 1)), np.zeros((1, 1)),
                           np.eye(1), ((unit(d, 0), 1),))

    def test_product_with_identity(self):
        rng = RNG(13)
        col = random_classical_colligation(rng, 2)
        prod = transfer_compose(col, self._identity(2))
        for _ in range(5):
            z = random_points(rng, 1, 2).points[0]
            assert np.allclose(eval_transfer(prod, [z])[0], eval_transfer(col, [z])[0])

    def test_product_of_coordinates(self):
        rng = RNG(14)
        prod = transfer_compose(self._coordinate(2, 0), self._coordinate(2, 1))
        for _ in range(5):
            z = random_points(rng, 1, 2).points[0]
            assert eval_transfer(prod, [z])[0][0, 0] == pytest.approx(z[0] * z[1])

    def test_product_matches_pointwise(self):
        rng = RNG(15)
        c1 = random_classical_colligation(rng, 2)
        c2 = random_classical_colligation(rng, 2)
        prod = transfer_compose(c1, c2)
        for _ in range(10):
            z = random_points(rng, 1, 2).points[0]
            expected = eval_transfer(c1, [z])[0] @ eval_transfer(c2, [z])[0]
            assert np.abs(eval_transfer(prod, [z])[0] - expected).max() < 1e-12

    def test_colligations_of_different_dimension_refused(self):
        with pytest.raises(ValueError,
                           match=r"multi-indices differ in length: \(1, 0\) and \(1,\)"):
            transfer_compose(self._coordinate(2, 0), self._coordinate(1, 0))

    def test_convex_endpoint(self):
        rng = RNG(16)
        c1 = random_classical_colligation(rng, 2)
        c2 = random_classical_colligation(rng, 2)
        mix = transfer_compose(c1, c2, mode="convex", t=1.0)
        assert mix.contractive
        for _ in range(5):
            z = random_points(rng, 1, 2).points[0]
            assert np.allclose(eval_transfer(mix, [z])[0], eval_transfer(c1, [z])[0], atol=1e-12)

    def test_convex_midpoint(self):
        rng = RNG(17)
        c1 = random_classical_colligation(rng, 2)
        c2 = random_classical_colligation(rng, 2)
        mix = transfer_compose(c1, c2, mode="convex", t=0.25)
        for _ in range(5):
            z = random_points(rng, 1, 2).points[0]
            expected = 0.25 * eval_transfer(c1, [z])[0] + 0.75 * eval_transfer(c2, [z])[0]
            assert np.abs(eval_transfer(mix, [z])[0] - expected).max() < 1e-12


class TestNorm:
    def test_coordinate_function_hits_one(self):
        # on any >= 2-point interior sample the Pick matrix of z at bound c
        # degenerates exactly at c = 1 (bisection tolerance kept above the
        # feas_tol dead zone around the boundary)
        rng = RNG(18)
        s = random_points(rng, 3, 1)
        phi = FunctionSample(s, s.points[:, 0])
        out = schur_agler_norm(phi, Preordering([(1,)]), tol=1e-6)
        assert out.resolved
        assert out.c_lo == pytest.approx(1.0, abs=1e-5)
        assert out.c_hi == pytest.approx(1.0, abs=1e-5)
        assert out.c_hi >= phi.sup_norm()
        assert out.certificate is not None and out.witness is not None

    def test_constant(self):
        rng = RNG(19)
        s = random_points(rng, 3, 2)
        phi = FunctionSample(s, np.full(3, 0.7 + 0j))
        out = schur_agler_norm(phi, standard_ample(2), tol=1e-8)
        assert out.resolved
        assert out.c_lo == pytest.approx(0.7) and out.c_hi == pytest.approx(0.7)

    def test_zero_function(self):
        rng = RNG(20)
        s = random_points(rng, 2, 1)
        phi = FunctionSample(s, np.zeros(2, dtype=complex))
        out = schur_agler_norm(phi, Preordering([(1,)]))
        assert out.c_lo == out.c_hi == 0.0

    def test_classical_d2_interval_brackets_sup(self):
        rng = RNG(21)
        phi, _ = random_transfer_sample(rng, 4, 2)
        out = schur_agler_norm(phi, classical(2), tol=1e-4)
        # every lower-bound move must have come from a verified witness, the
        # upper bound from a validated certificate; an unresolved probe may
        # stop the bisection early but never mislabels a side
        assert out.c_hi <= 1 + 1e-4  # generated from a unitary colligation
        assert out.c_lo >= phi.sup_norm() - 1e-12
        assert out.certificate is not None
        statuses = dict(out.evaluations)
        assert statuses.get(out.c_hi) == "feasible"
        if not out.resolved:
            assert any(st == "unresolved" for _, st in out.evaluations)

    def test_fallback_certificate_tries_every_lambda(self):
        # the solver's certificate does not validate here, nor does the one on
        # (0,1) alone (its Szego matrix has condition 2.7e13); the one on (1,0)
        # does, so c_hi is finite
        phi, _ = random_transfer_sample(RNG([201, 52]), 8, 2)
        out = schur_agler_norm(phi, classical(2), tol=1e-4,
                               params=SolverParams(max_iter=3000, stall_rtol=1e-9))
        assert np.isfinite(out.c_hi) and out.certificate is not None
        assert validate_certificate(phi, classical(2), out.c_hi, out.certificate, 1e-8)[0]


@pytest.mark.parametrize("N", [8, 16])
@pytest.mark.parametrize("seed", range(4))
def test_norm_of_a_transfer_sample_is_at_most_one(seed, N):
    # the transfer function of a classical colligation has an Agler decomposition
    # at c = 1, so c* <= 1; at N = 24 and 32 the same family still fails this
    # (c_hi infinite or far above 1), for want of sound upper ends
    tol = 1e-4
    phi, _ = random_transfer_sample(RNG([7, seed, N]), N, 2)
    out = schur_agler_norm(phi, classical(2), tol)
    assert out.resolved and out.c_hi <= 1 + tol


class TestAmpleConsistency:
    def test_iterative_agrees_with_membership_near_boundary(self):
        rng = RNG(22)
        pre = standard_ample(2)
        for trial in range(5):
            phi, _ = random_transfer_sample(rng, 4, 2)
            lo, hi = phi.sup_norm(), 2.0
            while not ample_membership(phi, pre, hi)[0]:
                hi *= 2
            for _ in range(50):
                mid = (lo + hi) / 2
                if ample_membership(phi, pre, mid)[0]:
                    hi = mid
                else:
                    lo = mid
            params = SolverParams(force_iterative=True, max_iter=60000)
            above = agler_decompose(phi, pre, hi + 1e-4, params)
            below = agler_decompose(phi, pre, hi - 1e-4, params)
            assert above.status == "feasible"
            assert below.status == "infeasible"
            assert below.witness.pairing < 0


class TestNearlyAmpleDirection:
    def test_na_feasible_implies_ample_feasible(self):
        # the finite-sample cones are nested: every nearly-ample certificate
        # Schur-multiplies into the single ample test
        rng = RNG(23)
        pre_na = Preordering([(0, 1, 1), (1, 0, 1)])
        pre_a = standard_ample(3)
        checked = 0
        for trial in range(4):
            phi, _ = random_transfer_sample(rng, 3, 3)
            for c in (1.0, phi.sup_norm() + 0.2):
                out = agler_decompose(phi, pre_na, c, SolverParams(max_iter=40000))
                if out.feasible:
                    checked += 1
                    assert ample_membership(phi, pre_a, c)[0]
        assert checked


# ---------------------------------------------------------------------------
# reference implementations: the per-point transfer evaluator and the
# per-node lurking-isometry columns that the sample-wide code replaced; the
# lurking isometry must reproduce them bit for bit, the transfer evaluator,
# which solves in the range of S(x), to rounding (see _assert_matches_reference)


def ref_monomial_rows_at(point, lam):
    even, odd = parity_split(lam)
    point = np.asarray(point, dtype=complex)
    plus = np.array([np.prod(point ** np.array(q)) for q in even])
    minus = np.array([np.prod(point ** np.array(q)) for q in odd])
    return plus, minus


def ref_sigma_at(point, lam):
    plus, minus = ref_monomial_rows_at(point, lam)
    return np.outer(plus.conj(), minus) / (np.linalg.norm(plus) ** 2)


def ref_state_blocks(col, point):
    E = col.state_dim
    S = np.zeros((E, E), dtype=complex)
    off = 0
    for lam, mult in col.partition:
        n = 2 ** (weight(lam) - 1)
        sig = ref_sigma_at(point, lam)
        for _ in range(mult):
            S[off:off + n, off:off + n] = sig
            off += n
    return S


def ref_eval_transfer(col, point):
    point = np.asarray(point, dtype=complex).ravel()
    if col.partition and len(point) != col.d:
        raise ValueError(f"point dimension {len(point)} != colligation dimension {col.d}")
    if np.abs(point).max(initial=0.0) >= 1.0:
        raise ValueError("transfer evaluation needs |psi_i(x)| < 1")
    E = col.state_dim
    if E == 0:
        return col.D.copy()
    S = ref_state_blocks(col, point)
    return col.D + col.C @ S @ np.linalg.solve(np.eye(E) - col.A @ S, col.B)


def ref_lurking_colligation(sample, a, b, cert, feas_tol=1e-8, c=1.0):
    N, m, p = a.shape
    lams = cert.lambdas()
    gammas, mults, ns = {}, {}, {}
    for lam in lams:
        fac = kolmogorov(cert.gammas[lam])
        gammas[lam] = fac.gammas / c
        mults[lam] = fac.rank
        ns[lam] = 2 ** (weight(lam) - 1)
    E = sum(mults[lam] * ns[lam] for lam in lams)
    M_minus = np.zeros((E + p, N * m), dtype=complex)
    M_plus = np.zeros((E + p, N * m), dtype=complex)
    for x in range(N):
        cols = slice(x * m, (x + 1) * m)
        off = 0
        for lam in lams:
            pr, mr = ref_monomial_rows_at(sample.points[x], lam)
            g = gammas[lam][x]
            r = mults[lam]
            if r:
                M_plus[off:off + r * ns[lam], cols] = np.kron(g.conj().T, pr.conj()[:, None])
                M_minus[off:off + r * ns[lam], cols] = np.kron(g.conj().T, mr.conj()[:, None])
            off += r * ns[lam]
        M_minus[E:, cols] = a[x].conj().T
        M_plus[E:, cols] = b[x].conj().T
    gram_err = np.abs(M_plus.conj().T @ M_plus - M_minus.conj().T @ M_minus).max()
    scale = max(np.abs(M_minus).max() ** 2, 1.0)
    if gram_err > 100 * feas_tol * scale:
        raise ValueError(f"certificate rejected: Gram mismatch {gram_err:.3e}")
    U_, s_, Vh_ = np.linalg.svd(M_minus, full_matrices=False)
    rank = int((s_ > DEFAULT_TOL * max(s_.max(initial=0.0), 1e-300)).sum())
    Um = U_[:, :rank]
    images = polar_isometry(M_plus @ Vh_[:rank].conj().T / s_[:rank])
    U = unitary_completion(Um, images).conj().T
    partition = tuple((lam, mults[lam]) for lam in lams if mults[lam])
    return Colligation(U[:E, :E], U[:E, E:], U[E:, :E], U[E:, E:], partition)


def _outcome(fn):
    try:
        return "value", fn()
    except ValueError as exc:
        return "error", str(exc)


REFERENCE_PREORDERINGS = {
    "classical(2)": classical(2), "classical(3)": classical(3),
    "standard_ample(2)": standard_ample(2), "standard_ample(3)": standard_ample(3),
    "standard_nearly_ample(3,0,1)": standard_nearly_ample(3, 0, 1),
}
REFERENCE = settings(max_examples=150, deadline=None, derandomize=True)


@REFERENCE
@given(pre=st.sampled_from(sorted(REFERENCE_PREORDERINGS)), m=st.sampled_from([1, 2]),
       mults=st.lists(st.integers(0, 2), min_size=3, max_size=3),
       n_points=st.integers(0, 6), rmax=st.sampled_from([0.5, 0.99, 1 - 1e-9]),
       defect=st.sampled_from([None, "repeat", "boundary", "outside", "dimension"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_eval_transfer_matches_per_point_reference(pre, m, mults, n_points, rmax, defect, seed):
    # E = 0 whenever every multiplicity is 0; points run up to 1 - 1e-9 in
    # modulus, and a defect repeats a point, puts one on or outside the
    # boundary, or drops a coordinate
    rng = RNG(seed)
    lams = minimal_reduction(REFERENCE_PREORDERINGS[pre]).sorted()
    partition = tuple(zip(lams, mults))
    E = sum(mult * 2 ** (weight(lam) - 1) for lam, mult in partition)
    U = random_unitary(rng, E + m)
    col = Colligation(U[:E, :E], U[:E, E:], U[E:, :E], U[E:, E:], partition)
    d = len(lams[0])
    shape = (n_points, d)
    pts = rng.uniform(0, rmax, shape) * np.exp(2j * np.pi * rng.uniform(size=shape))
    if n_points and defect == "repeat":
        pts = pts[rng.integers(0, n_points, n_points + 2)]
    elif n_points and defect in ("boundary", "outside"):
        pts[rng.integers(n_points), rng.integers(d)] = np.exp(1j * rng.uniform(0, 2 * np.pi)) * (
            1.0 if defect == "boundary" else 1.5)
    elif defect == "dimension":
        pts = pts[:, 1:]
    _assert_matches_reference(col, pts)


def _assert_matches_reference(col, pts):
    """The rank-r solve differs from the E x E one by at most 64 eps cond(1 - A S(x))."""
    m = col.output_dim
    kind, got = _outcome(lambda: eval_transfer(col, pts))
    ref_kind, ref = _outcome(lambda: np.array(
        [ref_eval_transfer(col, p) for p in pts]).reshape(len(pts), m, m))
    assert kind == ref_kind
    if kind == "error":
        assert got == ref
        return
    assert got.shape == (len(pts), m, m)
    eps = np.finfo(float).eps
    for x, p in enumerate(pts):
        err = np.abs(got[x] - ref[x]).max()
        if err > 64 * eps:  # cond >= 1, so only then can the bound depend on it
            cond = np.linalg.cond(np.eye(col.state_dim) - col.A @ ref_state_blocks(col, p))
            assert err <= 64 * eps * cond


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n_points", [1, 8, 64])
def test_random_transfer_sample_is_the_per_point_reference(d, m, n_points):
    # the samples' values are the instances of tests and benchmarks: they keep
    # the classical formula's bits, whatever eval_transfer does
    phi, col = random_transfer_sample(RNG([d, m, n_points]), n_points, d, m)
    ref = np.array([ref_eval_transfer(col, p) for p in phi.sample.points])
    assert np.array_equal(phi.values, ref)


def test_eval_transfer_matches_reference_on_an_ample_realization():
    # the size the rank-r solve is for: standard_ample(2) at N = 64, m = 2
    phi, _ = random_transfer_sample(RNG(64), 64, 2, 2)
    phi = FunctionSample(phi.sample, 0.9 * phi.values)
    col = lurking_isometry(agler_decompose(phi, standard_ample(2), 1.0).certificate, phi)
    assert col.partition == (((1, 1), 128),)  # E = 256, r = 128: several blocks of points
    # Gamma is cut at the rounding floor, so its eigenvalues near 1e-10 max stay
    assert np.abs(eval_transfer(col, phi.sample.points) - phi.values).max() <= 1e-10
    _assert_matches_reference(col, phi.sample.points)


def test_eval_transfer_matches_reference_on_mixed_slots():
    # a 1-dimensional slot under standard_nearly_ample(3,0,1)'s two 2-dimensional
    # ones, one of which has multiplicity 0: E = 8, r = 5
    rng = RNG(31)
    partition = (((0, 0, 1), 2), ((0, 1, 1), 0), ((1, 0, 1), 3))
    U = random_unitary(rng, 8 + 2)
    col = Colligation(U[:8, :8], U[:8, 8:], U[8:, :8], U[8:, 8:], partition)
    _assert_matches_reference(col, random_points(rng, 12, 3, rmax=0.99).points)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(pre=st.sampled_from(sorted(REFERENCE_PREORDERINGS)), m=st.sampled_from([1, 2]),
       n_points=st.integers(1, 5), rmax=st.sampled_from([0.85, 0.999]),
       c=st.sampled_from([0.95, 1.0, 1.2]), pick=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_lurking_colligation_matches_per_node_reference(pre, m, n_points, rmax, c, pick, seed):
    rng = RNG(seed)
    pre = REFERENCE_PREORDERINGS[pre]
    d = pre.d
    col = random_classical_colligation(rng, d, m)
    sample = random_points(rng, n_points, d, rmax=rmax)
    phi = FunctionSample(sample, 0.9 * eval_transfer(col, sample.points))
    if pick:  # b = a phi with a random a, at c = 1
        a = rng.normal(size=(n_points, m, m)) + 1j * rng.normal(size=(n_points, m, m))
        b, c = a @ phi.values, 1.0
        R = (np.einsum("xij,ykj->xyik", a, a.conj()) - np.einsum("xij,ykj->xyik", b, b.conj()))
        out = decide_target(sample, pre, R, c)
    else:  # realize: a = 1, b = phi / c
        a, b = np.tile(np.eye(m, dtype=complex), (n_points, 1, 1)), phi.values / c
        out = agler_decompose(phi, pre, c)
    assume(out.feasible)
    kind, got = _outcome(lambda: lurking_colligation(sample, a, b, out.certificate, 1e-8, c))
    ref_kind, ref = _outcome(lambda: ref_lurking_colligation(sample, a, b, out.certificate,
                                                             1e-8, c))
    assert kind == ref_kind
    if kind == "error":
        assert got == ref
    else:
        for block in "ABCD":
            assert np.array_equal(getattr(got, block), getattr(ref, block)), block
        assert got.partition == ref.partition


def test_lurking_colligation_with_empty_state():
    # 1 - phi phi^* = 0 for a unimodular constant: every Gamma is zero, E = 0
    sample = random_points(RNG(25), 3, 2)
    phi = FunctionSample(sample, np.full(3, np.exp(0.3j)))
    out = agler_decompose(phi, standard_ample(2), 1.0)
    ident = np.ones((3, 1, 1), dtype=complex)
    got = lurking_colligation(sample, ident, phi.values, out.certificate)
    ref = ref_lurking_colligation(sample, ident, phi.values, out.certificate)
    assert got.state_dim == ref.state_dim == 0
    for block in "ABCD":
        assert np.array_equal(getattr(got, block), getattr(ref, block)), block


def ref_iterative_norm(phi, pre, tol, params):
    """The non-ample norm as one drained solve: run _interior_point to its end,
    then build both ends, with the single-lambda Szego fallback for c_hi."""
    from aglerlab import realize as rz
    sup = phi.sup_norm()
    lams = rz._decomposition_lambdas(pre)
    ws = rz._Workspace(phi.sample, lams, rz.target_blocks(phi, 0.0), params.feas_tol)
    for _, upper, lower in rz._interior_point(ws, params):
        pass
    hi = rz._certificate_end(phi, pre, upper[0], lambda c: ws.certificate(upper, c * c, c),
                             params)
    if hi is None:
        def szego_cert(lam):
            return lambda c: rz._szego_certificate(
                phi.sample, lams, lam, psd_clip(rz._szego_gamma(
                    phi.sample, rz.target_blocks(phi, c), lam)), c)
        hi = rz._first(rz._certificate_end(phi, pre, rz._szego_top(phi, lam)[0],
                                           szego_cert(lam), params) for lam in lams)
    lo = lower[1] is not None and rz._witness_end(phi, pre, ws.witness_kernel(lower), params,
                                                  sup)
    c_hi, cert = hi or (np.inf, None)
    c_lo, wit = lo or (sup, None)
    evals = ((c_lo, "infeasible"),) if wit else ()
    evals += ((c_hi, "feasible"),) if cert else ()
    return rz.NormResult(c_lo, c_hi, bool(cert is not None and c_hi - c_lo <= tol), cert, wit,
                         evals)


@pytest.mark.parametrize("pre, N, key", [
    *[("classical(2)", 4, [s, 0]) for s in (1, 2, 3)],
    *[("classical(2)", 8, [s, 1]) for s in (1, 2, 3)],
    *[("standard_nearly_ample(3,0,1)", 4, [s, 2]) for s in (1, 2, 3)],
    ("classical(2)", 8, [201, 52]),  # crossing solver bounds, Szego fallback for c_hi
])
def test_norm_at_tol_zero_matches_drained_reference(pre, N, key):
    pre = REFERENCE_PREORDERINGS[pre]
    phi, _ = random_transfer_sample(RNG(key), N, pre.d)
    params = SolverParams(max_iter=3000, stall_rtol=1e-9)
    got = schur_agler_norm(phi, pre, tol=0.0, params=params)
    ref = ref_iterative_norm(phi, pre, 0.0, params)
    assert np.array_equal(got.c_lo, ref.c_lo) and np.array_equal(got.c_hi, ref.c_hi)
    assert got.evaluations == ref.evaluations and got.resolved == ref.resolved
    assert (got.certificate is None) == (ref.certificate is None)
    if ref.certificate is not None:
        assert got.certificate.lambdas() == ref.certificate.lambdas()
        for lam in ref.certificate.lambdas():
            assert np.array_equal(got.certificate.gammas[lam].blocks,
                                  ref.certificate.gammas[lam].blocks)
    assert (got.witness is None) == (ref.witness is None)
    if ref.witness is not None:
        assert np.array_equal(got.witness.kernel.blocks, ref.witness.kernel.blocks)


def ref_szego_top(phi, lam, shift=0.0):
    """_szego_top as it built its pencil on every call."""
    from aglerlab import realize as rz
    from aglerlab._linalg import hermitian_sqrt, hermitize
    A = -rz._szego_gamma(phi.sample, rz.target_blocks(phi, 0.0), lam)
    ks = rz.szego_factor(phi.sample, lam)
    Bi = hermitian_sqrt(np.kron(ks, np.eye(phi.m_out)))[1]
    w, V = np.linalg.eigh(hermitize(Bi @ (A - np.diag(shift * np.ones(len(A)))) @ Bi))
    u = Bi @ V[:, -1]
    return float(w[-1]), u / np.linalg.norm(u)


def ref_ample_norm(phi, pre, tol, params):
    """The ample norm with one _szego_top call per end, each building the pencil."""
    from aglerlab import realize as rz
    sup = phi.sup_norm()
    lams = rz._decomposition_lambdas(pre)
    lam = rz.classify(pre).lambda_max
    hi = rz._certificate_end(phi, pre, ref_szego_top(phi, lam)[0], lambda c: (
        rz._szego_certificate(phi.sample, lams, lam,
                              psd_clip(rz._szego_gamma(phi.sample, rz.target_blocks(phi, c),
                                                       lam)), c)),
        params)
    shift = params.feas_tol * np.repeat(np.diag(rz.szego_factor(phi.sample, lam)).real,
                                        phi.m_out)
    u = ref_szego_top(phi, lam, shift)[1]
    lo = rz._witness_end(phi, pre, rz._szego_witness(phi.sample, lam, u), params, sup)
    return rz._norm_result(hi, lo, sup, tol)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("N", [4, 16, 32, 64])
def test_ample_norm_matches_the_two_pencil_reference(N, m):
    phi, _ = random_transfer_sample(RNG([67, N, m]), N, 2, m)
    params = SolverParams()
    got = schur_agler_norm(phi, standard_ample(2), tol=1e-6, params=params)
    ref = ref_ample_norm(phi, standard_ample(2), 1e-6, params)
    assert (got.c_lo.hex(), got.c_hi.hex()) == (ref.c_lo.hex(), ref.c_hi.hex())
    assert got.evaluations == ref.evaluations and got.certificate is not None
    lam = (1, 1)
    assert np.array_equal(got.certificate.gammas[lam].blocks, ref.certificate.gammas[lam].blocks)
    assert np.array_equal(got.witness.kernel.blocks, ref.witness.kernel.blocks)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("N", [16, 32, 64])
def test_ample_certificate_is_the_psd_clip_of_its_gamma(N, m):
    """decide_target clips Gamma from the eigendecomposition that decided it;
    the blocks are psd_clip's, bit for bit."""
    from aglerlab import realize as rz
    phi, _ = random_transfer_sample(RNG([71, N, m]), N, 2, m)
    R = target_blocks(phi, 1.1)
    out = decide_target(phi.sample, standard_ample(2), R, 1.1)
    ref = HermitianKernel.from_assembled(phi.sample,
                                         psd_clip(rz._szego_gamma(phi.sample, R, (1, 1))))
    assert out.status == "feasible" and out.certificate.lambdas() == [(1, 1)]
    assert np.array_equal(out.certificate.gammas[(1, 1)].blocks, ref.blocks)


@pytest.mark.parametrize("key", [[1, 19], [1, 40], [2, 37], [5, 43]])
def test_norm_keeps_iterating_past_an_unresolved_try(key):
    # on these samples the first bracket the solver sees within tol does not
    # validate within tol (no certificate, or ends 1.09e-4 apart), so the
    # solve must go on to a later try
    phi, _ = random_transfer_sample(RNG(key), 8, 2)
    out = schur_agler_norm(phi, classical(2), tol=1e-4,
                           params=SolverParams(max_iter=3000, stall_rtol=1e-9))
    assert out.resolved and out.c_hi - out.c_lo <= 1e-4
    assert validate_certificate(phi, classical(2), out.c_hi, out.certificate, 1e-8)[0]
    assert validate_witness(phi, classical(2), out.c_lo, out.witness.kernel, 1e-8) is not None


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("c", [0.0, 0.9, 1.0, 1.3])
def test_decomposition_target_is_the_pick_target_with_a_constant(m, c):
    """c^2 1 - phi phi^* is the Pick target with a = c 1_m and b = phi, and both
    have the bits of the direct forms, which write the blocks in (x, y, i, k) order."""
    for seed in range(30):
        phi, _ = random_transfer_sample(RNG([41, seed, m]), 4, 2, m)
        N, vals = phi.sample.n_points, phi.values
        direct = np.tile(c * c * np.eye(m, dtype=complex), (N, N, 1, 1))
        direct -= np.einsum("xij,ykj->xyik", vals, vals.conj())
        pick = PickProblem(phi.sample, np.tile(c * np.eye(m), (N, 1, 1)), vals, classical(2))
        assert target_blocks(phi, c).tobytes() == direct.tobytes()
        assert pick.target_blocks().tobytes() == direct.tobytes()
        a = 0.7 * vals.conj() + c
        assert pick_target(a, vals).tobytes() == (
            np.einsum("xij,ykj->xyik", a, a.conj())
            - np.einsum("xij,ykj->xyik", vals, vals.conj())).tobytes()
