"""Even/odd rows, auxiliary sigma functions, finite-stage extension, domains."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aglerlab._linalg import hermitian_sqrt, min_eig, orthonormal_range, spectral_norm
from aglerlab.auxfun import (aux_function, builtin_domain, extend_aux_finite,
                             psi_rows, raw_sigmas,
                             verify_defect_identity)
from aglerlab.kernels import (HermitianKernel, PointSample, defect_factor,
                              ones_kernel, szego_factor, szego_kernel)
from aglerlab.preorder import Preordering, classify, standard_ample
from aglerlab.sampling import random_points, random_psd_kernel


class TestPsiRows:
    def test_bidisk_rows(self):
        a, b = 0.3 + 0.1j, -0.2 + 0.4j
        s = PointSample(np.array([[a, b]]))
        rows = psi_rows(s, (1, 1))
        # predecessors in ascending tuple lex: even (0,0),(1,1); odd (0,1),(1,0)
        assert np.allclose(rows.plus[0], [1, a * b])
        assert np.allclose(rows.minus[0], [b, a])

    def test_weight_one_scalars(self):
        a = 0.5 - 0.2j
        s = PointSample(np.array([[a, 0.1]]))
        rows = psi_rows(s, (1, 0))
        assert np.allclose(rows.plus[0], [1])
        assert np.allclose(rows.minus[0], [a])

    def test_defect_identity_d3(self):
        s = PointSample(np.array([[0.3, 0.4j, -0.2]], dtype=complex))
        rows = psi_rows(s, (1, 1, 1))
        assert rows.defect_identity_residual() < 1e-14

    def test_defect_identity_random_pairs(self):
        rng = np.random.default_rng(0)
        for lam in [(1, 1), (1, 0, 1), (1, 1, 1)]:
            s = random_points(rng, 4, len(lam))
            rows = psi_rows(s, lam)
            assert rows.defect_identity_residual() < 1e-13

    def test_first_plus_entry_is_one(self):
        rng = np.random.default_rng(1)
        s = random_points(rng, 3, 3)
        rows = psi_rows(s, (1, 1, 1))
        assert np.allclose(rows.plus[:, 0], 1.0)
        assert (np.linalg.norm(rows.plus, axis=1) >= 1).all()

    def test_rejects_multiplicity(self):
        s = random_points(np.random.default_rng(2), 2, 1)
        with pytest.raises(ValueError):
            psi_rows(s, (2,))


class TestAuxFunction:
    def test_weight_one_is_the_test_function(self):
        a = 0.4 + 0.3j
        s = PointSample(np.array([[a, 0.2]], dtype=complex))
        aux = aux_function(s, (1, 0))
        assert aux.sigmas[0].shape == (1, 1)
        assert aux.sigmas[0][0, 0] == pytest.approx(a)

    def test_origin_gives_zero(self):
        s = PointSample(np.array([[0.0, 0.0], [0.1, 0.2]], dtype=complex))
        aux = aux_function(s, (1, 1))
        assert np.allclose(aux.sigmas[0], 0)

    def test_closed_form_at_half_half(self):
        # oracle: sigma = psi+^* psi- / |psi+|^2 with psi+ = (1, 1/4),
        # psi- = (1/2, 1/2); norm = |psi-| / |psi+|
        s = PointSample(np.array([[0.5, 0.5], [0.1, 0.1]], dtype=complex))
        aux = aux_function(s, (1, 1))
        expected = np.outer([1, 0.25], [0.5, 0.5]) / (1 + 1 / 16)
        assert np.allclose(aux.sigmas[0], expected)
        norm = np.linalg.norm(aux.sigmas[0], 2)
        assert norm == pytest.approx(np.sqrt(0.5) / np.sqrt(1 + 1 / 16))
        assert norm < 1

    def test_interpolation_property(self):
        rng = np.random.default_rng(3)
        for lam in [(1, 1), (1, 1, 1)]:
            s = random_points(rng, 4, len(lam))
            rows = psi_rows(s, lam)
            aux = aux_function(s, lam)
            for x in range(4):
                assert np.abs(rows.plus[x] @ aux.sigmas[x] - rows.minus[x]).max() < 1e-14

    def test_strict_contractions(self):
        rng = np.random.default_rng(4)
        s = random_points(rng, 5, 2, rmax=0.95)
        aux = aux_function(s, (1, 1))
        assert (aux.norms() < 1).all()


class TestDefectIdentity:
    def test_weight_one_exact(self):
        rng = np.random.default_rng(5)
        s = random_points(rng, 4, 2)
        K = random_psd_kernel(rng, s)
        assert verify_defect_identity(s, (1, 0), K) < 1e-14

    def test_szego_kernel_bidisk(self):
        rng = np.random.default_rng(6)
        s = random_points(rng, 4, 2)
        assert verify_defect_identity(s, (1, 1), szego_kernel(s, (1, 1))) < 1e-10

    def test_ones_kernel_d3(self):
        rng = np.random.default_rng(7)
        s = random_points(rng, 3, 3)
        assert verify_defect_identity(s, (1, 1, 1), ones_kernel(s)) < 1e-10

    def test_random_psd_suite(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            d = int(rng.integers(1, 4))
            lam = tuple(rng.integers(0, 2) for _ in range(d))
            if sum(lam) == 0:
                lam = (1,) * d
            s = random_points(rng, int(rng.integers(2, 6)), d)
            K = random_psd_kernel(rng, s)
            assert verify_defect_identity(s, lam, K) < 1e-9


class TestFiniteStageExtension:
    def test_single_point_reduces_to_raw(self):
        rng = np.random.default_rng(9)
        s = random_points(rng, 1, 2)
        ext = extend_aux_finite(s, (1, 1), standard_ample(2))
        raw = aux_function(s, (1, 1))
        assert np.abs(ext.stage_operator - raw.sigmas[0]).max() < 1e-12
        assert np.abs(ext.aux.sigmas[0] - raw.sigmas[0]).max() < 1e-12

    def test_three_point_bidisk(self):
        rng = np.random.default_rng(10)
        s = random_points(rng, 3, 2)
        ext = extend_aux_finite(s, (1, 1), standard_ample(2))
        assert ext.completion_norm <= 1 + 1e-9
        assert ext.identity_residual < 1e-8
        assert ext.defect_min_eig >= -1e-8

    def test_sub_lambda_inside_larger_ample(self):
        rng = np.random.default_rng(11)
        s = random_points(rng, 3, 3)
        ext = extend_aux_finite(s, (1, 1, 0), standard_ample(3))
        assert ext.completion_norm <= 1 + 1e-9
        assert ext.identity_residual < 1e-8
        assert ext.defect_min_eig >= -1e-8

    def test_compressions_are_contractions(self):
        rng = np.random.default_rng(12)
        s = random_points(rng, 4, 2)
        ext = extend_aux_finite(s, (1, 1), standard_ample(2))
        assert (ext.aux.norms() <= 1 + 1e-10).all()
        assert ext.aux.mode == "extended"

    def test_needs_ample(self):
        rng = np.random.default_rng(13)
        s = random_points(rng, 2, 2)
        with pytest.raises(ValueError, match="ample"):
            extend_aux_finite(s, (1, 0), Preordering([(1, 0), (0, 1)]))


class TestBuiltinDomains:
    def test_annulus(self):
        embed = builtin_domain("annulus", r=0.5)
        s = embed([0.7])
        assert s.points[0, 0] == pytest.approx(0.7)
        assert s.points[0, 1] == pytest.approx(0.5 / 0.7)
        with pytest.raises(ValueError):
            embed([0.4])  # inside the hole
        with pytest.raises(ValueError):
            embed([1.1])

    def test_constrained_disk(self):
        embed = builtin_domain("constrained-disk")
        s = embed([0.5])
        assert s.points[0, 0] == pytest.approx(0.25)
        assert s.points[0, 1] == pytest.approx(0.125)

    def test_constrained_disk_relation(self):
        rng = np.random.default_rng(14)
        z = 0.8 * rng.uniform(0.1, 1, 6) * np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
        s = builtin_domain("constrained-disk")(z)
        psi1, psi2 = s.points[:, 0], s.points[:, 1]
        assert np.abs(psi1 ** 3 - psi2 ** 2).max() < 1e-14

    def test_polydisk_identity(self):
        embed = builtin_domain("polydisk", d=3)
        pts = np.array([[0.1, 0.2, 0.3]], dtype=complex)
        assert np.allclose(embed(pts).points, pts)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown domain"):
            builtin_domain("lens")


def test_sigma_at_matches_sampled():
    rng = np.random.default_rng(15)
    s = random_points(rng, 3, 2)
    aux = aux_function(s, (1, 1))
    for x in range(3):
        assert np.allclose(raw_sigmas(s.points[x:x + 1], (1, 1))[0], aux.sigmas[x])


def test_extension_weight_one_recovers_test_function():
    rng = np.random.default_rng(16)
    s = random_points(rng, 3, 2)
    ext = extend_aux_finite(s, (1, 0), standard_ample(2))
    assert ext.completion_norm <= 1 + 1e-9
    # n = 1: the auxiliary function is the first test function itself and
    # the contractive extension cannot move it on the sample
    for x in range(3):
        assert ext.aux.sigmas[x].shape == (1, 1)
    assert ext.identity_residual < 1e-8


# ---------------------------------------------------------------------------
# reference implementation: the finite-stage extension with its block matrices
# laid out by hand, as before block_diag and the kernel layer built them; the
# package must reproduce it bit for bit


def ref_extend_aux_finite(sample, lam, preordering, tol=1e-10):
    lam_m = classify(preordering).lambda_max
    rows = psi_rows(sample, lam)
    aux_raw = aux_function(sample, lam)
    N, n = rows.plus.shape
    ks = szego_factor(sample, lam_m)
    kF = np.kron(ks, np.eye(n))
    kappa, kappa_inv = hermitian_sqrt(kF, tol)
    Psip = np.zeros((N, N * n), dtype=complex)
    for x in range(N):
        Psip[x, x * n:(x + 1) * n] = rows.plus[x]
    P_plus = Psip.conj().T @ np.linalg.solve(Psip @ Psip.conj().T, Psip)
    basis = orthonormal_range((kappa_inv @ P_plus @ kappa).conj().T, tol)
    sigF = np.zeros((N * n, N * n), dtype=complex)
    for x in range(N):
        sigF[x * n:(x + 1) * n, x * n:(x + 1) * n] = aux_raw.sigmas[x]
    G = basis @ basis.conj().T @ kappa_inv @ sigF @ kappa
    norm_G = spectral_norm(G)
    if norm_G > 1 + 1e-9:
        raise ArithmeticError(f"completion norm {norm_G} exceeds 1: construction broke")
    S = kappa @ G @ kappa_inv
    lhs = Psip @ (kF - S @ kF @ S.conj().T) @ Psip.conj().T
    rhs = Psip @ (kF - sigF @ kF @ sigF.conj().T) @ Psip.conj().T
    sigmas = np.zeros((N, n, n), dtype=complex)
    boundary = []
    for x in range(N):
        row = kappa[x * n:(x + 1) * n, :]
        sigmas[x] = row @ G @ row.conj().T / ks[x, x].real
        if spectral_norm(sigmas[x]) >= 1 - 1e-9:
            boundary.append(x)
    pointwise = np.zeros((N * n, N * n), dtype=complex)
    for x in range(N):
        for y in range(N):
            pointwise[x * n:(x + 1) * n, y * n:(y + 1) * n] = ks[x, y] * (
                np.eye(n) - sigmas[x] @ sigmas[y].conj().T)
    return {"sigmas": sigmas, "stage_operator": S, "completion_norm": norm_G,
            "identity_residual": float(np.abs(lhs - rhs).max()),
            "defect_min_eig": min_eig(kF - S @ kF @ S.conj().T),
            "pointwise_defect_min_eig": min_eig(pointwise), "boundary_points": tuple(boundary)}


def _outcome(fn):
    try:
        return "value", fn()
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


def near_torus_sample(rng, n_points, d, edge):
    """Random points of modulus < 0.9, one coordinate moved to modulus edge if given."""
    pts = random_points(rng, n_points, d, rmax=0.9).points.copy()
    if edge is not None:
        pts[rng.integers(n_points), rng.integers(d)] = edge * np.exp(2j * np.pi * rng.uniform())
    return PointSample(pts)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(d=st.sampled_from([2, 3]), n_points=st.integers(1, 6),
       edge=st.sampled_from([None, 1 - 1e-3, 1 - 1e-6, 1 - 1e-10]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_extend_aux_finite_matches_hand_laid_reference(d, n_points, edge, seed):
    # lam runs over the nonzero 0/1 sub-indices of lambda_max = (1, ..., 1); a point
    # near the torus puts sigma~ on the boundary or breaks the construction
    rng = np.random.default_rng(seed)
    lam = tuple(int(v) for v in rng.integers(0, 2, d))
    lam = lam if any(lam) else (1,) * d
    s = near_torus_sample(rng, n_points, d, edge)
    kind, got = _outcome(lambda: extend_aux_finite(s, lam, standard_ample(d)))
    ref_kind, ref = _outcome(lambda: ref_extend_aux_finite(s, lam, standard_ample(d)))
    assert kind == ref_kind
    if kind != "value":
        assert got == ref
        return
    assert np.array_equal(got.aux.sigmas, ref["sigmas"])
    assert got.boundary_points == ref["boundary_points"]
    for key in ("stage_operator", "completion_norm", "identity_residual", "defect_min_eig",
                "pointwise_defect_min_eig"):
        assert np.array_equal(getattr(got, key), ref[key]), key
