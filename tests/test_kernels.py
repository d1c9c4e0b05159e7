"""Hermitian block kernels: Schur products, Szego kernels, admissibility,
subordination, Kolmogorov factorization."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aglerlab.kernels import (HermitianKernel, PointSample, defect_factor, is_admissible,
                              is_subordinate, kolmogorov, ones_kernel, psd_check,
                              scalar_schur, schur_product, szego_factor, szego_kernel)
from aglerlab.auxfun import aux_function, psi_rows
from aglerlab.preorder import Preordering, standard_ample
from aglerlab.sampling import random_points, random_psd_kernel


def diagonal_kernel(sample: PointSample, m: int = 1) -> HermitianKernel:
    """Identity blocks on the diagonal, zero off: the sup-norm comparison kernel."""
    return scalar_schur(ones_kernel(sample, m), np.eye(sample.n_points))


def reassemble(fac) -> HermitianKernel:
    """gamma(x) gamma(y)^* from a Kolmogorov factor."""
    return HermitianKernel(fac.sample, np.einsum("xir,yjr->xyij", fac.gammas, fac.gammas.conj()))


def two_point_line():
    return PointSample(np.array([[0.9 + 0j], [-0.9 + 0j]]))


class TestPointSample:
    def test_modulus_validation(self):
        with pytest.raises(ValueError, match="modulus"):
            PointSample(np.array([[1.0 + 0j]]))
        with pytest.raises(ValueError, match="modulus"):
            PointSample(np.array([[0.5 + 0j], [complex(np.nan, 0.0)]]))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PointSample(np.array([[0.5, 0.2], [0.5, 0.2]], dtype=complex))

    def test_duplicate_message_names_first_pair(self):
        # pairs (0, 3) and (1, 2) coincide; i runs first, so (0, 3) is named
        a, b = [0.1, 0.2j], [0.3, -0.4 + 1e-13j]
        with pytest.raises(ValueError, match=r"^duplicate points at indices 0, 3: "
                                             "test functions separate points$"):
            PointSample(np.array([a, b, [0.3, -0.4], a], dtype=complex))

    def test_empty_points_refused(self):
        for shape in ((0, 2), (2, 0), (0,)):
            with pytest.raises(ValueError, match="^points must be a nonempty N x d array$"):
                PointSample(np.zeros(shape, dtype=complex))


class TestSchurProduct:
    def test_ones_is_idempotent_unit(self):
        s = random_points(np.random.default_rng(0), 3, 2)
        K = schur_product(ones_kernel(s), ones_kernel(s))
        assert np.allclose(K.blocks, ones_kernel(s).blocks)

    def test_psd_closure_rank_one(self):
        rng = np.random.default_rng(1)
        s = random_points(rng, 4, 1)
        K1 = random_psd_kernel(rng, s, rank=1)
        K2 = random_psd_kernel(rng, s, rank=1)
        _, lo = psd_check(schur_product(K1, K2))
        assert lo >= -1e-12

    def test_szego_inverse_pair(self):
        s = PointSample(np.array([[0.3 + 0.2j], [-0.1 + 0.4j]]))
        ks = szego_kernel(s, (1,))
        inv = HermitianKernel.from_scalar(s, defect_factor(s, (1,)))
        K = schur_product(ks, inv)
        assert np.allclose(K.blocks, ones_kernel(s).blocks, atol=1e-14)

    def test_block_dims_multiply(self):
        rng = np.random.default_rng(2)
        s = random_points(rng, 2, 1)
        K1 = random_psd_kernel(rng, s, m=2)
        K2 = random_psd_kernel(rng, s, m=3)
        K = schur_product(K1, K2)
        assert K.block_dim == 6
        _, lo = psd_check(K)
        assert lo >= -1e-10 * max(abs(lo), 1)

    def test_sample_mismatch(self):
        rng = np.random.default_rng(3)
        s1, s2 = random_points(rng, 2, 1), random_points(rng, 2, 1)
        with pytest.raises(ValueError, match="sample"):
            schur_product(ones_kernel(s1), ones_kernel(s2))

    def test_psd_closure_many_random(self):
        # closure of PSD under Schur products, 100 random instances
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            m1, m2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            s = random_points(rng, n, 2)
            K1 = random_psd_kernel(rng, s, m=m1)
            K2 = random_psd_kernel(rng, s, m=m2)
            K = schur_product(K1, K2)
            _, lo = psd_check(K)
            scale = max(np.abs(K.assembled()).max(), 1.0)
            assert lo >= -1e-10 * scale


class TestSzego:
    def test_zero_point(self):
        s = PointSample(np.array([[0.0, 0.0]], dtype=complex))
        K = szego_kernel(s, (1, 1))
        assert np.allclose(K.assembled(), [[1.0]])

    def test_diagonal_value(self):
        s = PointSample(np.array([[0.5 + 0j]]))
        K = szego_kernel(s, (1,))
        assert K.assembled()[0, 0] == pytest.approx(4 / 3)

    def test_positive_definite_on_samples(self):
        s = random_points(np.random.default_rng(7), 5, 2)
        _, lo = psd_check(szego_kernel(s, (1, 1)))
        assert lo > 0

    def test_rejects_multiplicities(self):
        s = random_points(np.random.default_rng(8), 2, 1)
        with pytest.raises(ValueError):
            szego_kernel(s, (2,))

    def test_rejects_wrong_dimension(self):
        s = random_points(np.random.default_rng(8), 2, 2)
        for lam in ((1, 1, 1), (1,)):
            with pytest.raises(ValueError, match="dimension"):
                szego_kernel(s, lam)


class TestPsdCheck:
    def test_identity(self):
        s = random_points(np.random.default_rng(0), 3, 1)
        ok, lo = psd_check(diagonal_kernel(s))
        assert ok and lo == pytest.approx(1.0)

    def test_negated_diagonal_block(self):
        s = random_points(np.random.default_rng(0), 3, 1)
        blocks = diagonal_kernel(s).blocks.copy()
        blocks[1, 1] *= -1
        ok, lo = psd_check(HermitianKernel(s, blocks))
        assert not ok and lo == pytest.approx(-1.0)

    def test_szego_positive(self):
        s = random_points(np.random.default_rng(9), 6, 1)
        ok, lo = psd_check(szego_kernel(s, (1,)))
        assert ok and lo > 0


class TestAdmissibility:
    def test_szego_is_admissible_for_its_ample_class(self):
        s = random_points(np.random.default_rng(10), 4, 2)
        rep = is_admissible(szego_kernel(s, (1, 1)), standard_ample(2))
        assert rep.admissible

    def test_diagonal_kernel_admissible_for_every_preordering(self):
        s = random_points(np.random.default_rng(11), 4, 2)
        for pre in (standard_ample(2), Preordering([(1, 0), (0, 1)]),
                    Preordering([(2, 1), (1, 2)])):
            assert is_admissible(diagonal_kernel(s), pre).admissible

    def test_ones_kernel_fails_on_spread_points(self):
        # oracle: (1 - z w~) * [1] on {0.9, -0.9} is [[0.19, 1.81], [1.81, 0.19]]
        # with eigenvalues 0.19 +- 1.81
        s = two_point_line()
        M = defect_factor(s, (1,))
        assert np.allclose(M, [[0.19, 1.81], [1.81, 0.19]])
        rep = is_admissible(ones_kernel(s), Preordering([(1,)]))
        assert not rep.admissible
        assert rep.min_eigs[(1,)] == pytest.approx(0.19 - 1.81)
        assert rep.worst_lambda == (1,)
        assert rep.witness_vector is not None

    def test_dimension_mismatch(self):
        s = random_points(np.random.default_rng(1), 3, 2)
        with pytest.raises(ValueError, match="dimension"):
            is_admissible(ones_kernel(s), Preordering([(1,)]))

    def test_monotone_in_the_preordering(self):
        # if closure(P1) <= closure(P2), admissible for P2 => admissible for P1;
        # Szego-subordinate kernels are admissible for P2 by construction
        rng = np.random.default_rng(12)
        p1 = Preordering([(1, 0), (0, 1)])
        p2 = standard_ample(2)  # closure contains p1's
        for _ in range(40):
            s = random_points(rng, 3, 2)
            F = random_psd_kernel(rng, s)
            K = schur_product(szego_kernel(s, (1, 1)), F)
            assert is_admissible(K, p2).admissible
            assert is_admissible(K, p1).admissible


class TestSubordination:
    def test_reflexive(self):
        s = random_points(np.random.default_rng(13), 3, 1)
        K = szego_kernel(s, (1,))
        assert is_subordinate(K, K)

    def test_admissible_iff_subordinate_for_ample(self):
        rng = np.random.default_rng(14)
        pre = standard_ample(2)
        both = {True: 0, False: 0}
        for _ in range(60):
            s = random_points(rng, 3, 2)
            K = random_psd_kernel(rng, s)
            ks = szego_kernel(s, (1, 1))
            adm = is_admissible(K, pre).admissible
            sub = is_subordinate(K, ks)
            assert adm == sub
            both[adm] += 1
        assert both[True] and both[False]

    def test_ones_not_subordinate_to_szego(self):
        s = two_point_line()
        assert not is_subordinate(ones_kernel(s), szego_kernel(s, (1,)))

    def test_zero_entry_rejected(self):
        s = random_points(np.random.default_rng(15), 2, 1)
        assert is_subordinate(diagonal_kernel(s), szego_kernel(s, (1,)))
        with pytest.raises(ValueError, match="zero entry"):
            is_subordinate(szego_kernel(s, (1,)), diagonal_kernel(s))


class TestKolmogorov:
    def test_identity_kernel(self):
        s = random_points(np.random.default_rng(16), 3, 1)
        fac = kolmogorov(diagonal_kernel(s))
        assert fac.rank == 3
        G = fac.gammas.reshape(3, 3)
        assert np.allclose(G @ G.conj().T, np.eye(3), atol=1e-12)

    def test_rank_one(self):
        rng = np.random.default_rng(17)
        s = random_points(rng, 4, 1)
        fac = kolmogorov(random_psd_kernel(rng, s, rank=1))
        assert fac.rank == 1

    def test_szego_reconstruction(self):
        s = random_points(np.random.default_rng(18), 6, 1)
        K = szego_kernel(s, (1,))
        fac = kolmogorov(K)
        assert fac.rank == 6
        back = reassemble(fac)
        assert np.abs(back.assembled() - K.assembled()).max() < 1e-10

    def test_roundtrip_random(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            s = random_points(rng, int(rng.integers(2, 6)), 2)
            K = random_psd_kernel(rng, s, m=int(rng.integers(1, 3)))
            back = reassemble(kolmogorov(K))
            scale = max(np.abs(K.assembled()).max(), 1.0)
            assert np.abs(back.assembled() - K.assembled()).max() < 1e-9 * scale

    def test_indefinite_rejected(self):
        s = random_points(np.random.default_rng(20), 2, 1)
        blocks = diagonal_kernel(s).blocks.copy()
        blocks[1, 1] *= -1
        with pytest.raises(ValueError, match="indefinite"):
            kolmogorov(HermitianKernel(s, blocks))


def test_non_hermitian_rejected():
    s = random_points(np.random.default_rng(21), 2, 1)
    blocks = np.zeros((2, 2, 1, 1), dtype=complex)
    blocks[0, 1] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        HermitianKernel(s, blocks)


def test_assembled_block_layout():
    s = PointSample(np.array([[0.1 + 0j], [0.2 + 0j]]))
    blocks = np.zeros((2, 2, 2, 2), dtype=complex)
    blocks[0, 1] = np.array([[1, 2], [3, 4]])
    blocks[1, 0] = blocks[0, 1].conj().T
    K = HermitianKernel(s, blocks)
    A = K.assembled()
    assert np.allclose(A[0:2, 2:4], blocks[0, 1])
    back = HermitianKernel.from_assembled(s, A)
    assert np.allclose(back.blocks, blocks)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(d=st.sampled_from([2, 3]), n_points=st.integers(1, 6), m=st.sampled_from([1, 2]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_diagonal_kernel_matches_per_point_reference(d, n_points, m, seed):
    s = random_points(np.random.default_rng(seed), n_points, d)
    blocks = np.zeros((n_points, n_points, m, m), dtype=complex)
    for x in range(n_points):
        blocks[x, x] = np.eye(m)
    assert np.array_equal(diagonal_kernel(s, m).blocks, blocks)


@pytest.mark.parametrize("build", [defect_factor, szego_factor, psi_rows, aux_function])
def test_multi_index_of_another_dimension_is_refused(build):
    s = random_points(np.random.default_rng(3), 3, 2)
    with pytest.raises(ValueError, match=r"^multi-index dimension 3 != sample dimension 2$"):
        build(s, (1, 0, 1))
