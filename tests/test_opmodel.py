"""Commuting tuples, hereditary calculus, boundary examples, von Neumann."""
import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aglerlab._linalg import hermitize
from aglerlab.opmodel import (CommutingTuple, TestPolynomial, builtin_tuple,
                              commutant_dimension, dilation_check,
                              eval_colligation_at_tuple, eval_polynomial,
                              gkvw_default, gkvw_tuple, hereditary_defect, is_brehmer,
                              kv_polynomial, kv_tuple, parrott_default, parrott_forced_zero,
                              parrott_tuple)
from aglerlab.preorder import (Preordering, classical, is_zero_one, predecessors,
                               standard_ample, unit, weight)
from aglerlab.realize import Colligation, eval_transfer, transfer_compose
from aglerlab.sampling import random_classical_colligation, random_unitary
from helpers import random_strict_tuple

RNG = np.random.default_rng


def hereditary_defect_rows(T: CommutingTuple, lam) -> np.ndarray:
    """Row-calculus form psi^+(T) psi^+(T)^* - psi^-(T) psi^-(T)^* for 0/1 lam."""
    if not is_zero_one(lam) or weight(lam) == 0:
        raise ValueError("row form needs a nonzero 0/1 multi-index")
    even = [q for q in predecessors(lam) if weight(q) % 2 == 0]
    odd = [q for q in predecessors(lam) if weight(q) % 2 == 1]
    out = np.zeros((T.q, T.q), dtype=complex)
    for sub in even:
        P = T.power(sub)
        out += P @ P.conj().T
    for sub in odd:
        P = T.power(sub)
        out -= P @ P.conj().T
    return hermitize(out)


def hereditary_product_oracle(T, lam):
    """Independent oracle: multiply out the hereditary product recursively.

    Left factors accumulate monomials, right factors their adjoints; for
    0/1 lam this is the inclusion-exclusion over subsets computed pairwise.
    """
    import itertools
    q = T.q
    out = np.zeros((q, q), dtype=complex)
    supports = [j for j, e in enumerate(lam) for _ in range(e)]
    for picks in itertools.product([0, 1], repeat=len(supports)):
        M = np.eye(q, dtype=complex)
        for j, on in zip(supports, picks):
            if on:
                M = M @ T.matrices[j]
        out += (-1) ** sum(picks) * M @ M.conj().T
    return out


def ref_hereditary_defect_binomial(T: CommutingTuple, lam) -> np.ndarray:
    """The binomial sum over lam' <= lam of (-1)^{|lam'|} prod_j C(lam_j, lam'_j)
    T^{lam'} (T^{lam'})^*, one term per predecessor of lam."""
    out = np.zeros((T.q, T.q), dtype=complex)
    for sub in predecessors(lam):
        w = 1
        for a, b in zip(lam, sub):
            w *= comb(a, b)
        P = T.power(sub)
        out += ((-1) ** weight(sub)) * w * (P @ P.conj().T)
    return hermitize(out)


class TestCommutingTuple:
    def test_noncommuting_rejected(self):
        A = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="commute"):
            CommutingTuple([A, A.T])

    def test_power(self):
        T = random_strict_tuple(RNG(0), 2, 3)
        P = T.power((2, 1))
        expected = T.matrices[0] @ T.matrices[0] @ T.matrices[1]
        assert np.abs(P - expected).max() < 1e-12


class TestHereditaryDefect:
    def test_zero_contraction(self):
        T = CommutingTuple([np.zeros((1, 1))])
        assert np.allclose(hereditary_defect(T, (1,)), [[1.0]])

    def test_commuting_unitaries_kill_the_product(self):
        rng = RNG(1)
        U = random_unitary(rng, 3)
        T = CommutingTuple([U, U @ U])
        assert np.abs(hereditary_defect(T, (1, 1))).max() < 1e-12

    def test_parrott_full_defect(self):
        # oracle: all pair products vanish, so the hereditary product
        # collapses to 1 - sum T_j T_j^* = 1 - 3 P with P the projection
        # onto the first block: spectrum (-2, -2, 1, 1), indefinite
        T = parrott_default()
        D = hereditary_defect(T, (1, 1, 1))
        oracle = hereditary_product_oracle(T, (1, 1, 1))
        assert np.abs(D - oracle).max() < 1e-12
        assert np.allclose(np.linalg.eigvalsh(D), [-2.0, -2.0, 1.0, 1.0])
        # for the classical preordering each factor alone stays PSD
        rep = is_brehmer(T, classical(3))
        assert rep.is_brehmer

    def test_matches_row_calculus(self):
        rng = RNG(2)
        for lam in [(1, 0), (1, 1), (1, 1, 1), (1, 0, 1)]:
            T = random_strict_tuple(rng, len(lam), int(rng.integers(2, 5)))
            a = hereditary_defect(T, lam)
            b = hereditary_defect_rows(T, lam)
            assert np.abs(a - b).max() < 1e-12

    def test_scalar_consistency(self):
        rng = RNG(3)
        for _ in range(20):
            lam = tuple(rng.integers(0, 3) for _ in range(2))
            if sum(lam) == 0:
                lam = (1, 1)
            z = rng.uniform(0, 0.9, 2) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
            T = CommutingTuple([z[0].reshape(1, 1), z[1].reshape(1, 1)])
            expected = np.prod((1 - np.abs(z) ** 2) ** np.array(lam))
            assert hereditary_defect(T, lam)[0, 0] == pytest.approx(expected)

    @pytest.mark.parametrize("name", ["kv", "parrott", "gkvw", "0.9 kv"])
    def test_matches_binomial_sum(self, name):
        T = kv_tuple().scaled(0.9) if name == "0.9 kv" else builtin_tuple(name)
        for lam in itertools.product(range(4), range(3), range(2)):
            ref = ref_hereditary_defect_binomial(T, lam)
            assert np.abs(hereditary_defect(T, lam) - ref).max() <= 1e-12

    def test_large_degree_is_the_scalar_power(self):
        # |lam| products, where the binomial sum cancels terms of up to 1e306
        T = CommutingTuple([np.array([[0.5]])])
        assert hereditary_defect(T, (1023,))[0, 0] == pytest.approx(0.75 ** 1023, rel=1e-12)

    def test_multiplicity_weights(self):
        # binomial weights: d=1, lam=(2) gives 1 - 2 TT* + T^2 T*^2
        T = random_strict_tuple(RNG(4), 1, 3)
        M = T.matrices[0]
        expected = (np.eye(3) - 2 * M @ M.conj().T
                    + M @ M @ M.conj().T @ M.conj().T)
        assert np.abs(hereditary_defect(T, (2,)) - expected).max() < 1e-12


class TestBrehmer:
    def test_unitaries_are_brehmer(self):
        rng = RNG(5)
        U = random_unitary(rng, 3)
        T = CommutingTuple([U, U.conj().T])
        rep = is_brehmer(T, standard_ample(2))
        assert rep.is_brehmer
        assert rep.margins[(1, 1)] == pytest.approx(0.0, abs=1e-12)

    def test_scalar_pair(self):
        T = CommutingTuple([np.array([[0.5]]), np.array([[0.5]])])
        rep = is_brehmer(T, standard_ample(2))
        assert rep.is_brehmer
        assert rep.margins[(1, 1)] == pytest.approx(0.5625)

    def test_gkvw_margins_reported(self):
        rep = is_brehmer(gkvw_default(), Preordering([(1, 1, 1)]))
        assert set(rep.margins) == {(1, 1, 1)}
        assert np.isfinite(rep.margins[(1, 1, 1)])


class TestEvalPolynomial:
    def test_constant(self):
        T = random_strict_tuple(RNG(6), 2, 3)
        p = TestPolynomial({(0, 0): 1.0})
        assert np.allclose(eval_polynomial(p, T), np.eye(3))

    def test_product_on_parrott(self):
        p = TestPolynomial({(1, 1, 0): 1.0})
        assert np.abs(eval_polynomial(p, parrott_default())).max() == 0.0

    def test_kv_value(self):
        # oracle: p(T) maps e1 to 3*sqrt(3) e5 and kills everything else
        T = kv_tuple()
        P = eval_polynomial(kv_polynomial(), T)
        col = np.zeros(6)
        col[4] = 3 * np.sqrt(3)
        assert np.abs(P[:, 0] - col).max() < 1e-12
        assert np.abs(P[:, 1:]).max() < 1e-12
        assert np.linalg.norm(P, 2) == pytest.approx(3 * np.sqrt(3))


class TestEvalColligationAtTuple:
    def test_coordinate_gives_component(self):
        col = Colligation([[0.0]], [[1.0]], [[1.0]], [[0.0]], ((unit(2, 0), 1),))
        T = random_strict_tuple(RNG(7), 2, 4)
        W = eval_colligation_at_tuple(col, T)
        assert np.abs(W - T.matrices[0]).max() < 1e-12

    def test_constant_colligation(self):
        D0 = np.array([[0.3, 0.1], [0.0, -0.5]])
        col = Colligation(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)),
                          D0, (), contractive=True)
        T = random_strict_tuple(RNG(8), 2, 3)
        assert np.allclose(eval_colligation_at_tuple(col, T), np.kron(D0, np.eye(3)))

    def test_product_colligation_gives_product(self):
        rng = RNG(9)
        c1 = Colligation([[0.0]], [[1.0]], [[1.0]], [[0.0]], ((unit(2, 0), 1),))
        c2 = Colligation([[0.0]], [[1.0]], [[1.0]], [[0.0]], ((unit(2, 1), 1),))
        prod = transfer_compose(c1, c2)
        T = random_strict_tuple(rng, 2, 4)
        W = eval_colligation_at_tuple(prod, T)
        assert np.abs(W - T.matrices[0] @ T.matrices[1]).max() < 1e-10

    def test_rejects_nonclassical_partition(self):
        rng = RNG(10)
        U = random_unitary(rng, 3)
        col = Colligation(U[:2, :2], U[:2, 2:], U[2:, :2], U[2:, 2:], (((1, 1), 1),))
        T = random_strict_tuple(rng, 2, 2)
        with pytest.raises(ValueError, match="classical"):
            eval_colligation_at_tuple(col, T)

    def test_rejects_partition_of_another_dimension(self):
        col = Colligation([[0.0]], [[1.0]], [[1.0]], [[0.0]], ((unit(3, 0), 1),))
        T = random_strict_tuple(RNG(12), 2, 2)
        with pytest.raises(ValueError) as err:
            eval_colligation_at_tuple(col, T)
        assert str(err.value) == ("tuple evaluation supports classical partitions only, "
                                  "got (1, 0, 0)")

    def test_rejects_nonstrict(self):
        col = Colligation([[0.0]], [[1.0]], [[1.0]], [[0.0]], ((unit(1, 0), 1),))
        U = CommutingTuple([np.eye(2)])
        with pytest.raises(ValueError, match="max"):
            eval_colligation_at_tuple(col, U)

    def test_von_neumann_trials(self):
        rng = RNG(11)
        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(1, 4))
            col = random_classical_colligation(rng, d)
            T = random_strict_tuple(rng, d, int(rng.integers(1, 7)))
            worst = max(worst, np.linalg.norm(eval_colligation_at_tuple(col, T), 2))
        assert worst <= 1 + 1e-9


class TestParrott:
    def test_paper_instance(self):
        T = parrott_default()
        assert T.q == 4
        for j in range(3):
            for k in range(3):
                assert np.abs(T.matrices[j] @ T.matrices[k]).max() == 0.0

    def test_anticommutation_enforced(self):
        with pytest.raises(ValueError, match="anticommutation"):
            parrott_tuple(np.eye(2), np.eye(2))

    def test_unitarity_enforced(self):
        with pytest.raises(ValueError, match="unitary"):
            parrott_tuple(0.5 * np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_irreducible(self):
        assert commutant_dimension(parrott_default()) == 1

    def test_forced_zero_algebra(self):
        U = np.diag([1.0, -1.0])
        V = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert parrott_forced_zero(U, V) > 1.9  # |2 UV| has sigma_min = 2

    def test_forced_zero_random_pairs(self):
        rng = RNG(12)
        for _ in range(20):
            Q = random_unitary(rng, 2)
            A = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 2)))
            U = np.kron(Q @ np.diag([1.0, -1.0]) @ Q.conj().T, A)
            V = np.kron(Q @ np.array([[0, 1], [1, 0]]) @ Q.conj().T, A)
            sigma_min = parrott_forced_zero(U, V)
            assert sigma_min > 1e-8
            # the relations force a = b = c = 0 for random candidate entries
            a = rng.normal(size=U.shape) + 1j * rng.normal(size=U.shape)
            b, c = a @ U, a @ V
            residual = np.linalg.norm(b @ V - c @ U)
            assert residual >= sigma_min * np.linalg.norm(a) - 1e-9


class TestGKVW:
    def test_paper_vectors(self):
        T = gkvw_default()
        assert T.q == 4
        assert T.is_contractive()

    def test_constraints_enforced(self):
        with pytest.raises(ValueError, match="unit"):
            gkvw_tuple([0, 2], [0, -1], [0, -1])
        with pytest.raises(ValueError, match="= 0"):
            gkvw_tuple([0, 1], [1, 0], [0, -1])

    def test_exact_commutation_and_nilpotency(self):
        T = gkvw_default()
        for j in range(3):
            for k in range(3):
                assert np.abs(T.matrices[j] @ T.matrices[k]
                              - T.matrices[k] @ T.matrices[j]).max() < 1e-15
                for l in range(3):
                    triple = T.matrices[j] @ T.matrices[k] @ T.matrices[l]
                    assert np.abs(triple).max() == 0.0

    def test_irreducible(self):
        assert commutant_dimension(gkvw_default()) == 1


class TestKV:
    def test_printed_matrices_commute_and_contract(self):
        T = kv_tuple()
        for j in range(3):
            for k in range(3):
                assert np.abs(T.matrices[j] @ T.matrices[k]
                              - T.matrices[k] @ T.matrices[j]).max() < 1e-15
        assert all(n <= 1 + 1e-12 for n in T.norms())

    def test_corner_compression(self):
        # rows/columns 1-4 carry rank-one creation blocks e_{j+1} e_1^T,
        # and the 6x6 tuple dilates that corner
        T = kv_tuple()
        corner_mats = []
        for j, M in enumerate(T.matrices):
            corner = M[:4, :4]
            expected = np.zeros((4, 4))
            expected[j + 1, 0] = 1.0
            assert np.allclose(corner, expected)
            corner_mats.append(corner)
        small = CommutingTuple(corner_mats)
        basis = np.vstack([np.eye(4), np.zeros((2, 4))])
        assert dilation_check(T, small, basis, max_degree=4) < 1e-15


class TestBrehmerImpliesVonNeumann:
    def test_normal_tuples_against_sample_norm(self):
        # simultaneously diagonalizable contractions evaluate polynomials at
        # their joint eigenvalues, so |p(T)| is the sup over the matching
        # sample and sits below the bisection upper bound there
        from aglerlab.kernels import PointSample
        from aglerlab.realize import FunctionSample, schur_agler_norm
        from aglerlab.sampling import random_points
        rng = RNG(20)
        for trial in range(5):
            d = int(rng.integers(1, 3))
            q = int(rng.integers(2, 5))
            sample = random_points(rng, q, d)
            Q = random_unitary(rng, q)
            T = CommutingTuple([Q @ np.diag(sample.points[:, j]) @ Q.conj().T
                                for j in range(d)])
            coeffs = {}
            for _ in range(3):
                lam = tuple(int(rng.integers(0, 3)) for _ in range(d))
                coeffs[lam] = complex(rng.normal(), rng.normal())
            p = TestPolynomial(coeffs)
            vals = np.array([p.eval_scalar(sample.points[x])[0, 0] for x in range(q)])
            phi = FunctionSample(sample, vals)
            out = schur_agler_norm(phi, classical(d), tol=1e-4)
            norm_pT = np.linalg.norm(eval_polynomial(p, T), 2)
            assert norm_pT <= out.c_hi + 1e-6
            assert norm_pT == pytest.approx(np.abs(vals).max(), abs=1e-10)


class TestDilationCheck:
    def test_self_dilation(self):
        T = random_strict_tuple(RNG(13), 2, 3)
        assert dilation_check(T, T, np.eye(3)) < 1e-12

    def test_semi_invariant_middle_block(self):
        # the compressed tuple sits in the middle of an upper-triangular
        # dilation (difference of two invariant subspaces)
        rng = RNG(15)
        T = random_strict_tuple(rng, 2, 2)
        mats = []
        for M in T.matrices:
            big = np.zeros((4, 4), dtype=complex)
            big[1:3, 1:3] = M
            mats.append(big)
        big_T = CommutingTuple(mats)
        basis = np.zeros((4, 2))
        basis[1, 0] = basis[2, 1] = 1.0
        assert dilation_check(big_T, T, basis) < 1e-12

    def test_direct_sum(self):
        rng = RNG(14)
        T = random_strict_tuple(rng, 2, 3)
        S = random_strict_tuple(rng, 2, 2)
        big = CommutingTuple([np.block([[A, np.zeros((3, 2))],
                                        [np.zeros((2, 3)), B]])
                              for A, B in zip(T.matrices, S.matrices)])
        basis = np.vstack([np.eye(3), np.zeros((2, 3))])
        assert dilation_check(big, T, basis) < 1e-12


class TestCommutantDimension:
    def test_scalar(self):
        assert commutant_dimension(CommutingTuple([np.array([[1.0]])])) == 1

    def test_direct_sum_is_reducible(self):
        T1 = np.diag([0.3, 0.7])
        assert commutant_dimension(CommutingTuple([T1])) >= 2

    def test_builtin_lookup(self):
        assert builtin_tuple("kv").q == 6
        with pytest.raises(ValueError, match="unknown tuple"):
            builtin_tuple("nope")


# ---------------------------------------------------------------------------
# reference implementation: the state operator S_T laid out block by block, as
# before Colligation.state_operator; W(T) must match it bit for bit


def ref_eval_colligation_at_tuple(col, T):
    q, E = T.q, col.state_dim
    S = np.zeros((E * q, E * q), dtype=complex)
    off = 0
    for lam, mult in col.partition:
        Tj = T.matrices[lam.index(1)]
        for _ in range(mult):
            S[off:off + q, off:off + q] = Tj
            off += q
    Aq = np.kron(col.A, np.eye(q))
    Bq = np.kron(col.B, np.eye(q))
    Cq = np.kron(col.C, np.eye(q))
    Dq = np.kron(col.D, np.eye(q))
    return Dq + Cq @ S @ np.linalg.solve(np.eye(E * q) - Aq @ S, Bq)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(d=st.sampled_from([2, 3]), m=st.sampled_from([1, 2]), q=st.integers(1, 4),
       mults=st.lists(st.integers(0, 2), min_size=3, max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_eval_colligation_at_tuple_matches_per_block_reference(d, m, q, mults, seed):
    # the coordinates enter the partition in a random order; E = 0 when every
    # multiplicity is 0
    rng = RNG(seed)
    partition = tuple((unit(d, int(j)), mult) for j, mult in zip(rng.permutation(d), mults))
    E = sum(mult for _, mult in partition)
    U = random_unitary(rng, E + m)
    col = Colligation(U[:E, :E], U[:E, E:], U[E:, :E], U[E:, E:], partition)
    T = random_strict_tuple(rng, d, q)
    got = eval_colligation_at_tuple(col, T)
    assert got.shape == (m * q, m * q)
    assert np.array_equal(got, ref_eval_colligation_at_tuple(col, T))
