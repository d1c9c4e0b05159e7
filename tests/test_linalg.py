"""Dense helpers: one Hermitian part and one spectral norm, each for a matrix
and for a stack of matrices, and the unitary completion of a partial isometry,
against the polar factor of Q P computed from an n x n SVD."""
import numpy as np
import pytest

from aglerlab._linalg import COMPLETION_FLOOR, hermitize, spectral_norm, unitary_completion
from aglerlab.realize import Colligation
from aglerlab.sampling import random_unitary


def complex_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("shape", [(5, 3, 3), (4, 2, 2), (2, 3, 4, 4), (1, 1, 1)])
def test_hermitize_stack_equals_each_matrix(shape):
    M = complex_stack(np.random.default_rng(len(shape) * 10 + shape[-1]), shape)
    H = hermitize(M)
    for idx in np.ndindex(*shape[:-2]):
        ref = (M[idx] + M[idx].conj().T) / 2
        assert hermitize(M[idx]).tobytes() == ref.tobytes()
        assert H[idx].tobytes() == ref.tobytes()


@pytest.mark.parametrize("seed", range(20))
def test_spectral_norm_stack_equals_each_matrix(seed):
    rng = np.random.default_rng(seed)
    M = complex_stack(rng, tuple(int(v) for v in rng.integers(1, 6, size=3)))
    norms = spectral_norm(M)
    assert norms.shape == M.shape[:1]
    for x in range(M.shape[0]):
        one = spectral_norm(M[x])
        assert type(one) is float
        assert np.float64(one).tobytes() == np.float64(np.linalg.norm(M[x], 2)).tobytes()
        assert norms[x].tobytes() == np.float64(one).tobytes()


def test_spectral_norm_of_empty_matrices_is_zero():
    assert spectral_norm(np.zeros((2, 0))) == 0.0
    assert spectral_norm(np.zeros((3, 2, 0))).tolist() == [0.0, 0.0, 0.0]
    assert spectral_norm(np.zeros((0, 2, 2))).tolist() == []


def ref_unitary_completion(V, W):
    """W V^* plus the polar factor of Q P from its n x n SVD, P = 1 - V V^*,
    Q = 1 - W W^*: the top k = n - r singular triplets span ran(P) and
    ran(Q), and the right factor is projected by P once more."""
    n, r = V.shape
    k = n - r
    U = W @ V.conj().T
    if k == 0:
        return U
    eye = np.eye(n)
    P = eye - V @ V.conj().T
    L, s, Rh = np.linalg.svd((eye - W @ W.conj().T) @ P)
    if not s[k - 1] >= COMPLETION_FLOOR:
        raise ArithmeticError(f"unitary completion is ill-determined: the complements "
                              f"meet at sigma {s[k - 1]:.3e} < {COMPLETION_FLOOR:g}")
    return U + L[:, :k] @ (Rh[:k] @ P)


@pytest.mark.parametrize("n, r", [(6, 2), (9, 5), (12, 11), (4, 4), (5, 1)])
def test_unitary_completion_depends_only_on_the_ranges(n, r):
    # V -> V Q and W -> W Q leave W V^* and both ranges alone, so the
    # completion stays; pairing SVD bases of the complements does not
    rng = np.random.default_rng([n, r])
    V, W = random_unitary(rng, n)[:, :r], random_unitary(rng, n)[:, :r]
    Q = random_unitary(rng, r)
    U = unitary_completion(V, W)
    assert np.abs(U.conj().T @ U - np.eye(n)).max() <= 1e-12
    assert np.abs(U @ V - W).max() <= 1e-12
    assert np.abs(unitary_completion(V @ Q, W @ Q) - U).max() <= 1e-12


def test_unitary_completion_refuses_complements_that_meet():
    # ran(W) = span(e_2) lies in ran(V)^perp, so Q P = e_3 e_3^* has rank 1 < k = 2
    V, W = np.eye(3)[:, :1], np.eye(3)[:, 1:2]
    with pytest.raises(ArithmeticError, match="complements meet at sigma 0.000e"):
        unitary_completion(V, W)


@pytest.mark.parametrize("n, r", [(6, 2), (9, 5), (12, 11), (4, 4), (5, 1),
                                  (66, 32), (130, 64), (258, 128)])
def test_unitary_completion_is_the_polar_factor_of_q_p(n, r):
    rng = np.random.default_rng([n, r])
    V, W = random_unitary(rng, n)[:, :r], random_unitary(rng, n)[:, :r]
    assert np.abs(unitary_completion(V, W) - ref_unitary_completion(V, W)).max() <= 1e-12


def test_reference_completion_refuses_complements_that_meet():
    V, W = np.eye(3)[:, :1], np.eye(3)[:, 1:2]
    with pytest.raises(ArithmeticError, match="complements meet at sigma 0.000e"):
        ref_unitary_completion(V, W)


def test_unitary_completion_of_nothing_is_the_identity():
    empty = np.zeros((5, 0), dtype=complex)
    assert np.array_equal(unitary_completion(empty, empty), np.eye(5))


@pytest.mark.parametrize("eps", [1e-5, 2e-6, 1.01e-6])
@pytest.mark.parametrize("seed", range(5))
def test_unitary_completion_near_the_floor_builds_a_colligation(eps, seed):
    # V^* W = eps 1, so every cosine is eps, just above COMPLETION_FLOOR.  There
    # ref_unitary_completion misses unitarity by a few eps_machine / eps
    # (|U^* U - 1| = 4e-10 to 7e-10 at eps = 2e-6), which the colligation's
    # own 1e-10 check refuses
    B = random_unitary(np.random.default_rng([40, seed]), 40)
    V, W = B[:, :10], np.sqrt(1 - eps ** 2) * B[:, 10:20] + eps * B[:, :10]
    U = unitary_completion(V, W)
    assert spectral_norm(U.conj().T @ U - np.eye(40)) <= 1e-13
    assert np.abs(U @ V - W).max() <= 1e-13
    Colligation(U[:38, :38], U[:38, 38:], U[38:, :38], U[38:, 38:], (((1,), 38),))
