"""Dense helpers: one Hermitian part and one spectral norm, each for a matrix
and for a stack of matrices, and the unitary completion of a partial isometry."""
import numpy as np
import pytest

from aglerlab._linalg import hermitize, spectral_norm, unitary_completion
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
