"""Reference constructions shared by several test modules."""
import numpy as np

from aglerlab.opmodel import CommutingTuple
from aglerlab.pick import PickProblem
from aglerlab.sampling import random_unitary


def classical_pick_matrix(problem: PickProblem) -> np.ndarray:
    """Scalar d=1 cross-check: ((a_x conj(a_y) - b_x conj(b_y)) / (1 - z_x conj(z_y)))."""
    if problem.nodes.d != 1 or problem.m != 1 or problem.p != 1:
        raise ValueError("classical Pick matrix is the scalar one-variable form")
    z = problem.nodes.points[:, 0]
    a = problem.a[:, 0, 0]
    b = problem.b[:, 0, 0]
    num = np.outer(a, a.conj()) - np.outer(b, b.conj())
    den = 1 - np.outer(z, z.conj())
    return num / den


def random_strict_tuple(rng: np.random.Generator, d: int, q: int,
                        margin: float = 0.05) -> CommutingTuple:
    """Strictly contractive commuting tuple.

    Polynomials in one random contraction commute to round-off and are not
    normal in general; half the draws use a simultaneously unitarily
    diagonalizable family instead.
    """
    if rng.uniform() < 0.5:
        M = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
        M /= np.linalg.norm(M, 2) * rng.uniform(1.05, 2.0)
        mats = []
        for _ in range(d):
            coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
            T = coeffs[0] * np.eye(q) + coeffs[1] * M + coeffs[2] * M @ M
            mats.append(T)
    else:
        Q = random_unitary(rng, q)
        mats = []
        for _ in range(d):
            diag = rng.uniform(0, 1, q) * np.exp(1j * rng.uniform(0, 2 * np.pi, q))
            mats.append(Q @ np.diag(diag) @ Q.conj().T)
    scale = max(np.linalg.norm(T, 2) for T in mats)
    target = rng.uniform(0.3, 1 - margin)
    mats = [T * (target / scale) for T in mats]
    return CommutingTuple(mats)
