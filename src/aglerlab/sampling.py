"""Seeded random instance generators shared by tests, suites, and scripts."""
from __future__ import annotations

import numpy as np

from .kernels import HermitianKernel, PointSample
from .preorder import unit
from .realize import Colligation, FunctionSample, eval_transfer


def random_points(rng: np.random.Generator, n: int, d: int,
                  rmin: float = 0.05, rmax: float = 0.85) -> PointSample:
    r = rng.uniform(rmin, rmax, (n, d))
    th = rng.uniform(0, 2 * np.pi, (n, d))
    return PointSample(r * np.exp(1j * th))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(M)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_psd_kernel(rng: np.random.Generator, sample: PointSample,
                      m: int = 1, rank: int | None = None) -> HermitianKernel:
    n = sample.n_points * m
    rank = rank or n
    G = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    return HermitianKernel.from_assembled(sample, G @ G.conj().T)


def random_classical_colligation(rng: np.random.Generator, d: int, m: int = 1,
                                 max_mult: int = 2) -> Colligation:
    """Unitary colligation whose partition uses each coordinate direction."""
    mults = [int(rng.integers(1, max_mult + 1)) for _ in range(d)]
    E = sum(mults)
    U = random_unitary(rng, E + m)
    partition = tuple((unit(d, j), mults[j]) for j in range(d))
    return Colligation(U[:E, :E], U[:E, E:], U[E:, :E], U[E:, E:], partition)


def random_transfer_sample(rng: np.random.Generator, n_points: int, d: int,
                           m: int = 1) -> tuple[FunctionSample, Colligation]:
    """Values of a random unitary-colligation transfer function on a sample."""
    col = random_classical_colligation(rng, d, m)
    sample = random_points(rng, n_points, d)
    return FunctionSample(sample, eval_transfer(col, sample.points)), col


def random_strict_tuple(rng: np.random.Generator, d: int, q: int,
                        margin: float = 0.05):
    """Strictly contractive commuting tuple.

    Polynomials in one random contraction commute to round-off and are not
    normal in general; half the draws use a simultaneously unitarily
    diagonalizable family instead.
    """
    from .opmodel import CommutingTuple
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
