"""Seeded random instance generators shared by tests, suites, and scripts."""
from __future__ import annotations

import numpy as np

from .kernels import HermitianKernel, PointSample
from .preorder import unit
from .realize import Colligation, FunctionSample


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
    # the classical formula, one E x E solve per point with S(x) = diag(x_j
    # repeated mult_j times), not eval_transfer: these values are the instances'
    # bits, and norm brackets on them hang on the last bit of phi
    E = col.state_dim
    values = np.empty((n_points, m, m), dtype=complex)
    diags = np.repeat(sample.points, [mult for _, mult in col.partition], axis=1)
    for x, diag in enumerate(diags):
        S = np.diag(diag)
        values[x] = col.D + col.C @ S @ np.linalg.solve(np.eye(E) - col.A @ S, col.B)
    return FunctionSample(sample, values), col
