"""Operator-valued Hermitian kernels on finite point samples.

Points are identified with their test-function value vectors in the open
unit polydisk, so a sample is just an N x d complex array with all moduli
below one.  Kernels carry m x m blocks per point pair; the assembled
(N*m) x (N*m) matrix is Hermitian.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import DEFAULT_TOL, hermitize
from .preorder import MultiIndex, Preordering, is_zero_one, minimal_reduction

DUPLICATE_TOL = 1e-12


@dataclass(frozen=True)
class PointSample:
    """Finite list of distinct points given by test-function values."""

    points: np.ndarray  # (N, d) complex

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.size == 0:
            raise ValueError("points must be a nonempty N x d array")
        mod = np.abs(pts)
        if not mod.max() < 1.0:  # a NaN fails here too
            raise ValueError(f"test-function values must have modulus < 1, got {mod.max()}")
        gap = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2)
        dup_i, dup_j = np.nonzero(np.triu(gap < DUPLICATE_TOL, 1))
        if dup_i.size:  # row-major order: the first pair the nested loop over i < j meets
            raise ValueError(f"duplicate points at indices {dup_i[0]}, {dup_j[0]}: "
                             "test functions separate points")
        object.__setattr__(self, "points", pts)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def __eq__(self, other):
        return (isinstance(other, PointSample)
                and self.points.shape == other.points.shape
                and np.array_equal(self.points, other.points))

    def __hash__(self):
        return hash((self.points.shape, self.points.tobytes()))


def sample_multi_index(sample: PointSample, lam) -> MultiIndex:
    """lam as a tuple of ints, checked to have one entry per sample coordinate."""
    lam = tuple(int(v) for v in lam)
    if len(lam) != sample.d:
        raise ValueError(f"multi-index dimension {len(lam)} != sample dimension {sample.d}")
    return lam


def defect_factor(sample: PointSample, lam: MultiIndex) -> np.ndarray:
    """Scalar kernel matrix prod_i (1 - psi_i(x) conj(psi_i(y)))^{lam_i}."""
    pts = sample.points
    lam = sample_multi_index(sample, lam)
    D = np.ones((sample.n_points, sample.n_points), dtype=complex)
    for i, e in enumerate(lam):
        if e:
            D *= (1 - np.outer(pts[:, i], pts[:, i].conj())) ** e
    return D


def szego_factor(sample: PointSample, lam: MultiIndex) -> np.ndarray:
    """Scalar Szego matrix prod_{i: lam_i=1} (1 - psi_i(x) conj(psi_i(y)))^{-1}."""
    if not is_zero_one(lam):
        raise ValueError(f"Szego kernel needs a 0/1 multi-index, got {lam}")
    lam = sample_multi_index(sample, lam)
    pts = sample.points
    K = np.ones((sample.n_points, sample.n_points), dtype=complex)
    for i, e in enumerate(lam):
        if e:
            K /= (1 - np.outer(pts[:, i], pts[:, i].conj()))
    return K


@dataclass(frozen=True)
class HermitianKernel:
    """N x N array of m x m blocks, Hermitian as one assembled matrix."""

    sample: PointSample
    blocks: np.ndarray  # (N, N, m, m) complex

    def __post_init__(self):
        blk = np.asarray(self.blocks, dtype=complex)
        N = self.sample.n_points
        if blk.ndim == 2:
            blk = blk[:, :, None, None]
        if blk.shape[:2] != (N, N) or blk.ndim != 4 or blk.shape[2] != blk.shape[3]:
            raise ValueError(f"blocks must be (N, N, m, m) with N={N}, got {blk.shape}")
        object.__setattr__(self, "blocks", blk)
        A = self.assembled()
        err = np.abs(A - A.conj().T).max()
        scale = max(np.abs(A).max(), 1.0)
        if err > 1e-10 * scale:
            raise ValueError(f"kernel is not Hermitian: asymmetry {err:.3e}")

    @property
    def block_dim(self) -> int:
        return self.blocks.shape[2]

    @property
    def n_points(self) -> int:
        return self.sample.n_points

    def assembled(self) -> np.ndarray:
        N, _, m, _ = self.blocks.shape
        return self.blocks.transpose(0, 2, 1, 3).reshape(N * m, N * m)

    @staticmethod
    def from_assembled(sample: PointSample, A: np.ndarray) -> "HermitianKernel":
        N = sample.n_points
        m = A.shape[0] // N
        blocks = A.reshape(N, m, N, m).transpose(0, 2, 1, 3)
        return HermitianKernel(sample, blocks)

    @staticmethod
    def from_scalar(sample: PointSample, K: np.ndarray) -> "HermitianKernel":
        return HermitianKernel(sample, np.asarray(K, dtype=complex)[:, :, None, None])

    def scalar_part(self) -> np.ndarray:
        if self.block_dim != 1:
            raise ValueError("kernel is not scalar")
        return self.blocks[:, :, 0, 0]


def ones_kernel(sample: PointSample, m: int = 1) -> HermitianKernel:
    """[1]: every block the identity."""
    N = sample.n_points
    blocks = np.tile(np.eye(m, dtype=complex), (N, N, 1, 1))
    return HermitianKernel(sample, blocks)


def schur_product(K1: HermitianKernel, K2: HermitianKernel) -> HermitianKernel:
    """Blockwise Schur (tensor) product; scalar blocks reduce to entrywise."""
    if K1.sample != K2.sample:
        raise ValueError("kernels live on different samples")
    m1, m2 = K1.block_dim, K2.block_dim
    if m1 == 1:
        blocks = K1.blocks[:, :, 0, 0][:, :, None, None] * K2.blocks
    elif m2 == 1:
        blocks = K2.blocks[:, :, 0, 0][:, :, None, None] * K1.blocks
    else:
        blocks = np.einsum("xyij,xykl->xyikjl", K1.blocks, K2.blocks)
        N = K1.n_points
        blocks = blocks.reshape(N, N, m1 * m2, m1 * m2)
    return HermitianKernel(K1.sample, blocks)


def scalar_schur(K: HermitianKernel, factor: np.ndarray) -> HermitianKernel:
    """Schur-multiply by an N x N scalar Hermitian kernel matrix."""
    return HermitianKernel(K.sample, factor[:, :, None, None] * K.blocks)


def szego_kernel(sample: PointSample, lam: MultiIndex, m: int = 1) -> HermitianKernel:
    """1_m times prod_{i: lam_i=1} (1 - psi_i psi_i^*)^{-1}; positive definite."""
    K = szego_factor(sample, lam)
    if m == 1:
        return HermitianKernel.from_scalar(sample, K)
    blocks = K[:, :, None, None] * np.eye(m, dtype=complex)
    return HermitianKernel(sample, blocks)


def psd_check(K: HermitianKernel, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Min eigenvalue of the assembled matrix; PSD up to -tol*scale."""
    w = np.linalg.eigvalsh(hermitize(K.assembled()))
    scale = max(np.abs(w).max(), 1.0) if w.size else 1.0
    lo = float(w.min())
    return lo >= -tol * scale, lo


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    min_eigs: dict  # MultiIndex -> float
    worst_lambda: MultiIndex | None
    worst_eig: float
    witness_vector: np.ndarray | None  # eigenvector of the worst defect kernel


def is_admissible(K: HermitianKernel, preordering: Preordering,
                  tol: float = DEFAULT_TOL) -> AdmissibilityReport:
    """Check prod (1 - psi_i psi_i^*)^{lam_i} * K >= 0 for maximal lam.

    Checking the maximal elements suffices: lower elements follow by
    Schur-multiplying with the Szego kernel of the dropped factors.
    """
    if preordering.d != K.sample.d:
        raise ValueError(f"preordering dimension {preordering.d} != sample {K.sample.d}")
    ok, base_eig = psd_check(K, tol)
    eigs: dict = {}
    worst_lam, worst_eig, worst_vec = None, base_eig if not ok else np.inf, None
    for lam in minimal_reduction(preordering):
        defK = scalar_schur(K, defect_factor(K.sample, lam))
        A = hermitize(defK.assembled())
        w, V = np.linalg.eigh(A)
        eigs[lam] = float(w.min())
        if w.min() < worst_eig:
            worst_lam, worst_eig, worst_vec = lam, float(w.min()), V[:, 0]
    scale = max(max((abs(v) for v in eigs.values()), default=1.0), 1.0)
    admissible = ok and all(v >= -tol * scale for v in eigs.values())
    if admissible:
        worst_lam, worst_vec = None, None
    return AdmissibilityReport(admissible, eigs, worst_lam,
                               float(min(list(eigs.values()) + [base_eig])), worst_vec)


def is_subordinate(K: HermitianKernel, Kref: HermitianKernel) -> bool:
    """K = Kref * F with F positive?  Entrywise division, scalar Kref only."""
    if K.sample != Kref.sample:
        raise ValueError("kernels live on different samples")
    ref = Kref.scalar_part()
    if np.abs(ref).min() == 0.0:
        raise ValueError("reference kernel has a zero entry; division undefined")
    F = HermitianKernel(K.sample, K.blocks / ref[:, :, None, None])
    ok, _ = psd_check(F)
    return ok


@dataclass(frozen=True)
class KolmogorovFactor:
    """K(x,y) = gamma(x) gamma(y)^* with gamma(x) of shape m x rank."""

    sample: PointSample
    rank: int
    gammas: np.ndarray  # (N, m, rank)


def kolmogorov(K: HermitianKernel, tol: float = DEFAULT_TOL) -> KolmogorovFactor:
    """Factor a PSD kernel by Hermitian eigendecomposition: eigenvalues below
    -10 tol max(|K|, 1) are refused, and those at or below the rounding floor
    N m eps |K| are dropped, so no genuine eigenvalue is lost."""
    A = hermitize(K.assembled())
    w, V = np.linalg.eigh(A)
    scale = max(np.abs(w).max(), 1e-300)
    if w.min() < -10 * tol * max(scale, 1.0):
        raise ValueError(f"kernel is indefinite beyond tolerance: min eig {w.min():.3e}")
    N, m = K.n_points, K.block_dim
    keep = w > N * m * np.finfo(float).eps * scale
    rank = int(keep.sum())
    G = V[:, keep] * np.sqrt(np.clip(w[keep], 0, None))
    gammas = G.reshape(N, m, rank)
    return KolmogorovFactor(K.sample, rank, gammas)
