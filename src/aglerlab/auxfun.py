"""Even/odd monomial rows, auxiliary matrix functions, and their finite-stage
extension to contractive multipliers.

For a 0/1 multi-index lam with |lam| = k, the 2^k monomials dividing
psi^lam split into even- and odd-degree halves of size n = 2^{k-1}.  The
row functions psi^+ and psi^- built from them satisfy the defect identity

    psi^+(x) psi^+(y)^* - psi^-(x) psi^-(y)^*
        = prod_{lam_i = 1} (1 - psi_i(x) conj(psi_i(y))),

and sigma(x) = psi^+(x)^* psi^-(x) / |psi^+(x)|^2 is the n x n strict
contraction with psi^+ sigma = psi^-.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import block_diag, hermitian_sqrt, min_eig, orthonormal_range, spectral_norm
from .kernels import (HermitianKernel, PointSample, defect_factor, sample_multi_index,
                      szego_factor)
from .preorder import MultiIndex, Preordering, classify, parity_split


def monomial_rows(points: np.ndarray, lam: MultiIndex) -> tuple[np.ndarray, np.ndarray]:
    """psi^+ and psi^- rows, (N, n) each, at every row of an (N, d) psi-value array."""
    even, odd = parity_split(lam)
    points = np.asarray(points, dtype=complex)[:, None, :]
    return (np.prod(points ** np.array(even), axis=2),
            np.prod(points ** np.array(odd), axis=2))


def row_sqnorms(rows: np.ndarray) -> np.ndarray:
    """|row|^2 per row, by the one-row norm: an axis= norm rounds differently."""
    return np.array([np.linalg.norm(row) ** 2 for row in rows])


def raw_sigmas(points: np.ndarray, lam: MultiIndex) -> np.ndarray:
    """Raw sigma_lam at every row of an (N, d) psi-value array: (N, n, n), rank one."""
    plus, minus = monomial_rows(points, lam)
    return plus.conj()[:, :, None] * minus[:, None, :] / row_sqnorms(plus)[:, None, None]


@dataclass(frozen=True)
class PsiRows:
    """Even/odd monomial rows of all sample points, lexicographic order."""

    sample: PointSample
    lam: MultiIndex
    plus: np.ndarray   # (N, n)
    minus: np.ndarray  # (N, n)

    @property
    def n(self) -> int:
        return self.plus.shape[1]

    def defect_identity_residual(self) -> float:
        lhs = self.plus @ self.plus.conj().T - self.minus @ self.minus.conj().T
        rhs = defect_factor(self.sample, self.lam)
        return float(np.abs(lhs - rhs).max())


def psi_rows(sample: PointSample, lam: MultiIndex) -> PsiRows:
    lam = sample_multi_index(sample, lam)
    return PsiRows(sample, lam, *monomial_rows(sample.points, lam))


@dataclass(frozen=True)
class AuxFunctionSample:
    """Per-point n x n auxiliary matrices sigma_lam(x)."""

    sample: PointSample
    lam: MultiIndex
    sigmas: np.ndarray  # (N, n, n)
    mode: str           # "raw" | "extended"

    @property
    def n(self) -> int:
        return self.sigmas.shape[1]

    def norms(self) -> np.ndarray:
        return spectral_norm(self.sigmas)


def aux_function(sample: PointSample, lam: MultiIndex) -> AuxFunctionSample:
    """Raw sigma_lam: psi^+ sigma = psi^- holds exactly, norm |psi^-|/|psi^+| < 1."""
    lam = sample_multi_index(sample, lam)
    return AuxFunctionSample(sample, lam, raw_sigmas(sample.points, lam), "raw")


def verify_defect_identity(sample: PointSample, lam: MultiIndex,
                           K: HermitianKernel) -> float:
    """Residual of the sandwich identity tying sigma_lam to the hereditary defect.

    max over (x,y) of | psi^+(x)(K(x,y) I - sigma(x)(K(x,y) I)sigma(y)^*)psi^+(y)^*
                        - (prod (1-psi_i psi_i^*)^{lam_i} * K)(x,y) |
    for scalar K.
    """
    if K.block_dim != 1:
        raise ValueError("identity check takes a scalar kernel")
    rows = psi_rows(sample, lam)
    aux = aux_function(sample, lam)
    Ksc = K.scalar_part()
    rhs = defect_factor(sample, lam) * Ksc
    worst = 0.0
    for x in range(sample.n_points):
        for y in range(sample.n_points):
            inner = Ksc[x, y] * (np.eye(rows.n) - aux.sigmas[x] @ aux.sigmas[y].conj().T)
            val = rows.plus[x] @ inner @ rows.plus[y].conj()
            worst = max(worst, abs(val - rhs[x, y]))
    return float(worst)


@dataclass(frozen=True)
class FiniteStageExtension:
    """Finite-stage contractive completion data for sigma_lam on a sample.

    stage_operator is the full (N*n) x (N*n) operator S_F = kappa G kappa^{-1}
    acting on the Szego model of the sample; sigmas holds its per-point
    compressions (contractions, but only the full operator carries the
    positivity certificate).  pointwise_defect_min_eig measures how far the
    per-point compressions are from a true contractive multiplier: it is the
    min eigenvalue of ((1_n - sigma(x) sigma(y)^*) k_s(x, y)) and is the
    error gauge for any predicate built on the per-point matrices.
    """

    aux: AuxFunctionSample
    completion_norm: float          # |G_F|
    identity_residual: float        # eq-(8)-type sandwich agreement with raw sigma
    defect_min_eig: float           # min eig of k_F - S_F k_F S_F^*
    pointwise_defect_min_eig: float
    stage_operator: np.ndarray
    boundary_points: tuple[int, ...]  # points where the compression reaches norm 1


def extend_aux_finite(sample: PointSample, lam: MultiIndex,
                      preordering: Preordering) -> FiniteStageExtension:
    """Finite-stage contractive extension of sigma_lam for an ample preordering.

    Builds the Hermitian square root kappa of the Szego model on the sample,
    the oblique projection Q = kappa^{-1} P+ kappa, and the minimal-norm
    completion G = P_{ran Q^*} kappa^{-1} sigma kappa, then returns
    S = kappa G kappa^{-1} with its diagnostics.  The completion norm never
    exceeds one; the hereditary defect k - S k S^* of the full stage
    operator is PSD.
    """
    cls = classify(preordering)
    if not cls.is_ample:
        raise ValueError(f"finite-stage extension needs an ample preordering, got {cls.kind}")
    lam_m = cls.lambda_max
    rows = psi_rows(sample, lam)
    N, n = rows.plus.shape

    ks = szego_factor(sample, lam_m)
    kF = np.kron(ks, np.eye(n))
    kappa, kappa_inv = hermitian_sqrt(kF)

    Psip = block_diag(rows.plus[:, None, :])
    gram = Psip @ Psip.conj().T
    P_plus = Psip.conj().T @ np.linalg.solve(gram, Psip)

    Q = kappa_inv @ P_plus @ kappa
    basis = orthonormal_range(Q.conj().T)
    P_ranQs = basis @ basis.conj().T

    sigF = block_diag(raw_sigmas(sample.points, rows.lam))

    G = P_ranQs @ kappa_inv @ sigF @ kappa
    norm_G = spectral_norm(G)
    if norm_G > 1 + 1e-9:
        raise ArithmeticError(f"completion norm {norm_G} exceeds 1: construction broke")
    S = kappa @ G @ kappa_inv

    lhs = Psip @ (kF - S @ kF @ S.conj().T) @ Psip.conj().T
    rhs = Psip @ (kF - sigF @ kF @ sigF.conj().T) @ Psip.conj().T
    res8 = float(np.abs(lhs - rhs).max())
    defect_eig = min_eig(kF - S @ kF @ S.conj().T)

    # per-point compressions through the singleton restriction of the stage:
    # sigma~(x) = kappa_x G kappa_x^* / k_s(x,x), a contraction
    kx = kappa.reshape(N, n, N * n)  # kappa_x: rows x*n..(x+1)*n
    sigmas = kx @ G @ kx.conj().transpose(0, 2, 1) / ks.diagonal().real[:, None, None]
    ext = AuxFunctionSample(sample, rows.lam, sigmas, "extended")
    boundary = tuple(np.flatnonzero(ext.norms() >= 1 - 1e-9).tolist())

    # k_s enters as an array, not as a HermitianKernel: near the torus the round-off
    # of 1 / (1 - z conj(w)) exceeds that class's Hermitian check
    contact = np.eye(n) - sigmas[:, None] @ sigmas.conj().transpose(0, 2, 1)[None]
    pointwise = np.kron(ks, np.ones((n, n))) * HermitianKernel(sample, contact).assembled()
    return FiniteStageExtension(ext, norm_G, res8, defect_eig, min_eig(pointwise), S, boundary)


# ---------------------------------------------------------------------------
# built-in example domains


def polydisk_domain(d: int):
    """Coordinate test functions: the identity map on D^d."""
    def embed(base_points) -> PointSample:
        pts = np.asarray(base_points, dtype=complex)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.shape[1] != d:
            raise ValueError(f"expected base points in C^{d}")
        return PointSample(pts)
    return embed


def annulus_domain(r: float):
    """Test functions {z, r/z} on the annulus r < |z| < 1."""
    if not 0 < r < 1:
        raise ValueError("annulus parameter must be in (0, 1)")

    def embed(base_points) -> PointSample:
        z = np.asarray(base_points, dtype=complex).ravel()
        mod = np.abs(z)
        if (mod <= r).any() or (mod >= 1).any():
            raise ValueError(f"annulus points need {r} < |z| < 1")
        return PointSample(np.stack([z, r / z], axis=1))
    return embed


def constrained_disk_domain():
    """Test functions {z^2, z^3} on the disk: the constrained algebra."""
    def embed(base_points) -> PointSample:
        z = np.asarray(base_points, dtype=complex).ravel()
        if (np.abs(z) >= 1).any():
            raise ValueError("disk points need |z| < 1")
        return PointSample(np.stack([z ** 2, z ** 3], axis=1))
    return embed


def builtin_domain(name: str, **params):
    """Named test-function families mapping base points to samples."""
    if name == "polydisk":
        return polydisk_domain(int(params["d"]))
    if name == "annulus":
        return annulus_domain(float(params["r"]))
    if name == "constrained-disk":
        return constrained_disk_domain()
    raise ValueError(f"unknown domain {name!r}; "
                     "expected polydisk, annulus, or constrained-disk")
