"""Small dense linear-algebra helpers shared across the package."""
from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-10


def hermitize(M: np.ndarray) -> np.ndarray:
    """Nearest Hermitian matrix (also fixes round-off drift), of a matrix or of
    each matrix in a stack over the last two axes."""
    return (M + np.swapaxes(M.conj(), -1, -2)) / 2


def block_diag(blocks) -> np.ndarray:
    """Complex matrix with the 2-D blocks down its diagonal, in order, and zeros
    elsewhere; a (k, r, c) array is k blocks, and no blocks give a 0 x 0 matrix."""
    shapes = [b.shape for b in blocks]
    out = np.zeros((sum(h for h, _ in shapes), sum(w for _, w in shapes)), dtype=complex)
    r = c = 0
    for b, (h, w) in zip(blocks, shapes):
        out[r:r + h, c:c + w] = b
        r, c = r + h, c + w
    return out


def min_eig(M: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(hermitize(M)).min())


def spectral_norm(M: np.ndarray):
    """Largest singular value of a matrix, as a float, or of each matrix in a
    stack over the last two axes, as an array; an empty matrix has norm 0."""
    norms = np.linalg.norm(M, 2, axis=(-2, -1)) if M.size else np.zeros(M.shape[:-2])
    return float(norms) if M.ndim == 2 else norms


def psd_clip(M: np.ndarray) -> np.ndarray:
    """Project a Hermitian matrix onto the PSD cone (eigenvalue clipping)."""
    return clip_eig(*np.linalg.eigh(hermitize(M)))


def clip_eig(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """psd_clip of the Hermitian matrix with eigendecomposition (w, V)."""
    return (V * np.clip(w, 0, None)) @ V.conj().T


def hermitian_sqrt(M: np.ndarray, tol: float = DEFAULT_TOL):
    """Hermitian square root and pseudo-inverse square root of a PSD matrix."""
    w, V = np.linalg.eigh(hermitize(M))
    wmax = max(w.max(), 0.0)
    if w.min() < -tol * max(wmax, 1.0):
        raise ValueError(f"matrix not PSD: min eigenvalue {w.min():.3e}")
    w = np.clip(w, 0, None)
    keep = w > tol * max(wmax, 1e-300)
    root = (V[:, keep] * np.sqrt(w[keep])) @ V[:, keep].conj().T
    iroot = (V[:, keep] / np.sqrt(w[keep])) @ V[:, keep].conj().T
    return root, iroot


def orthonormal_range(M: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of ran(M) via SVD with a relative rank cut."""
    if M.size == 0:
        return np.zeros((M.shape[0], 0), dtype=complex)
    U, s, _ = np.linalg.svd(M)
    rank = int((s > tol * max(s.max(initial=0.0), 1e-300)).sum())
    return U[:, :rank]


def polar_isometry(M: np.ndarray) -> np.ndarray:
    """Closest matrix with orthonormal columns (polar factor)."""
    U, _, Vh = np.linalg.svd(M, full_matrices=False)
    return U @ Vh


# the least cosine of a principal angle between ran(V) and ran(W) that
# unitary_completion accepts: the completion moves by about (rounding in V and
# W) / s_min, so at this floor a perturbation of 1e-16 moves it by about 1e-10;
# it stays unitary to rounding at any cosine
COMPLETION_FLOOR = 1e-6


def unitary_completion(V: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The unitary that is W V^* on ran(V) and the polar factor of Q P on
    ran(V)^perp, for n x r matrices V and W with orthonormal columns,
    P = 1 - V V^* and Q = 1 - W W^*.

    Q P maps ran(P) into ran(Q), both of dimension k = n - r.  When it is
    invertible between them, its polar factor is the unique partial isometry
    of its polar decomposition, so the completion depends only on W V^* and
    the two ranges.  That polar factor is fixed by the r x r cosine matrix
    C = V^* W = Y diag(s) Z^* (Bjorck and Golub, Math. Comp. 27, 1973): with
    X = P W, P Q P = P - X X^* and X^* X = 1 - C^* C, which gives, for
    Wz = W Z and Vy = V Y,

        U = 1 + (W - V) V^* - (Wz + Vy) diag(1 / (1 + s)) (Wz - Vy diag(s))^*.

    No term divides by s, so U is unitary to rounding however close the
    cosines come to 0.  The least cosine equals sigma_k(Q P); the completion
    raises ArithmeticError when it is below COMPLETION_FLOOR, where the polar
    factor is ill-determined.
    """
    n, r = V.shape
    if n == r:
        return W @ V.conj().T
    Y, s, Zh = np.linalg.svd(V.conj().T @ W)
    s_min = s.min(initial=1.0)
    if not s_min >= COMPLETION_FLOOR:
        raise ArithmeticError(f"unitary completion is ill-determined: the complements "
                              f"meet at sigma {s_min:.3e} < {COMPLETION_FLOOR:g}")
    Wz, Vy = W @ Zh.conj().T, V @ Y
    U = (W - V) @ V.conj().T - ((Wz + Vy) / (1 + s)) @ (Wz - Vy * s).conj().T
    U[np.diag_indices(n)] += 1
    return U
