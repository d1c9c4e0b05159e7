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


# the least singular value that unitary_completion accepts on the complements:
# the polar factor moves by about (rounding in V and W) / sigma_k, so at this
# floor a perturbation of 1e-16 moves the completion by about 1e-10
COMPLETION_FLOOR = 1e-6


def unitary_completion(V: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The unitary that is W V^* on ran(V) and the polar factor of Q P on
    ran(V)^perp, for n x r matrices V and W with orthonormal columns,
    P = 1 - V V^*, Q = 1 - W W^* and k = n - r.

    Q P maps ran(P) into ran(Q); when its k-th singular value is positive its
    top k singular triplets span both, and their polar factor is the unique
    partial isometry of its polar decomposition.  So the completion depends only
    on W V^* and the two ranges, not on the bases of ran(P) and ran(Q) that a
    decomposition happens to return.  Its right factor is projected by P once
    more: rounding in the SVD leaves it a part of size eps / sigma_k on ran(V),
    which would move the images of V.  Raises ArithmeticError when sigma_k(Q P)
    is below COMPLETION_FLOOR, where that polar factor is ill-determined.
    """
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
