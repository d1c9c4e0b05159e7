"""Commuting matrix tuples: hereditary positivity, polynomial and transfer
evaluation, von Neumann checks, and the explicit boundary-representation
examples with their verifiers.

Hereditary always means adjoints on the right: monomials in the tuple act
on the left, their adjoints on the right.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._linalg import hermitize, min_eig, spectral_norm
from .preorder import MultiIndex, Preordering, minimal_reduction

if TYPE_CHECKING:
    from .realize import Colligation

COMMUTE_TOL = 1e-12


@dataclass(frozen=True)
class CommutingTuple:
    """d pairwise-commuting square complex matrices."""

    matrices: tuple  # of (q, q) ndarrays

    def __init__(self, matrices):
        mats = tuple(np.atleast_2d(np.asarray(M, dtype=complex)) for M in matrices)
        if not mats:
            raise ValueError("need at least one matrix")
        q = mats[0].shape[0]
        if any(M.shape != (q, q) for M in mats):
            raise ValueError("matrices must be square and of common size")
        scale = max(max(np.abs(M).max() for M in mats), 1.0)
        for j in range(len(mats)):
            for k in range(j + 1, len(mats)):
                err = np.abs(mats[j] @ mats[k] - mats[k] @ mats[j]).max()
                if err > COMMUTE_TOL * scale:
                    raise ValueError(f"matrices {j}, {k} do not commute: |[T_j,T_k]| = {err:.3e}")
        object.__setattr__(self, "matrices", mats)

    @property
    def d(self) -> int:
        return len(self.matrices)

    @property
    def q(self) -> int:
        return self.matrices[0].shape[0]

    def norms(self) -> list[float]:
        return spectral_norm(np.array(self.matrices)).tolist()

    def is_contractive(self) -> bool:
        return all(n <= 1 + 1e-12 for n in self.norms())

    def is_strict(self) -> bool:
        return all(n < 1 for n in self.norms())

    def scaled(self, r: float) -> "CommutingTuple":
        return CommutingTuple([r * M for M in self.matrices])

    def power(self, lam: MultiIndex) -> np.ndarray:
        """T^lam = prod_j T_j^{lam_j} (order immaterial for commuting tuples)."""
        if len(lam) != self.d:
            raise ValueError(f"multi-index dimension {len(lam)} != tuple dimension {self.d}")
        out = np.eye(self.q, dtype=complex)
        for j, e in enumerate(lam):
            for _ in range(e):
                out = out @ self.matrices[j]
        return out


def hereditary_defect(T: CommutingTuple, lam: MultiIndex) -> np.ndarray:
    """prod_j (1 - T_j T_j^*)^{lam_j} expanded hereditarily.

    Equals sum over lam' <= lam of (-1)^{|lam'|} prod_j C(lam_j, lam'_j)
    T^{lam'} (T^{lam'})^*, computed as X <- X - T_j X T_j^* applied lam_j
    times per coordinate to X = 1: the maps commute because the T_j do, and
    the cost is |lam| products, not one term per predecessor of lam.
    """
    if len(lam) != T.d:
        raise ValueError(f"multi-index dimension {len(lam)} != tuple dimension {T.d}")
    X = np.eye(T.q, dtype=complex)
    for M, e in zip(T.matrices, lam):
        for _ in range(e):
            X = X - M @ X @ M.conj().T
    return hermitize(X)


@dataclass(frozen=True)
class BrehmerReport:
    is_brehmer: bool
    margins: dict  # MultiIndex -> min eigenvalue of the hereditary defect


def is_brehmer(T: CommutingTuple, preordering: Preordering,
               tol: float = 1e-10) -> BrehmerReport:
    """Hereditary defects PSD for every maximal element of the preordering."""
    if preordering.d != T.d:
        raise ValueError("preordering dimension != tuple dimension")
    margins = {}
    for lam in minimal_reduction(preordering):
        margins[lam] = min_eig(hereditary_defect(T, lam))
    scale = max(max((abs(v) for v in margins.values()), default=1.0), 1.0)
    return BrehmerReport(all(v >= -tol * scale for v in margins.values()), margins)


@dataclass(frozen=True)
class TestPolynomial:
    """Finitely supported map from multi-indices to coefficient matrices."""

    __test__ = False  # not a pytest class despite the name

    coeffs: dict  # MultiIndex -> (m, m) ndarray

    def __init__(self, coeffs):
        clean = {}
        m = None
        for lam, c in coeffs.items():
            c = np.atleast_2d(np.asarray(c, dtype=complex))
            if m is None:
                m = c.shape[0]
            if c.shape != (m, m):
                raise ValueError("coefficient matrices must be square of common size")
            clean[tuple(int(v) for v in lam)] = c
        if not clean:
            raise ValueError("polynomial needs at least one coefficient")
        dims = {len(lam) for lam in clean}
        if len(dims) != 1:
            raise ValueError("mixed multi-index dimensions")
        object.__setattr__(self, "coeffs", clean)

    @property
    def d(self) -> int:
        return len(next(iter(self.coeffs)))

    @property
    def m(self) -> int:
        return next(iter(self.coeffs.values())).shape[0]


def eval_polynomial(p: TestPolynomial, T: CommutingTuple) -> np.ndarray:
    """sum_lam coeff_lam (x) T^lam on C^m (x) C^q."""
    if p.d != T.d:
        raise ValueError("polynomial dimension != tuple dimension")
    out = np.zeros((p.m * T.q, p.m * T.q), dtype=complex)
    for lam, c in p.coeffs.items():
        out += np.kron(c, T.power(lam))
    return out


def eval_colligation_at_tuple(col: Colligation, T: CommutingTuple) -> np.ndarray:
    """W(T) = D (x) 1 + (C (x) 1) S_T (1 - (A (x) 1) S_T)^{-1} (B (x) 1).

    Classical partitions only: every state block carries one coordinate,
    substituted as S_T = sum P_j (x) T_j.  The result is a contraction for
    unitary colligations and strict tuples.
    """
    units = {tuple(1 if j == i else 0 for j in range(T.d)): i for i in range(T.d)}
    for lam, _ in col.partition:
        if lam not in units:
            raise ValueError(f"tuple evaluation supports classical partitions only, got {lam}")
    if not T.is_strict():
        raise ValueError("tuple evaluation needs max_j |T_j| < 1")
    S = col.state_operator([T.matrices[units[lam]] for lam, _ in col.partition])
    Aq, Bq, Cq, Dq = (np.kron(X, np.eye(T.q)) for X in (col.A, col.B, col.C, col.D))
    return Dq + Cq @ S @ np.linalg.solve(np.eye(len(S)) - Aq @ S, Bq)


# ---------------------------------------------------------------------------
# explicit boundary-representation tuples


def parrott_tuple(U: np.ndarray, V: np.ndarray) -> CommutingTuple:
    """Nilpotent triple from anticommuting unitaries: T_j = [[0, W_j], [0, 0]].

    W_1 = 1, W_2 = U, W_3 = V; pairwise products vanish, so the triple
    commutes trivially.
    """
    U = np.atleast_2d(np.asarray(U, dtype=complex))
    V = np.atleast_2d(np.asarray(V, dtype=complex))
    k = U.shape[0]
    if U.shape != (k, k) or V.shape != (k, k):
        raise ValueError("U, V must be square of common size")
    for name, M in (("U", U), ("V", V)):
        err = np.abs(M @ M.conj().T - np.eye(k)).max()
        if err > 1e-12:
            raise ValueError(f"{name} is not unitary: defect {err:.3e}")
    anti = np.abs(U @ V + V @ U).max()
    if anti > 1e-12:
        raise ValueError(f"anticommutation UV = -VU fails: residual {anti:.3e}")
    Z = np.zeros((k, k))
    mats = [np.block([[Z, W], [Z, Z]]) for W in (np.eye(k), U, V)]
    return CommutingTuple(mats)


def parrott_default() -> CommutingTuple:
    """The 4x4 instance with U = diag(1, -1), V the flip."""
    return parrott_tuple(np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))


def parrott_forced_zero(U: np.ndarray, V: np.ndarray) -> float:
    """Least singular value of a |-> a(UV - VU).

    The commutation relations of any contractive dilation force aU = b,
    aV = c, bV = cU, hence a(UV - VU) = 0; a positive value certifies that
    only a = b = c = 0 survives.
    """
    M = U @ V - V @ U
    return float(np.linalg.svd(M, compute_uv=False).min())


def gkvw_tuple(u1, u2, u3) -> CommutingTuple:
    """Order-three nilpotent commuting triple from unit vectors summing to zero.

    T_j = [[0, u_j, 0], [0, 0, u_j^T], [0, 0, 0]] on C (+) C^2 (+) C.
    """
    us = [np.asarray(u, dtype=float).ravel() for u in (u1, u2, u3)]
    if any(u.shape != (2,) for u in us):
        raise ValueError("u_j must be vectors in R^2")
    for j, u in enumerate(us):
        if abs(np.linalg.norm(u) - 1) > 1e-12:
            raise ValueError(f"u_{j + 1} is not a unit vector")
    if np.abs(us[0] + us[1] + us[2]).max() > 1e-12:
        raise ValueError("u_1 + u_2 + u_3 = 0 fails")
    mats = []
    for u in us:
        M = np.zeros((4, 4), dtype=complex)
        M[0, 1:3] = u
        M[1:3, 3] = u
        mats.append(M)
    return CommutingTuple(mats)


def gkvw_default() -> CommutingTuple:
    s = np.sqrt(3) / 2
    return gkvw_tuple([0.0, 1.0], [s, -0.5], [-s, -0.5])


def kv_tuple() -> CommutingTuple:
    """The explicit 6x6 commuting contractive triple of the boundary example."""
    a = 1 / np.sqrt(3)
    b = 1 / np.sqrt(6)
    T1 = np.zeros((6, 6))
    T2 = np.zeros((6, 6))
    T3 = np.zeros((6, 6))
    T1[1, 0] = 1.0
    T2[2, 0] = 1.0
    T3[3, 0] = 1.0
    T1[4, 1:4] = [a, -a, -a]
    T2[4, 1:4] = [-a, a, -a]
    T3[4, 1:4] = [-a, -a, a]
    T1[5, 1:4] = [2 * b, b, b]
    T2[5, 1:4] = [b, 2 * b, b]
    T3[5, 1:4] = [b, b, 2 * b]
    return CommutingTuple([T1, T2, T3])


def kv_polynomial() -> TestPolynomial:
    """z1^2 + z2^2 + z3^2 - 2 z1 z2 - 2 z2 z3 - 2 z3 z1."""
    return TestPolynomial({
        (2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0,
        (1, 1, 0): -2.0, (0, 1, 1): -2.0, (1, 0, 1): -2.0,
    })


def builtin_tuple(name: str) -> CommutingTuple:
    if name == "parrott":
        return parrott_default()
    if name == "gkvw":
        return gkvw_default()
    if name == "kv":
        return kv_tuple()
    raise ValueError(f"unknown tuple {name!r}; expected parrott, gkvw, or kv")


# ---------------------------------------------------------------------------
# dilation / irreducibility diagnostics


def dilation_check(big: CommutingTuple, small: CommutingTuple,
                   basis: np.ndarray, max_degree: int = 3) -> float:
    """Max defect of P p(big)|_H = p(small) over monomials of degree <= max_degree."""
    if big.d != small.d:
        raise ValueError("tuple dimensions differ")
    Q = np.asarray(basis, dtype=complex)
    if Q.shape != (big.q, small.q):
        raise ValueError(f"basis must be {big.q} x {small.q}")
    if np.abs(Q.conj().T @ Q - np.eye(small.q)).max() > 1e-12:
        raise ValueError("basis columns must be orthonormal")
    worst = 0.0
    for total in range(max_degree + 1):
        for lam in itertools.product(range(total + 1), repeat=big.d):
            if sum(lam) != total:
                continue
            defect = Q.conj().T @ big.power(lam) @ Q - small.power(lam)
            worst = max(worst, float(np.abs(defect).max()))
    return worst


def commutant_dimension(T: CommutingTuple) -> int:
    """dim { X : X T_j = T_j X and X T_j^* = T_j^* X for all j }.

    Computed as the nullity of the stacked Sylvester system; dimension one
    certifies irreducibility.
    """
    q = T.q
    eye = np.eye(q)
    rows = []
    for M in T.matrices:
        for A in (M, M.conj().T):
            # vec(XA - AX) = (A^T (x) 1 - 1 (x) A) vec(X)
            rows.append(np.kron(A.T, eye) - np.kron(eye, A))
    big = np.vstack(rows)
    s = np.linalg.svd(big, compute_uv=False)
    smax = s.max(initial=0.0)
    return int((s <= 1e-10 * max(smax, 1.0)).sum())
