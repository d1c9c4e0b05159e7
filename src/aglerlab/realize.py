"""Decomposition feasibility, separating witnesses, colligation synthesis,
transfer-function evaluation, and the induced norm.

Feasibility of writing c^2 - phi phi^* as a positive combination of
hereditary defect factors is a convex feasibility problem over a product
of PSD cones intersected with an affine set.  Ample preorderings reduce
to a single eigenvalue test against the Szego kernel; everything else is
one semidefinite program solved by a primal-dual interior-point method,
and infeasibility is only ever reported together with an independently
re-verified separating kernel.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import (DEFAULT_TOL, block_diag, clip_eig, hermitian_sqrt, hermitize,
                      polar_isometry, psd_clip, spectral_norm, unitary_completion)
from .auxfun import monomial_rows, psi_rows, row_sqnorms
from .kernels import (HermitianKernel, PointSample, defect_factor, is_admissible,
                      kolmogorov, psd_check, szego_factor)
from .preorder import (MultiIndex, Preordering, classify, is_zero_one,
                       minimal_reduction, unit, weight)


@dataclass(frozen=True)
class FunctionSample:
    """Matrix values of a function on the points of a sample."""

    sample: PointSample
    values: np.ndarray  # (N, m_out, m_in)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim == 1:
            vals = vals[:, None, None]
        if vals.ndim != 3 or vals.shape[0] != self.sample.n_points:
            raise ValueError(f"values must be (N, m, m'), got {vals.shape}")
        object.__setattr__(self, "values", vals)

    @property
    def m_out(self) -> int:
        return self.values.shape[1]

    @property
    def m_in(self) -> int:
        return self.values.shape[2]

    def sup_norm(self) -> float:
        return float(spectral_norm(self.values).max())


@dataclass
class SolverParams:
    """Knobs for the interior-point solver.

    feas_tol is the validators' tolerance; max_iter caps Newton steps;
    force_iterative sends ample preorderings through the solver too.
    stall_rtol is read by nothing.  Its last caller is norm-bracket's budget
    in perfbench/workloads.py, and the field goes when that benchmark is next
    revised.
    """

    feas_tol: float = 1e-8
    max_iter: int = 200_000
    stall_rtol: float = 1e-12
    force_iterative: bool = False


@dataclass(frozen=True)
class AglerCertificate:
    """PSD kernels Gamma_lam reassembling c^2 - phi phi^* over the defects."""

    gammas: dict  # MultiIndex -> HermitianKernel
    c: float

    def lambdas(self) -> list[MultiIndex]:
        return sorted(self.gammas)


@dataclass(frozen=True)
class Witness:
    """Admissible kernel with strictly negative pairing against the target."""

    kernel: HermitianKernel
    pairing: float


@dataclass(frozen=True)
class DecomposeResult:
    status: str  # "feasible" | "infeasible" | "unresolved"
    certificate: AglerCertificate | None
    witness: Witness | None
    residual: float
    iterations: int

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def pick_target(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a(x) a(y)^* - b(x) b(y)^*) as (N, N, m, m) blocks, for (N, m, p) node data.
    The einsums write (x, i, y, k) order: in (x, y, i, k) order their inner loop
    is the short sum over the p columns, several times slower for the same bits."""
    return (np.einsum("xij,ykj->xiyk", a, a.conj())
            - np.einsum("xij,ykj->xiyk", b, b.conj())).transpose(0, 2, 1, 3).copy()


def target_blocks(phi: FunctionSample, c: float) -> np.ndarray:
    """(c^2 I - phi(x) phi(y)^*) as (N, N, m, m) blocks: the Pick target with
    a = c 1_m at every node and b = phi."""
    N, m = phi.values.shape[0], phi.m_out
    return pick_target(np.tile(c * np.eye(m, dtype=complex), (N, 1, 1)), phi.values)


def pairing(R_blocks: np.ndarray, k: HermitianKernel) -> float:
    """Sum over points and entries of R(x,y)_{ij} k(x,y)_{ij}; real by symmetry."""
    return float(np.real(np.sum(R_blocks * k.blocks)))


def _decomposition_lambdas(preordering: Preordering) -> list[MultiIndex]:
    lams = minimal_reduction(preordering).sorted()
    bad = [lam for lam in lams if not is_zero_one(lam)]
    if bad:
        raise ValueError(f"decomposition needs 0/1 maximal multi-indices, got {bad}")
    return lams


def ample_membership(phi: FunctionSample, preordering: Preordering, c: float,
                     tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Membership test (c^2 [1] - phi phi^*) * k_s >= 0 for ample preorderings."""
    cls = classify(preordering)
    if not cls.is_ample:
        raise ValueError(f"ample membership needs an ample preordering, got {cls.kind}")
    if not is_zero_one(cls.lambda_max):
        raise ValueError("ample membership needs a 0/1 maximal element")
    ks = szego_factor(phi.sample, cls.lambda_max)
    return psd_check(HermitianKernel(phi.sample, target_blocks(phi, c) * ks[:, :, None, None]),
                     tol)


def validate_certificate_target(sample: PointSample, preordering: Preordering,
                                R: np.ndarray, cert: AglerCertificate,
                                feas_tol: float) -> tuple[bool, float, float]:
    """Independent re-check: every Gamma PSD and the identity reassembles."""
    lams = _decomposition_lambdas(preordering)
    if sorted(cert.gammas) != lams:
        return False, np.inf, -np.inf
    total = np.zeros_like(R)
    worst_eig = np.inf
    for lam in lams:
        G = cert.gammas[lam]
        _, lo = psd_check(G, feas_tol)
        worst_eig = min(worst_eig, lo)
        total += defect_factor(sample, lam)[:, :, None, None] * G.blocks
    residual = float(np.abs(total - R).max())
    scale = max(np.abs(R).max(), 1.0)
    ok = residual <= feas_tol * scale and worst_eig >= -feas_tol * scale
    return ok, residual, worst_eig


def validate_certificate(phi: FunctionSample, preordering: Preordering, c: float,
                         cert: AglerCertificate, feas_tol: float) -> tuple[bool, float, float]:
    return validate_certificate_target(phi.sample, preordering,
                                       target_blocks(phi, c), cert, feas_tol)


def validate_witness_target(sample: PointSample, preordering: Preordering,
                            R: np.ndarray, witness: HermitianKernel,
                            feas_tol: float) -> Witness | None:
    """Independent re-check of a separating kernel; None if it fails."""
    if not is_admissible(witness, preordering, 1e-12).admissible:
        return None
    val = pairing(R, witness)
    scale = max(np.abs(witness.blocks).max(), 1e-300)
    if val / scale >= -feas_tol:
        return None
    return Witness(witness, val)


def validate_witness(phi: FunctionSample, preordering: Preordering, c: float,
                     witness: HermitianKernel, feas_tol: float) -> Witness | None:
    return validate_witness_target(phi.sample, preordering, target_blocks(phi, c),
                                   witness, feas_tol)


# ---------------------------------------------------------------------------
# interior-point core
#
# Every decision is one semidefinite program over the preordering's maximal
# 0/1 multi-indices, in assembled (N*m) x (N*m) form with D_lam the defect
# factor tensored with 1_m and J = [1] (x) I_m:
#
#     minimise s  subject to  sum_lam D_lam o Gamma_lam - s J = R,  Gamma_lam >= 0,
#     maximise -<R, W>  subject to  conj(D_lam) o W >= 0,  <J, W> = 1   (dual).
#
# R = -phi phi^* gives the squared norm s* = c*^2; R = c^2 J - phi phi^* and
# the Pick target are feasible exactly when s* <= 0.  Because D_lam o S_lam = J
# for the Szego matrix S_lam (x) I_m, a primal iterate repairs into an exact
# certificate at a slightly larger s and a dual iterate into a separating
# kernel at a slightly smaller one; both then go through the validators.

MAX_INTERIOR_DIM = 32  # N*m; the Newton system is dense in (N*m)^2 unknowns
_GAP_TOL = 1e-9  # relative duality gap and primal residual that end a solve
_STEP_FLOOR = 1e-6  # a step whose primal and dual lengths both fall below this ends it
_STEP_DAMPING = 0.95
_START_SHRINK = 0.1  # X starts at this share of scale * I, nearer its low-rank answer
_PENDING_CAP = 32  # iterates whose bounds wait unbuilt at once: it bounds memory only


def _inner(A: np.ndarray, B: np.ndarray) -> float:
    """Real trace inner product Re tr(A^* B)."""
    return float(np.real(np.vdot(A, B)))


def _adjoint(G: np.ndarray) -> np.ndarray:
    return np.swapaxes(G.conj(), -1, -2)


class _Workspace:
    """Defect weights, Szego lifts and Hermitian coordinates for one target R."""

    def __init__(self, sample: PointSample, lams: list[MultiIndex], R_blocks: np.ndarray,
                 feas_tol: float):
        N, m = R_blocks.shape[0], R_blocks.shape[2]
        n = N * m
        if n > MAX_INTERIOR_DIM:
            raise ValueError(f"interior-point solver takes N*m <= {MAX_INTERIOR_DIM} "
                             f"(MAX_INTERIOR_DIM); got N*m = {n}")
        self.sample, self.lams, self.n, self.feas_tol = sample, lams, n, feas_tol
        # D_lam (x) 1_m, S_lam (x) I_m and J = 1_N (x) I_m by copying entries,
        # never multiplying by 1.0 or 0.0, which can flip the sign of a zero
        D = np.array([defect_factor(sample, lam) for lam in lams])
        self.D = np.repeat(np.repeat(D, m, axis=1), m, axis=2)
        self.Dc = self.D.conj()
        self.wsum = (np.abs(self.D) ** 2).sum(axis=0)
        self.diag_min = np.real(np.diagonal(self.D, axis1=1, axis2=2)).min(axis=1)
        Sz = np.array([szego_factor(sample, lam) for lam in lams])
        S = np.zeros((len(lams), N, m, N, m), dtype=complex)
        for i in range(m):
            S[:, :, i, :, i] = Sz
        self.S = S.reshape(-1, n, n)
        # pseudo-inverse roots: one-variable Szego matrices are numerically
        # singular from a dozen points on
        self.S_isqrt = np.array([hermitian_sqrt(S)[1] for S in self.S])
        self.J = np.tile(np.eye(m), (N, N))
        self.R = HermitianKernel(sample, R_blocks).assembled()
        self.scale = float(np.abs(self.R).max()) or 1.0
        self._diag_mean = -float(np.trace(self.R).real) / n  # -tr R / tr J
        # s J + R needs PSD diagonal blocks, so s* is at least this
        diag_blocks = R_blocks[np.arange(N), np.arange(N)]
        self.s_floor = float(-np.linalg.eigvalsh(hermitize(diag_blocks)).min())
        iu, ju = np.triu_indices(n, 1)
        self._d, self._u, self._l = np.arange(n) * (n + 1), iu * n + ju, ju * n + iu
        self._rows_i = np.concatenate([np.arange(n), iu])
        self._rows_j = np.concatenate([np.arange(n), ju])
        self._DD = (self.D[:, self._rows_i, self._rows_j][:, :, None, None]
                    * self.Dc[:, None])
        j = self.to_real(self.J)
        self._jj = np.outer(j, j)

    def apply(self, G: np.ndarray) -> np.ndarray:
        return (self.D * G).sum(axis=0)

    def proj_affine(self, G: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Nearest stack with sum_lam D_lam o G_lam = target (entrywise exact)."""
        defect = self.apply(G) - target
        return G - self.Dc * (defect / self.wsum)[None]

    def to_real(self, H: np.ndarray) -> np.ndarray:
        """Coordinates <E, H> of a Hermitian H against the basis of from_real."""
        h = H.reshape(-1)
        return np.concatenate([h[self._d].real, 2 * h[self._u].real, 2 * h[self._u].imag])

    def from_real(self, v: np.ndarray) -> np.ndarray:
        """Hermitian matrix with diagonal v[:n] and upper triangle re + i im."""
        n, k = self.n, len(self._u)
        h = np.empty(n * n, dtype=complex)
        h[self._d] = v[:n]
        h[self._u] = v[n:n + k] + 1j * v[n + k:]
        h[self._l] = v[n:n + k] - 1j * v[n + k:]
        return h.reshape(n, n)

    def schur(self, X: np.ndarray, Zi: np.ndarray, lp: float) -> np.ndarray:
        """Real n^2 x n^2 matrix of dW -> sum D o herm(X (conj(D) o dW) Z^-1) + lp <J, dW> J
        in the coordinates of to_real/from_real.

        The map is complex-linear on vec(dW) with M[(j,i),(l,k)] = conj M[(i,j),(k,l)],
        so the rows i <= j, gathered entrywise, determine it.
        """
        n, nd, k = self.n, len(self._d), len(self._u)
        ri, rj = self._rows_i, self._rows_j
        Xt, Zt = np.swapaxes(X, 1, 2), np.swapaxes(Zi, 1, 2)
        T = X[:, ri][..., None] * Zt[:, rj][:, :, None]
        T += Zi[:, ri][..., None] * Xt[:, rj][:, :, None]
        np.multiply(self._DD, T, out=T)
        Mh = T.sum(axis=0).reshape(-1, n * n) / 2
        Md, Mu = Mh[:nd], Mh[nd:]
        d, u, l = self._d, self._u, self._l
        Mdu, Mud, Mul, Mup = Md[:, u], Mu[:, d], Mu[:, l], Mu[:, u]
        # Mup - Mul is -minus but for the sign of a zero, which M += lp * jj clears
        plus, minus = Mup + Mul, Mul - Mup
        M = np.empty((n * n, n * n))
        top, mid, bot = slice(0, n), slice(n, n + k), slice(n + k, None)
        M[top, top] = Md[:, d].real
        np.multiply(2, Mdu.real, out=M[top, mid])
        np.multiply(-2, Mdu.imag, out=M[top, bot])
        np.multiply(2, Mud.real, out=M[mid, top])
        np.multiply(2, plus.real, out=M[mid, mid])
        np.multiply(2, minus.imag, out=M[mid, bot])
        np.multiply(2, Mud.imag, out=M[bot, top])
        np.multiply(2, plus.imag, out=M[bot, mid])
        np.multiply(-2, minus.real, out=M[bot, bot])
        M += lp * self._jj
        return M

    def upper(self, X: np.ndarray, s: float) -> tuple:
        """s* <= s + sum t_lam: X repaired onto the affine set at s, then each
        Gamma_lam lifted by the least t_lam (S_lam (x) I_m) that makes it PSD
        (on the numerical range of S_lam; the validators check the rest)."""
        Xp = hermitize(self.proj_affine(X, self.R + s * self.J))
        w = np.linalg.eigvalsh(hermitize(self.S_isqrt @ Xp @ _adjoint(self.S_isqrt)))
        lifts = np.maximum(-w[:, 0], 0.0)
        return s + float(lifts.sum()), Xp, lifts

    def certificate(self, upper: tuple, kappa: float, c: float) -> AglerCertificate:
        """Gammas reassembling R + kappa J from an upper bound at most kappa."""
        value, Xp, lifts = upper
        G = Xp + lifts[:, None, None] * self.S
        G[0] += max(kappa - value, 0.0) * self.S[0]
        gammas = {lam: HermitianKernel.from_assembled(self.sample, hermitize(g))
                  for lam, g in zip(self.lams, G)}
        return AglerCertificate(gammas, c)

    def lower(self, W: np.ndarray) -> tuple:
        """s* >= value: W plus the least eps I that makes it admissible,
        normalised to <J, W> = 1, with room left for the validators' feas_tol."""
        W = hermitize(W)
        need = -np.linalg.eigvalsh(hermitize(self.Dc * W))[:, 0] / self.diag_min
        eps = max(-np.linalg.eigvalsh(W)[0], need.max(), 0.0)
        W = W + (eps + 64 * np.finfo(float).eps * np.abs(W).max()) * np.eye(self.n)
        mass = _inner(self.J, W)
        if not mass > 0:
            return -np.inf, None
        W = W / mass
        return -_inner(self.R, W) - self.feas_tol * float(np.abs(W).max()), W

    def lower_ceiling(self, W: np.ndarray) -> float:
        """A float never below lower(W)[0], from two inner products.

        With a = -<R, W>, c = <J, W>, b = -tr R and n = tr J = N m, lower's
        value before its -feas_tol term is (a + delta b) / (c + delta n) for
        its shift delta >= 0: a mediant, between a/c and b/n when c > 0, so
        Lc = max(a/c, b/n) bounds it in exact arithmetic.  In floating point,
        each of lower's sums of n^2 terms (<R, W>, the mass <J, W'> and
        <R, W' / mass>, with W' = W + delta I) and the rounding of the
        diagonal of W' move its value by at most n^4 u (scale + |Lc|) rho,
        where rho = max|W'| / <J, W'> <= max|W| / c + 1/n.  The margin
        4 n^4 eps (scale + |Lc|) (max|W| / c + 1), eps = 2u, covers them all.
        """
        c = _inner(self.J, W)
        if not c > 0:
            return np.inf
        Lc = max(-_inner(self.R, W) / c, self._diag_mean)
        rho = float(np.abs(W).max()) / c + 1
        return Lc + 4 * self.n ** 4 * np.finfo(float).eps * (self.scale + abs(Lc)) * rho

    def witness_kernel(self, lower: tuple) -> HermitianKernel:
        return HermitianKernel.from_assembled(self.sample, lower[1].conj())


def _max_steps(Li: np.ndarray, primal: tuple, dual: tuple) -> tuple[float, float]:
    """Largest a with X + a dX >= 0 and x + a dx >= 0, for primal = (dX, x, dx)
    and dual = (dZ, z, dz), in one batch.

    Li stacks the inverse Cholesky factors of X and then of Z, so the least
    eigenvalue of Li dS Li^* is that of dS relative to S = L L^*; the Newton
    step factors once and passes the same Li to its predictor and corrector.
    """
    L = len(primal[0])
    dS = np.concatenate([primal[0], dual[0]])
    lo = np.linalg.eigvalsh(hermitize(Li @ dS @ _adjoint(Li)))[:, 0]
    out = []
    for w, (_, x, dx) in ((lo[:L], primal), (lo[L:], dual)):
        a = np.inf if w.min() >= 0 else -1.0 / w.min()
        out.append(a if dx >= 0 else min(a, -x / dx))
    return out[0], out[1]


def _newton_step(ws: _Workspace, X, t, W, Z, z, rp):
    """One HKM step with Mehrotra's predictor-corrector on (X, t; W, Z, z),
    returned with its primal and dual step lengths ap and ad.

    t = s - s_floor >= 0 and z = 1 - <J, W> >= 0 make the free s a conic
    variable; Z_lam is the slack of conj(D_lam) o W.  The step factors the
    iterates once: one batched Cholesky of [X; Z] and one batched inverse of
    [chol(X); chol(Z); Z] give the triangular inverses that both step-length
    searches use and Z^-1; the Schur matrix M and herm(X Rd Z^-1) are formed
    once and shared by the predictor and the corrector, which differ only in
    their right-hand sides.
    """
    L = Z.shape[0]
    k = L * ws.n + 1
    Rd = ws.Dc * W - Z
    rz = 1 - _inner(ws.J, W) - z
    mu = (_inner(X, Z) + t * z) / k
    inv = np.linalg.inv(np.concatenate([np.linalg.cholesky(np.concatenate([X, Z])), Z]))
    Li, Zi = inv[:2 * L], hermitize(inv[2 * L:])
    XRZ = hermitize(X @ Rd @ Zi)
    M = ws.schur(X, Zi, t / z)

    def direction(sigma_mu, corr_X, corr_t):
        C = sigma_mu * Zi - X - XRZ - corr_X
        ct = (sigma_mu - corr_t) / z - t
        h = ws.apply(C) - (ct - t / z * rz) * ws.J - rp
        dW = ws.from_real(np.linalg.solve(M, ws.to_real(h)))
        dX = C - hermitize(X @ (ws.Dc * dW) @ Zi)
        dZ = ws.Dc * dW + Rd
        dz = rz - _inner(ws.J, dW)
        return dX, ct - t / z * dz, dW, dZ, dz

    dX, dt, dW, dZ, dz = direction(0.0, 0.0, 0.0)
    ap, ad = (min(1.0, a) for a in _max_steps(Li, (dX, t, dt), (dZ, z, dz)))
    mu_aff = (_inner(X + ap * dX, Z + ad * dZ) + (t + ap * dt) * (z + ad * dz)) / k
    sigma = min(max(mu_aff / mu, 0.0), 1.0) ** 3
    dX, dt, dW, dZ, dz = direction(sigma * mu, hermitize(dX @ dZ @ Zi), dt * dz)
    ap, ad = (min(1.0, _STEP_DAMPING * a) for a in _max_steps(Li, (dX, t, dt), (dZ, z, dz)))
    return X + ap * dX, t + ap * dt, W + ad * dW, Z + ad * dZ, z + ad * dz, ap, ad


def _interior_point(ws: _Workspace, params: SolverParams, wanted=None):
    """Primal-dual path following; yields (steps, best upper, best lower).

    The solve starts at X_lam = _START_SHRINK * scale * I for every lam, with
    t = scale = max |R|, W = I / (2n), Z = conj(D_lam) o W and z = 1/2, so
    <J, W> = 1/2.  This is the data-scaled start of SDPT3 with X shrunk
    towards its answer: a transfer function of a classical colligation has
    certificates Gamma_lam of rank mult_lam, so X = scale * I sits an order of
    magnitude above them in all but a few directions, and at the primal step
    lengths of 0.2-0.5 that most steps take, each decade costs several Newton
    steps.  The smaller start takes about a quarter fewer.

    The best bounds are kept because the Newton system degrades near the
    optimum: the first least upper value and the first greatest lower value.
    Building an iterate's bounds takes eigenvalues of every block, so they
    are built only when a caller could act on them.  wanted(hi, lo), given by
    the caller, holds of every pair of bound values on which it would act,
    and must be monotone: more true as hi falls or lo rises.  An iterate at
    s = s_floor + t has cheap bounds, upper(X, s)[0] >= s and
    lower(W)[0] <= lower_ceiling(W); its bounds wait unbuilt in a list until
    wanted holds of the best values that the cheap bounds of the list allow,
    at the last iterate, or when the list holds _PENDING_CAP iterates.  Then
    _flush builds what can change the best bounds, so they have the same bits
    as building every iterate would give.  Between flushes the last flushed
    bounds are yielded again, or (inf, None, None) and (-inf, None) before
    the first; wanted holds of none of these, because it does not hold of the
    bounds of every iterate built, which are at least as good.  wanted=None
    builds every iterate.

    The solve reads only its own iterates to stop: at a relative duality gap
    and primal residual below _GAP_TOL, after a step whose primal and dual
    lengths both fell below _STEP_FLOOR, after max_iter Newton steps, or on a
    breakdown of the Newton system, which flushes the list and yields once
    more at the same step count.
    """
    L, n = len(ws.lams), ws.n
    B = ws.R + ws.s_floor * ws.J
    X = np.tile(_START_SHRINK * ws.scale * np.eye(n, dtype=complex), (L, 1, 1))
    t, z = ws.scale, 0.5
    W = np.eye(n, dtype=complex) / (2 * n)
    Z = ws.Dc * W
    hi, lo = (np.inf, None, None), (-np.inf, None)
    pending = []  # (s, lower_ceiling(W), X, W) of the iterates not built
    ap = ad = 1.0
    for steps in range(params.max_iter + 1):
        s = ws.s_floor + t
        pending.append((s, ws.lower_ceiling(W), X, W))
        rp = B - ws.apply(X) + t * ws.J
        tol = _GAP_TOL * (ws.scale + abs(s))
        converged = abs(t + _inner(B, W)) <= tol and np.abs(rp).max() <= tol
        last = converged or max(ap, ad) < _STEP_FLOOR or steps == params.max_iter
        if (wanted is None or last or len(pending) >= _PENDING_CAP
                or wanted(min(hi[0], min(p[0] for p in pending)),
                          max(lo[0], max(p[1] for p in pending)))):
            hi, lo = _flush(ws, pending, hi, lo)
        yield steps, hi, lo
        if last:
            return
        try:
            X, t, W, Z, z, ap, ad = _newton_step(ws, X, t, W, Z, z, rp)
            broke = not (np.isfinite(X).all() and np.isfinite(W).all())
        except np.linalg.LinAlgError:
            broke = True
        if broke:
            if pending:
                hi, lo = _flush(ws, pending, hi, lo)
                yield steps, hi, lo
            return


def _flush(ws: _Workspace, pending: list, hi: tuple, lo: tuple) -> tuple[tuple, tuple]:
    """The best bounds over (hi, lo) and the pending iterates, which it
    empties: those of building each iterate in order and keeping it when its
    value is strictly better, so the earliest of equal values.  The newest is
    built first, as it is usually the best; an older iterate is built only
    when its cheap bound could beat both it and the best so far."""
    s, _, X, W = pending[-1]
    up, low = ws.upper(X, s), ws.lower(W)
    for s, ceiling, X, W in pending[:-1]:
        if s <= min(hi[0], up[0]):
            hi = _least(hi, ws.upper(X, s))
        if ceiling >= max(lo[0], low[0]):
            lo = _greatest(lo, ws.lower(W))
    pending.clear()
    return _least(hi, up), _greatest(lo, low)


def _least(hi: tuple, up: tuple) -> tuple:
    """up when its value is below hi's, or when hi is the placeholder of no bound."""
    return up if hi[1] is None or up[0] < hi[0] else hi


def _greatest(lo: tuple, low: tuple) -> tuple:
    """low when its value is above lo's; the placeholder is lower's own (-inf, None)."""
    return low if low[0] > lo[0] else lo


def _solve_target(sample: PointSample, preordering: Preordering, R_blocks: np.ndarray,
                  c: float, params: SolverParams) -> DecomposeResult:
    """Decide R = sum_lam D_lam o Gamma_lam from one interior-point solve.

    Returns as soon as a validated certificate (s* <= 0) or witness (s* > 0)
    decides the sign of s*.  When the bounds cross, hi <= 0 < lo, the witness
    is tried first: it separates strictly, while the certificate holds only
    within feas_tol.
    """
    ws = _Workspace(sample, _decomposition_lambdas(preordering), R_blocks, params.feas_tol)

    def certified(hi, steps):
        cert = ws.certificate(hi, 0.0, c)
        ok, resid, _ = validate_certificate_target(sample, preordering, R_blocks, cert,
                                                   params.feas_tol)
        return DecomposeResult("feasible", cert, None, resid, steps) if ok else None

    def separated(hi, lo, steps):
        wit = validate_witness_target(sample, preordering, R_blocks, ws.witness_kernel(lo),
                                      params.feas_tol)
        return DecomposeResult("infeasible", None, wit, max(hi[0], 0.0), steps) if wit else None

    for steps, hi, lo in _interior_point(ws, params, lambda hi, lo: lo > 0 or hi <= 0):
        done = (lo[0] > 0 and separated(hi, lo, steps)) or (hi[0] <= 0 and certified(hi, steps))
        if done:
            return done
    # the loop tried the final bounds; only a certificate at hi > 0 is left untried
    done = hi[0] > 0 and certified(hi, steps)
    return done or DecomposeResult("unresolved", None, None, max(hi[0], 0.0), steps)


def _szego_gamma(sample: PointSample, R_blocks: np.ndarray, lam: MultiIndex) -> np.ndarray:
    """R o (S_lam (x) 1_m), assembled: Gamma_lam of the certificate that uses
    lam alone, since D_lam o S_lam = 1."""
    ks = szego_factor(sample, lam)
    return hermitize(HermitianKernel(sample, R_blocks * ks[:, :, None, None]).assembled())


def _szego_pencil(phi: FunctionSample, lam: MultiIndex) -> tuple[np.ndarray, np.ndarray]:
    """The pencil of _szego_top: phi phi^* o (S_lam (x) 1_m), and the inverse
    square root of S_lam (x) I_m on its numerical range."""
    A = -_szego_gamma(phi.sample, target_blocks(phi, 0.0), lam)
    ks = szego_factor(phi.sample, lam)
    return A, hermitian_sqrt(np.kron(ks, np.eye(phi.m_out)))[1]


def _szego_top(phi: FunctionSample, lam: MultiIndex, shift: float | np.ndarray = 0.0,
               pencil: tuple | None = None) -> tuple[float, np.ndarray]:
    """Top generalized eigenpair of phi phi^* o (S_lam (x) 1_m) - diag(shift)
    against S_lam (x) I_m.  At shift 0 the eigenvalue is the least c^2 at
    which _szego_gamma of c^2 J - phi phi^* is PSD.  At shift = feas_tol
    diag(S_lam (x) I_m) it is a c^2 at which _szego_witness of the
    eigenvector still separates within the validator's feas_tol, since the
    largest entry of that PSD witness sits on its diagonal.  The eigenvector
    has unit norm, which keeps the rank-one defect kernels of that witness
    within the admissibility check's absolute tolerance.  pencil, when
    given, is _szego_pencil(phi, lam), built once for several shifts."""
    A, Bi = pencil or _szego_pencil(phi, lam)
    w, V = np.linalg.eigh(hermitize(Bi @ (A - np.diag(shift * np.ones(len(A)))) @ Bi))
    u = Bi @ V[:, -1]
    return float(w[-1]), u / np.linalg.norm(u)


def _szego_witness(sample: PointSample, lam: MultiIndex, u: np.ndarray) -> HermitianKernel:
    """k_s * (w w^*) with w = conj(u): admissible for every preordering under
    lam, with pairing u^* (R o k_s) u against a target R."""
    w = u.conj().reshape(sample.n_points, -1)
    ks = szego_factor(sample, lam)
    return HermitianKernel(sample, np.einsum("xy,xi,yj->xyij", ks, w, w.conj()))


def _szego_certificate(sample: PointSample, lams: list[MultiIndex], lam: MultiIndex,
                       clipped: np.ndarray, c: float) -> AglerCertificate:
    """Gamma_lam = clipped (a _szego_gamma clipped to PSD), every other Gamma zero."""
    gammas = {mu: HermitianKernel.from_assembled(
        sample, clipped if mu == lam else np.zeros_like(clipped)) for mu in lams}
    return AglerCertificate(gammas, c)


def _ample_shortcut(sample: PointSample, preordering: Preordering, R_blocks: np.ndarray,
                    c: float, params: SolverParams) -> DecomposeResult:
    """For ample preorderings the affine set is a point: Gamma = R * k_s.
    A negative least eigenvalue first tries the witness from its eigenvector."""
    lam_m = classify(preordering).lambda_max
    A = _szego_gamma(sample, R_blocks, lam_m)
    w, V = np.linalg.eigh(A)
    scale = max(np.abs(w).max(), 1.0)
    if w[0] < 0:
        # a witness that validates separates strictly: it outranks a
        # certificate that would hold only within feas_tol
        kern = _szego_witness(sample, lam_m, V[:, 0])
        witness = validate_witness_target(sample, preordering, R_blocks, kern, params.feas_tol)
        if witness is not None:
            return DecomposeResult("infeasible", None, witness, float(-w[0]), 0)
    if w[0] >= -params.feas_tol * scale:
        # psd_clip(A) from this eigendecomposition: A comes out of hermitize,
        # so hermitize(A) is A and psd_clip would eigen-solve the same matrix
        cert = _szego_certificate(sample, [lam_m], lam_m, clip_eig(w, V), c)
        ok, resid, _ = validate_certificate_target(sample, preordering, R_blocks, cert,
                                                   params.feas_tol)
        if ok:
            return DecomposeResult("feasible", cert, None, resid, 0)
        return DecomposeResult("unresolved", None, None, resid, 0)
    return DecomposeResult("unresolved", None, None, float(-w[0]), 0)


def decide_target(sample: PointSample, preordering: Preordering, R_blocks: np.ndarray,
                  c: float, params: SolverParams | None = None) -> DecomposeResult:
    """Decide R = sum_lam D_lam o Gamma_lam with every Gamma_lam PSD.

    Ample preorderings take the Szego closed form unless force_iterative is
    set; everything else is one interior-point solve.  c is recorded on the
    certificate.
    """
    params = params or SolverParams()
    if classify(preordering).is_ample and not params.force_iterative:
        return _ample_shortcut(sample, preordering, R_blocks, c, params)
    return _solve_target(sample, preordering, R_blocks, c, params)


def _require_square(phi: FunctionSample) -> None:
    if phi.m_out != phi.m_in:
        raise ValueError("decomposition targets square matrix values")


def agler_decompose(phi: FunctionSample, preordering: Preordering, c: float = 1.0,
                    params: SolverParams | None = None) -> DecomposeResult:
    """Find PSD kernels with sum Gamma_lam * defect_lam = c^2 - phi phi^*.

    Returns a three-way status; infeasibility always carries a re-verified
    separating kernel, and unresolved is never silently relabeled.
    """
    _require_square(phi)
    return decide_target(phi.sample, preordering, target_blocks(phi, c), c, params)


# ---------------------------------------------------------------------------
# colligations and transfer functions


@dataclass(frozen=True)
class Colligation:
    """Unitary (or flagged contractive) 2x2 block operator with a state partition.

    partition lists (lam, multiplicity); the state space stacks, per entry,
    multiplicity copies of the 2^{|lam|-1}-dimensional sigma_lam slot.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    partition: tuple  # ((lam, mult), ...)
    contractive: bool = False

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=complex))
        B = np.atleast_2d(np.asarray(self.B, dtype=complex))
        C = np.atleast_2d(np.asarray(self.C, dtype=complex))
        D = np.atleast_2d(np.asarray(self.D, dtype=complex))
        part = tuple((tuple(int(v) for v in lam), int(mult)) for lam, mult in self.partition)
        for lam, mult in part:
            if not is_zero_one(lam) or weight(lam) == 0:
                raise ValueError(f"partition entries need nonzero 0/1 multi-indices, got {lam}")
            if len(lam) != len(part[0][0]):
                raise ValueError(f"partition multi-indices differ in length: {part[0][0]} "
                                 f"and {lam}")
            if mult < 0:
                raise ValueError(f"partition multiplicities must be >= 0, got {mult} for {lam}")
        E = sum(mult * 2 ** (weight(lam) - 1) for lam, mult in part)
        m = D.shape[0]
        if A.shape != (E, E) or B.shape != (E, m) or C.shape != (m, E) or D.shape != (m, m):
            raise ValueError(f"inconsistent block shapes for E={E}, m={m}: "
                             f"{A.shape}, {B.shape}, {C.shape}, {D.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "partition", part)
        U = self.operator()
        if self.contractive:
            norm = spectral_norm(U)
            if not norm <= 1 + 1e-10:  # a NaN norm is refused too
                raise ValueError(f"colligation flagged contractive has norm {norm}")
        else:
            # the Frobenius norm bounds the spectral one: only a colligation
            # that fails this cheap screen pays for the SVD.  A U*U that
            # overflowed to inf or NaN fails it and is refused without one.
            with np.errstate(over="ignore", invalid="ignore"):
                G = U.conj().T @ U - np.eye(U.shape[0])
                near = np.linalg.norm(G) <= 1e-10
            if not near:
                err = spectral_norm(G) if np.isfinite(G).all() else np.inf
                if err > 1e-10:
                    raise ValueError(f"colligation is not unitary: |U*U - 1| = {err:.3e}")

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def output_dim(self) -> int:
        return self.D.shape[0]

    @property
    def d(self) -> int:
        return len(self.partition[0][0]) if self.partition else 0

    def operator(self) -> np.ndarray:
        top = np.hstack([self.A, self.B])
        bot = np.hstack([self.C, self.D])
        return np.vstack([top, bot])

    def state_operator(self, blocks) -> np.ndarray:
        """The E x E state operator: mult copies of each partition entry's block."""
        return block_diag([blk for blk, (_, mult) in zip(blocks, self.partition)
                           for _ in range(mult)])


# entries of 1 - V^T A U held at once (2 MB): a few points' systems at a time keep
# the working set near one point's E x E matrices, not N r^2
_RANGE_SOLVE_ENTRIES = 1 << 17


def eval_transfer(col: Colligation, points) -> np.ndarray:
    """W(x) = D + C S(x) (1 - A S(x))^{-1} B at each row x of an (N, d)
    psi-value array, as (N, m, m); S(x) stacks multiplicity copies of each
    sigma_lam(x) on the diagonal.

    Each sigma_lam(x) = u v^T has rank one, with u = psi^+(x)^* / |psi^+(x)|^2
    and v = psi^-(x), so S(x) = U(x) V(x)^T has rank r, the sum of the
    multiplicities (r = E when every populated slot is 1 x 1, r < E otherwise),
    and the solve runs in the range of S by push-through:
    W(x) = D + (C U)(1 - V^T A U)^{-1}(V^T B).  C U and V^T B take one product
    per partition entry over all points, V^T A U one product per pair of
    entries over a block of points, and only the r x r solve runs per point."""
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 2:
        raise ValueError(f"points must be an (N, d) array, got shape {pts.shape}")
    N = pts.shape[0]
    if N and col.partition and pts.shape[1] != col.d:
        raise ValueError(f"point dimension {pts.shape[1]} != colligation dimension {col.d}")
    if np.abs(pts).max(initial=0.0) >= 1.0:
        raise ValueError("transfer evaluation needs |psi_i(x)| < 1")
    W = np.repeat(col.D[None], N, axis=0)
    E = col.state_dim
    if E == 0 or N == 0:
        return W
    r = sum(mult for _, mult in col.partition)
    m = col.output_dim
    slots, row, k = [], 0, 0
    for lam, mult in col.partition:  # copies fill state rows row.. and range columns k..
        n = 2 ** (weight(lam) - 1)
        plus, minus = monomial_rows(pts, lam)
        slots.append((slice(row, row + mult * n), slice(k, k + mult), mult, n,
                      plus.conj() / row_sqnorms(plus)[:, None], minus))
        row, k = row + mult * n, k + mult
    CU = np.empty((N, m, r), dtype=complex)
    VB = np.empty((N, r, m), dtype=complex)
    pairs = []  # v(x)^T A_block u2(x) for every pair of copies is one product over v (x) u2
    for rows, cols, mult, n, u, v in slots:
        CU[:, :, cols] = (u @ _slot_major(col.C[:, rows], mult, n)).reshape(N, m, mult)
        VB[:, cols] = (v @ _slot_major(col.B[rows].T, mult, n)).reshape(N, m, mult) \
            .transpose(0, 2, 1)
        for rows2, cols2, mult2, n2, u2, _ in slots:
            blk = col.A[rows, rows2].reshape(mult, n, mult2, n2).transpose(1, 3, 0, 2)
            pairs.append((cols, cols2, v, u2, -blk.reshape(n * n2, mult * mult2)))
    step = max(1, _RANGE_SOLVE_ENTRIES // (r * r))
    for lo in range(0, N, step):
        x = slice(lo, min(lo + step, N))
        K = np.empty((x.stop - lo, r, r), dtype=complex)  # 1 - V^T A U
        for cols, cols2, v, u2, blk in pairs:
            vu = (v[x, :, None] * u2[x, None, :]).reshape(len(K), -1)
            K[:, cols, cols2] = (vu @ blk).reshape(K[:, cols, cols2].shape)
        K.reshape(len(K), r * r)[:, ::r + 1] += 1
        W[x] += CU[x] @ np.linalg.solve(K, VB[x])
    return W


def _slot_major(M: np.ndarray, mult: int, n: int) -> np.ndarray:
    """A (p, mult*n) block whose columns run over mult copies of an n-slot, as
    (n, p*mult): a row u of length n times it is u applied in every copy."""
    p = M.shape[0]
    return M.reshape(p, mult, n).transpose(2, 0, 1).reshape(n, p * mult)


def lurking_colligation(sample: PointSample, a: np.ndarray, b: np.ndarray,
                        cert: AglerCertificate, feas_tol: float = 1e-8,
                        c: float = 1.0) -> Colligation:
    """Colligation with b(x) = a(x) W(x) at the nodes, via the lurking isometry.

    cert decomposes c^2 (a a^* - b b^*) = sum D_lam o Gamma_lam; a and b are
    (N, m, p) node data.  With gamma the certificate's Kolmogorov factors
    divided by c, the vector families built on (gamma (x) psi^-, a^*) and
    (gamma (x) psi^+, b^*) have equal Gram matrices, which is checked; the
    partial isometry between them is completed to a unitary on state (+) C^p
    by unitary_completion, which depends only on the two ranges.  Each
    Gamma_lam is factored down to the rounding floor N m eps lambda_max: a
    cut at DEFAULT_TOL drops genuine eigenvalues, and the isometry amplifies
    what they miss.  The transfer function is the p x p contractive
    multiplier W.
    """
    N, m, p = a.shape
    lams = cert.lambdas()
    gammas, mults, ns = {}, {}, {}
    for lam in lams:
        fac = kolmogorov(cert.gammas[lam])
        gammas[lam] = fac.gammas / c  # (N, m, r)
        mults[lam] = fac.rank
        ns[lam] = 2 ** (weight(lam) - 1)
    E = sum(mults[lam] * ns[lam] for lam in lams)

    def columns(blocks):  # (N, rows, m) node blocks -> (rows, N*m), node x in columns x*m..
        return blocks.transpose(1, 0, 2).reshape(blocks.shape[1], N * m)

    M_minus = np.zeros((E + p, N * m), dtype=complex)
    M_plus = np.zeros((E + p, N * m), dtype=complex)
    off = 0
    for lam in lams:
        rows = psi_rows(sample, lam)
        size = mults[lam] * ns[lam]
        g = gammas[lam].conj().transpose(0, 2, 1)[:, :, None, :]  # (N, r, 1, m)
        # kron(gamma(x)^*, psi(x)^*) at every node: rows i*n + k of copy i
        M_plus[off:off + size] = columns((g * rows.plus.conj()[:, None, :, None])
                                         .reshape(N, size, m))
        M_minus[off:off + size] = columns((g * rows.minus.conj()[:, None, :, None])
                                          .reshape(N, size, m))
        off += size
    M_minus[E:] = columns(a.conj().transpose(0, 2, 1))
    M_plus[E:] = columns(b.conj().transpose(0, 2, 1))

    gram_err = np.abs(M_plus.conj().T @ M_plus - M_minus.conj().T @ M_minus).max()
    scale = max(np.abs(M_minus).max() ** 2, 1.0)
    if gram_err > 100 * feas_tol * scale:
        raise ValueError(f"certificate rejected: Gram mismatch {gram_err:.3e}")

    U_, s_, Vh_ = np.linalg.svd(M_minus, full_matrices=False)
    rank = int((s_ > DEFAULT_TOL * max(s_.max(initial=0.0), 1e-300)).sum())
    Um = U_[:, :rank]
    images = polar_isometry(M_plus @ Vh_[:rank].conj().T / s_[:rank])
    U = unitary_completion(Um, images).conj().T

    partition = tuple((lam, mults[lam]) for lam in lams if mults[lam])
    return Colligation(U[:E, :E], U[:E, E:], U[E:, :E], U[E:, E:], partition)


def lurking_isometry(cert: AglerCertificate, phi: FunctionSample,
                     feas_tol: float = 1e-8) -> Colligation:
    """Colligation whose transfer function is phi / c, from a decomposition
    certificate at c: the Pick construction with a = 1 and b = phi / c."""
    # c^2 - phi phi^* = sum D o Gamma is 1 - (phi/c)(phi/c)^* = sum D o (Gamma/c^2)
    c = cert.c or 1.0
    identity = np.tile(np.eye(phi.m_out), (phi.sample.n_points, 1, 1))
    return lurking_colligation(phi.sample, identity, phi.values / c, cert, feas_tol, c)


def colligation_certificate(col: Colligation, sample: PointSample) -> AglerCertificate:
    """The Agler decomposition at c = 1 of a classical colligation's transfer
    function W on a sample: the converse of lurking_isometry.

    With S(x) = (+)_j x_j I_{mult_j} in partition order and
    G(x) = C (1 - S(x) A)^{-1}, unitarity gives
    1 - W(x) W(y)^* = G(x) (1 - S(x) S(y)^*) G(y)^*, so
    Gamma_{e_j}(x, y) = G_j(x) G_j(y)^*, with G_j the columns of G that belong
    to coordinate j; a coordinate with no copies gets a zero kernel."""
    for lam, _ in col.partition:
        if weight(lam) != 1:
            raise ValueError(f"a classical colligation has weight-1 partition entries, "
                             f"got {lam}")
    pts = sample.points
    N, d = pts.shape
    if col.partition and col.d != d:
        raise ValueError(f"point dimension {d} != colligation dimension {col.d}")
    coords = np.repeat([lam.index(1) for lam, _ in col.partition],
                       [mult for _, mult in col.partition]).astype(int)
    E, m = col.state_dim, col.output_dim
    M = np.eye(E) - pts[:, coords, None] * col.A  # 1 - S(x) A
    # G(x)^T solves M(x)^T G(x)^T = C^T
    G = np.linalg.solve(M.transpose(0, 2, 1),
                        np.broadcast_to(col.C.T, (N, E, m))).transpose(0, 2, 1)
    gammas = {}
    for j in range(d):
        Gj = G[:, :, coords == j]
        gammas[unit(d, j)] = HermitianKernel(sample, np.einsum("xak,ybk->xyab", Gj, Gj.conj()))
    return AglerCertificate(gammas, 1.0)


def transfer_compose(c1: Colligation, c2: Colligation, mode: str = "product",
                     t: float = 1.0) -> Colligation:
    """Product or convex combination of transfer functions at the colligation level."""
    if c1.output_dim != c2.output_dim:
        raise ValueError("output dimensions differ")
    A1, B1, C1, D1 = c1.A, c1.B, c1.C, c1.D
    A2, B2, C2, D2 = c2.A, c2.B, c2.C, c2.D
    E1, E2 = c1.state_dim, c2.state_dim
    if mode == "product":
        A = np.block([[A1, B1 @ C2], [np.zeros((E2, E1)), A2]])
        B = np.vstack([B1 @ D2, B2])
        C = np.hstack([C1, D1 @ C2])
        D = D1 @ D2
        return Colligation(A, B, C, D, c1.partition + c2.partition,
                           contractive=c1.contractive or c2.contractive)
    if mode == "convex":
        if not 0 <= t <= 1:
            raise ValueError("convex weight must be in [0, 1]")
        rt, rs = np.sqrt(t), np.sqrt(1 - t)
        A = block_diag([A1, A2])
        B = np.vstack([rt * B1, rs * B2])
        C = np.hstack([rt * C1, rs * C2])
        D = t * D1 + (1 - t) * D2
        return Colligation(A, B, C, D, c1.partition + c2.partition, contractive=True)
    raise ValueError(f"unknown composition mode {mode!r}")


# ---------------------------------------------------------------------------
# norm


@dataclass(frozen=True)
class NormResult:
    c_lo: float
    c_hi: float
    resolved: bool
    certificate: AglerCertificate | None
    witness: Witness | None
    evaluations: tuple  # ((c, status), ...): (c_lo, "infeasible") and (c_hi, "feasible")


def _first(candidates):
    return next((x for x in candidates if x), None)


def schur_agler_norm(phi: FunctionSample, preordering: Preordering,
                     tol: float = 1e-6, params: SolverParams | None = None) -> NormResult:
    """Bracket the least c admitting a decomposition from one solve.

    Ample preorderings take the closed form c*^2 = lambda_max(phi phi^* o
    (k_s (x) 1_m), k_s (x) I_m); everything else one interior-point solve of
    min s with R = -phi phi^*.  c_hi^2 is the bound that built its validated
    certificate, with no margin: s + sum t_lam, the ample closed form, or the
    closed form on the first single lam that validates; else c_hi is inf.
    c_lo carries a validated witness, or is the sup norm with no witness;
    `resolved` means c_hi - c_lo <= tol.  The solve stops at the first iterate
    whose validated ends are resolved, so the bracket is the first one within
    tol, not the tightest the solver could reach: a tighter bracket needs a
    smaller tol, and tol = 0 runs the solve to convergence.  phi must take
    square values, as in agler_decompose; otherwise ValueError, before any solve.
    """
    _require_square(phi)
    params = params or SolverParams()
    sup = phi.sup_norm()
    if sup == 0.0:
        out = agler_decompose(phi, preordering, 0.0, params)
        return NormResult(0.0, 0.0, out.feasible, out.certificate, None, ((0.0, out.status),))
    lams = _decomposition_lambdas(preordering)
    cls = classify(preordering)
    if cls.is_ample and not params.force_iterative:
        lam = cls.lambda_max
        pencil = _szego_pencil(phi, lam)
        hi = _szego_end(phi, preordering, lams, lam, params, pencil)
        shift = params.feas_tol * np.repeat(np.diag(szego_factor(phi.sample, lam)).real,
                                            phi.m_out)
        u = _szego_top(phi, lam, shift, pencil)[1]
        lo = _witness_end(phi, preordering, _szego_witness(phi.sample, lam, u), params, sup)
        return _norm_result(hi, lo, sup, tol)
    ws = _Workspace(phi.sample, lams, target_blocks(phi, 0.0), params.feas_tol)

    def ends(upper, lower):  # validated (c, certificate) and (c, witness), or None
        hi = _certificate_end(phi, preordering, upper[0],
                              lambda c: ws.certificate(upper, c * c, c), params)
        lo = lower[1] is not None and _witness_end(phi, preordering, ws.witness_kernel(lower),
                                                   params, sup)
        return hi, lo

    def width(hi, lo):  # of the bracket that bound values hi and lo would give
        return np.sqrt(max(hi, 0.0)) - np.sqrt(max(lo, sup * sup))

    tried = None
    # the solve's predicate leaves out 0 <= width: optimistic ends that cross
    # can hide true ones within tol
    for _, upper, lower in _interior_point(ws, params, lambda hi, lo: width(hi, lo) <= tol):
        bounds = (upper[0], lower[0])
        # crossed ends are no bracket: one of them is not a bound
        if 0 <= width(*bounds) <= tol and bounds != tried:
            tried = bounds
            out = _norm_result(*ends(upper, lower), sup, tol)
            if out.resolved:
                return out
    hi, lo = ends(upper, lower)
    if hi is None:  # on ill-conditioned S_lam no single-lam certificate may validate
        hi = _first(_szego_end(phi, preordering, lams, lam, params) for lam in lams)
    return _norm_result(hi, lo, sup, tol)


def _norm_result(hi, lo, sup, tol) -> NormResult:
    """The bracket from validated ends (c, certificate) and (c, witness), or None."""
    c_hi, cert = hi or (np.inf, None)
    c_lo, wit = lo or (sup, None)
    evals = ((c_lo, "infeasible"),) if wit else ()
    evals += ((c_hi, "feasible"),) if cert else ()
    return NormResult(c_lo, c_hi, bool(cert is not None and c_hi - c_lo <= tol), cert, wit,
                      evals)


def _certificate_end(phi, preordering, c_sq, build, params):
    """(c, build(c)) at c = sqrt(c_sq), the bound that built it, validated once."""
    c = float(np.sqrt(c_sq))
    cert = build(c)
    ok = validate_certificate(phi, preordering, c, cert, params.feas_tol)[0]
    return (c, cert) if ok else None


def _szego_end(phi, preordering, lams, lam, params, pencil=None):
    """_certificate_end of the certificate on lam alone, at its closed-form c^2."""
    def build(c):
        gamma = _szego_gamma(phi.sample, target_blocks(phi, c), lam)
        return _szego_certificate(phi.sample, lams, lam, psd_clip(gamma), c)
    return _certificate_end(phi, preordering, _szego_top(phi, lam, 0.0, pencil)[0], build,
                            params)


def _witness_end(phi, preordering, kern, params, sup):
    """(c, witness) at the largest c > sup where kern separates, found in closed
    form (the pairing is affine in c^2).  That c^2 puts the pairing exactly on
    the validator's strict threshold, where rounding can fail it, so it is
    lowered by 0, then c_sq * 1e-15 growing x10 up to c_sq * 1e-4, until the
    witness validates: a rigorous rounding margin would lower c_lo by more."""
    R0 = target_blocks(phi, 0.0)
    mass = pairing(target_blocks(phi, 1.0) - R0, kern)
    if not mass > 0:
        return None
    c_sq = -(pairing(R0, kern) + params.feas_tol * np.abs(kern.blocks).max()) / mass

    def separated(sq):
        c = float(np.sqrt(sq))
        wit = validate_witness(phi, preordering, c, kern, params.feas_tol)
        return (c, wit) if wit else None

    offsets = [0.0] + [c_sq * 10.0 ** k for k in range(-15, -3)]
    return _first(separated(c_sq - off) for off in offsets if c_sq - off > sup * sup)
