"""Tangential Agler-Pick interpolation on finite node sets.

Data are node matrices a(x), b(x); feasibility is the positivity of
(a a^* - b b^*) against the admissible kernels and is certified exactly as
in the realization solver.  A feasible certificate synthesizes, through the
lurking isometry, a contractive-valued transfer function W with
b(x) = a(x) W(x) at the nodes, evaluable anywhere in the domain.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import min_eig
from .auxfun import AuxFunctionSample, monomial_rows
from .kernels import PointSample
from .preorder import MultiIndex, Preordering, classify
from .realize import (AglerCertificate, Colligation, DecomposeResult, SolverParams,
                      decide_target, eval_transfer, lurking_colligation, pick_target)


@dataclass(frozen=True)
class PickProblem:
    """Nodes with target data a(x), b(x) of common shape m x p."""

    nodes: PointSample
    a: np.ndarray  # (N, m, p)
    b: np.ndarray  # (N, m, p)
    preordering: Preordering

    def __post_init__(self):
        a = np.asarray(self.a, dtype=complex)
        b = np.asarray(self.b, dtype=complex)
        if a.ndim == 1:
            a = a[:, None, None]
        if b.ndim == 1:
            b = b[:, None, None]
        N = self.nodes.n_points
        if a.shape[0] != N or b.shape != a.shape or a.ndim != 3:
            raise ValueError(f"need matching (N, m, p) data, got {a.shape} and {b.shape}")
        if self.preordering.d != self.nodes.d:
            raise ValueError("preordering dimension != node dimension")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def m(self) -> int:
        return self.a.shape[1]

    @property
    def p(self) -> int:
        return self.a.shape[2]

    def target_blocks(self) -> np.ndarray:
        """(a_x a_y^* - b_x b_y^*) as (N, N, m, m) blocks."""
        return pick_target(self.a, self.b)


def pick_feasible(problem: PickProblem,
                  params: SolverParams | None = None) -> DecomposeResult:
    """Certificate or verified witness for (a a^* - b b^*) positivity.

    The realization solver's decision on the Pick target in place of
    c^2 - phi phi^*: the Szego eigenvalue test on ample preorderings, the
    interior-point solver otherwise.
    """
    return decide_target(problem.nodes, problem.preordering, problem.target_blocks(), 1.0,
                         params)


def sigma_model_min_eig(problem: PickProblem, sigma_ext: AuxFunctionSample) -> float:
    """Min eigenvalue of ((a a^* - b b^*) (x) 1_n) * (1 - sigma sigma^*)^{-1}.

    The sigma-model analogue of the Szego test.  Exact only for a true
    extended auxiliary function; with a finite-stage extension this is a
    diagnostic whose error is bounded by the extension's defect quality,
    so agreement with pick_feasible is asserted only on instances whose
    feasibility margin dominates that defect.
    """
    if sigma_ext.sample != problem.nodes:
        raise ValueError("extended sigma sample must live on the node set")
    s = sigma_ext.sigmas
    ksig = np.linalg.inv(np.eye(sigma_ext.n) - s[:, None] @ s.conj().transpose(0, 2, 1)[None])
    # blocks R(x, y) (x) ksig(x, y) laid out as one matrix; not a schur_product,
    # whose Hermitian check refuses the round-off of ksig near the torus
    k = problem.nodes.n_points * problem.m * sigma_ext.n
    return min_eig(np.einsum("xyij,xykl->xikyjl", problem.target_blocks(), ksig).reshape(k, k))


@dataclass(frozen=True)
class PickSolution:
    """Synthesized interpolant: b(x) = a(x) W(x) at the nodes; W evaluates
    anywhere in the domain through eval_transfer on the colligation, and
    node_values holds its (N, p, p) values at the nodes."""

    colligation: Colligation
    node_residual: float
    node_values: np.ndarray


def pick_solve(problem: PickProblem, cert: AglerCertificate,
               feas_tol: float = 1e-8) -> PickSolution:
    """Contractive multiplier W with b = a W at every node, by the lurking
    isometry on a a^* - b b^* = sum Gamma_lam * defect_lam, and the worst
    node residual |a W - b|."""
    col = lurking_colligation(problem.nodes, problem.a, problem.b, cert, feas_tol)
    W = eval_transfer(col, problem.nodes.points)
    return PickSolution(col, float(np.abs(problem.a @ W - problem.b).max()), W)


def corona_right_inverse(sample: PointSample, lam: MultiIndex,
                         preordering: Preordering,
                         params: SolverParams | None = None):
    """Toeplitz-corona instance a = psi^+_lam, b = (1, 0, ..., 0).

    Returns the per-node n-column omega with psi^+ omega = 1, the solution
    object for off-node evaluation, and the worst node residual.
    """
    params = params or SolverParams()
    cls = classify(preordering)
    if not cls.is_ample:
        raise ValueError("the corona reduction here needs an ample preordering")
    lam = tuple(int(v) for v in lam)
    plus, _ = monomial_rows(sample.points, lam)
    a = plus[:, None, :]
    b = np.zeros_like(a)
    b[:, 0, 0] = 1.0
    problem = PickProblem(sample, a, b, preordering)
    out = pick_feasible(problem, params)
    if not out.feasible:
        raise ArithmeticError(f"corona problem unexpectedly {out.status}")
    sol = pick_solve(problem, out.certificate, params.feas_tol)
    omegas = sol.node_values[:, :, :1]
    worst = np.abs(a @ omegas - 1.0).max()
    return omegas, sol, float(worst)
