"""Properties of the interior-point core on small random samples.

Every object a solve returns must re-validate through the independent
validators, and the answers must respect the order structure of the
decomposition cones.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aglerlab import realize
from aglerlab._linalg import hermitize
from aglerlab.preorder import classical, standard_ample, standard_nearly_ample
from aglerlab.realize import (FunctionSample, SolverParams, agler_decompose,
                              schur_agler_norm, validate_certificate, validate_witness)
from aglerlab.sampling import random_transfer_sample

FEAS_TOL = SolverParams().feas_tol
PREORDERINGS = [classical(2), classical(3), standard_nearly_ample(3, 0, 1),
                standard_nearly_ample(3, 1, 2)]
SMALL = settings(max_examples=30, deadline=None, derandomize=True)


def _sample(seed: int, n: int, d: int, scale: float) -> FunctionSample:
    phi, _ = random_transfer_sample(np.random.default_rng(seed), n, d)
    return FunctionSample(phi.sample, scale * phi.values)


seeds = st.integers(0, 2 ** 32 - 1)
sizes = st.integers(2, 4)
scales = st.floats(0.2, 1.5)


@SMALL
@given(seeds, sizes, st.sampled_from(PREORDERINGS), scales)
def test_norm_ends_revalidate_above_sup(seed, n, pre, scale):
    phi = _sample(seed, n, pre.d, scale)
    out = schur_agler_norm(phi, pre, tol=1e-4)
    assert out.resolved
    assert out.c_lo >= phi.sup_norm()
    assert out.c_lo <= out.c_hi
    assert validate_certificate(phi, pre, out.c_hi, out.certificate, FEAS_TOL)[0]
    if out.witness is not None:
        assert validate_witness(phi, pre, out.c_lo, out.witness.kernel, FEAS_TOL) is not None


@SMALL
@given(seeds, sizes, st.sampled_from(PREORDERINGS), scales, st.floats(0.5, 1.5),
       st.floats(1e-3, 0.5))
def test_feasibility_is_monotone_in_c(seed, n, pre, scale, at, up):
    # D_lam o S_lam = J: a certificate at c plus (c'^2 - c^2) S_lam is one at c'
    phi = _sample(seed, n, pre.d, scale)
    c = at * phi.sup_norm()
    out = agler_decompose(phi, pre, c)
    if out.certificate is not None:
        assert validate_certificate(phi, pre, c, out.certificate, FEAS_TOL)[0]
    if out.witness is not None:
        assert validate_witness(phi, pre, c, out.witness.kernel, FEAS_TOL) is not None
    if out.feasible:
        assert agler_decompose(phi, pre, c * (1 + up)).feasible


@SMALL
@given(seeds, sizes, st.sampled_from([(0, 1), (0, 2), (1, 2)]), scales)
def test_ample_lower_end_below_nearly_ample_upper_end(seed, n, drop, scale):
    # D_lam o S_{(1,1,1)-lam} = D_{(1,1,1)} turns a nearly-ample certificate at c
    # into an ample one at c, so no ample witness lives above a nearly-ample c_hi
    phi = _sample(seed, n, 3, scale)
    ample = schur_agler_norm(phi, standard_ample(3), tol=1e-4)
    nearly = schur_agler_norm(phi, standard_nearly_ample(3, *drop), tol=1e-4)
    assert ample.c_lo <= nearly.c_hi


def _counted_norm(phi, pre, tol, params=None):
    """schur_agler_norm and the number of Newton steps its solve took."""
    steps = [0]
    newton_step = realize._newton_step

    def counted(*args):
        steps[0] += 1
        return newton_step(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(realize, "_newton_step", counted)
        return schur_agler_norm(phi, pre, tol, params), steps[0]


@SMALL
@given(seeds, sizes, st.sampled_from(PREORDERINGS), scales, st.sampled_from([1e-4, 1e-8]))
def test_norm_at_tol_stops_early_within_the_converged_bracket(seed, n, pre, scale, tol):
    # the solve at tol is a prefix of the one at tol 0, stopped at the first
    # iterate whose validated ends are within tol; at 1e-8, about the width
    # of a converged bracket, most solves never get there and run to the end
    phi = _sample(seed, n, pre.d, scale)
    (loose, loose_steps), (full, full_steps) = (_counted_norm(phi, pre, t) for t in (tol, 0.0))
    assert loose_steps <= full_steps
    assert max(loose.c_lo, full.c_lo) <= min(loose.c_hi, full.c_hi)
    assert loose.resolved or full.c_hi - full.c_lo > tol
    for out, t in ((loose, tol), (full, 0.0)):
        if out.resolved:
            assert out.c_hi - out.c_lo <= t
        assert validate_certificate(phi, pre, out.c_hi, out.certificate, FEAS_TOL)[0]
        if out.witness is not None:
            assert validate_witness(phi, pre, out.c_lo, out.witness.kernel, FEAS_TOL) is not None


@pytest.mark.parametrize("pre", PREORDERINGS)
def test_norm_at_loose_tol_takes_fewer_newton_steps(pre):
    phi = _sample(5, 4, pre.d, 1.0)
    (loose, loose_steps), (full, full_steps) = (_counted_norm(phi, pre, t) for t in (1e-4, 0.0))
    assert loose.resolved and loose_steps < full_steps


def _drain(ws, params):
    """The last (steps, upper, lower) of a solve run to its own stop."""
    for last in realize._interior_point(ws, params):
        pass
    return last


def test_stop_does_not_read_the_bounds():
    # norm-bracket seed 9, op 58: with every upper bound at inf a rule on the
    # bracket width would compare inf - inf; the step-length floor does not look
    phi, _ = random_transfer_sample(np.random.default_rng([9, 58]), 8, 2)
    params = SolverParams(max_iter=3000, stall_rtol=1e-9)
    ws = realize._Workspace(phi.sample, realize._decomposition_lambdas(classical(2)),
                            realize.target_blocks(phi, 0.0), params.feas_tol)
    steps, _, lower = _drain(ws, params)
    upper = realize._Workspace.upper
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(realize._Workspace, "upper",
                   lambda self, X, s: (np.inf, *upper(self, X, s)[1:]))
        blind_steps, blind_upper, blind_lower = _drain(ws, params)
    assert blind_upper[0] == np.inf
    assert blind_steps == steps < params.max_iter
    assert blind_lower[0] == lower[0]


def test_each_certificate_end_is_validated_once(monkeypatch):
    # norm-bracket seed 28, op 16: raising c^2 by up to 1e-4 c^2 until the
    # certificate validates gives c_hi = 1.0000919, a bracket 9.3e-5 wide
    phi, _ = random_transfer_sample(np.random.default_rng([28, 16]), 8, 2)
    calls = {"ends": 0, "validations": 0}
    end, validate = realize._certificate_end, realize.validate_certificate

    def counted(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(realize, "_certificate_end", counted("ends", end))
    monkeypatch.setattr(realize, "validate_certificate", counted("validations", validate))
    out = schur_agler_norm(phi, classical(2), 1e-4, SolverParams(max_iter=3000, stall_rtol=1e-9))
    assert calls["ends"] > 0 and calls["validations"] == calls["ends"]
    assert out.resolved and out.c_hi - out.c_lo < 1e-5


def test_decision_validates_each_witness_once(monkeypatch):
    # c = 0.3 lies below the norm, so every lower bound is positive and each
    # iterate's witness is tried; with all of them failing, the budget runs out
    phi = _sample(5, 4, 2, 1.0)
    latest, tried = [], []
    solve = realize._interior_point

    def recorded(ws, params):
        for item in solve(ws, params):
            latest[:] = item[1][0], item[2][0]
            yield item

    def failing(*args):
        tried.append(tuple(latest))

    monkeypatch.setattr(realize, "_interior_point", recorded)
    monkeypatch.setattr(realize, "validate_witness_target", failing)
    out = agler_decompose(phi, classical(2), 0.3, SolverParams(max_iter=5))
    assert out.status == "unresolved" and latest[1] > 0
    assert len(tried) == 6 and len(set(tried)) == len(tried)


# Reference Newton step, which realize._newton_step must match bit for bit:
# each step-length search factors X and Z itself, the predictor and the
# corrector each form herm(X Rd Z^-1), and the Schur matrix is assembled
# lambda by lambda and concatenated from its blocks.


def ref_schur(ws, X, Zi, lp):
    n, nd = ws.n, len(ws._d)
    Mh = 0
    for DD, Xl, Zl in zip(ws._DD, X, Zi):
        T = Xl[ws._rows_i][:, :, None] * Zl.T[ws._rows_j][:, None, :]
        T += Zl[ws._rows_i][:, :, None] * Xl.T[ws._rows_j][:, None, :]
        Mh = Mh + DD * T
    Mh = Mh.reshape(-1, n * n) / 2
    Md, Mu = Mh[:nd], Mh[nd:]
    d, u, l = ws._d, ws._u, ws._l
    Mul, Mup = Mu[:, l], Mu[:, u]
    rows = [(Md[:, d].real, 2 * Md[:, u].real, -2 * Md[:, u].imag),
            (2 * Mu[:, d].real, 2 * (Mup + Mul).real, 2 * (Mul - Mup).imag),
            (2 * Mu[:, d].imag, 2 * (Mup + Mul).imag, 2 * (Mup - Mul).real)]
    M = np.concatenate([np.concatenate(r, axis=1) for r in rows])
    j = ws.to_real(ws.J)
    return M + lp * np.outer(j, j)


def ref_max_steps(primal, dual):
    Li = np.linalg.inv(np.linalg.cholesky(np.concatenate([primal[0], dual[0]])))
    dS = np.concatenate([primal[1], dual[1]])
    lo = np.linalg.eigvalsh(hermitize(Li @ dS @ realize._adjoint(Li)))[:, 0]
    out = []
    for w, (_, _, x, dx) in zip(np.split(lo, 2), (primal, dual)):
        a = np.inf if w.min() >= 0 else -1.0 / w.min()
        out.append(a if dx >= 0 else min(a, -x / dx))
    return out[0], out[1]


def ref_newton_step(ws, X, t, W, Z, z, rp):
    inner = realize._inner
    k = Z.shape[0] * ws.n + 1
    Rd = ws.Dc * W - Z
    rz = 1 - inner(ws.J, W) - z
    mu = (inner(X, Z) + t * z) / k
    Zi = hermitize(np.linalg.inv(Z))
    M = ref_schur(ws, X, Zi, t / z)

    def direction(sigma_mu, corr_X, corr_t):
        C = sigma_mu * Zi - X - hermitize(X @ Rd @ Zi) - corr_X
        ct = (sigma_mu - corr_t) / z - t
        h = ws.apply(C) - (ct - t / z * rz) * ws.J - rp
        dW = ws.from_real(np.linalg.solve(M, ws.to_real(h)))
        dX = C - hermitize(X @ (ws.Dc * dW) @ Zi)
        dZ = ws.Dc * dW + Rd
        dz = rz - inner(ws.J, dW)
        return dX, ct - t / z * dz, dW, dZ, dz

    dX, dt, dW, dZ, dz = direction(0.0, 0.0, 0.0)
    ap, ad = (min(1.0, a) for a in ref_max_steps((X, dX, t, dt), (Z, dZ, z, dz)))
    mu_aff = (inner(X + ap * dX, Z + ad * dZ) + (t + ap * dt) * (z + ad * dz)) / k
    sigma = min(max(mu_aff / mu, 0.0), 1.0) ** 3
    dX, dt, dW, dZ, dz = direction(sigma * mu, hermitize(dX @ dZ @ Zi), dt * dz)
    ap, ad = (min(1.0, realize._STEP_DAMPING * a)
              for a in ref_max_steps((X, dX, t, dt), (Z, dZ, z, dz)))
    return X + ap * dX, t + ap * dt, W + ad * dW, Z + ad * dZ, z + ad * dz, ap, ad


def _solve_states(solve):
    """The arguments (ws, X, t, W, Z, z, rp) of every Newton step that solve() takes."""
    states, step = [], realize._newton_step

    def recorded(*args):
        states.append(args)
        return step(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(realize, "_newton_step", recorded)
        solve()
    return states


def _target_workspace(phi, pre, c):
    return realize._Workspace(phi.sample, realize._decomposition_lambdas(pre),
                              realize.target_blocks(phi, c), FEAS_TOL)


NORM_PARAMS = SolverParams(max_iter=3000, stall_rtol=1e-9)
PINNED_SOLVES = {
    "classical(2) N=4": lambda: schur_agler_norm(
        random_transfer_sample(np.random.default_rng([1, 0]), 4, 2)[0], classical(2), 1e-4,
        NORM_PARAMS),
    "classical(2) N=8": lambda: schur_agler_norm(
        random_transfer_sample(np.random.default_rng([1, 1]), 8, 2)[0], classical(2), 1e-4,
        NORM_PARAMS),
    "classical(2) N=4 m=2": lambda: schur_agler_norm(
        random_transfer_sample(np.random.default_rng([1, 5]), 4, 2, 2)[0], classical(2), 1e-4,
        NORM_PARAMS),
    "standard_nearly_ample(3,0,1) N=4": lambda: schur_agler_norm(
        random_transfer_sample(np.random.default_rng([1, 2]), 4, 3)[0],
        standard_nearly_ample(3, 0, 1), 1e-4, NORM_PARAMS),
    "classical(3) N=4, L=3": lambda: schur_agler_norm(
        random_transfer_sample(np.random.default_rng([1, 3]), 4, 3)[0], classical(3), 1e-4,
        NORM_PARAMS),
    # the decompose target R = c^2 J - phi phi^* that force_iterative sends to
    # the solver, on the single lambda of an ample preordering (L = 1), solved
    # to the end: the decision would stop it after a step or two
    "decompose target c=0.9, standard_ample(2)": lambda: _drain(
        _target_workspace(random_transfer_sample(np.random.default_rng([1, 4]), 4, 2)[0],
                          standard_ample(2), 0.9), SolverParams(force_iterative=True)),
}


@pytest.mark.parametrize("name", sorted(PINNED_SOLVES))
def test_newton_step_matches_the_reference_bit_for_bit(name):
    states = _solve_states(PINNED_SOLVES[name])
    assert len(states) >= 5
    for ws, X, t, W, Z, z, rp in states:
        Zi = hermitize(np.linalg.inv(Z))
        assert np.array_equal(ws.schur(X, Zi, t / z), ref_schur(ws, X, Zi, t / z))
        got = realize._newton_step(ws, X, t, W, Z, z, rp)
        ref = ref_newton_step(ws, X, t, W, Z, z, rp)
        for g, r in zip(got, ref):
            assert np.array_equal(g, r)
        # the step-length search on the step taken, forwards and backwards,
        # which puts both signs on each least eigenvalue and on dt and dz
        Li = np.linalg.inv(np.linalg.cholesky(np.concatenate([X, Z])))
        X1, t1, _, Z1, z1 = got[:5]
        for sign in (1.0, -1.0):
            dX, dt, dZ, dz = sign * (X1 - X), sign * (t1 - t), sign * (Z1 - Z), sign * (z1 - z)
            assert np.array_equal(realize._max_steps(Li, (dX, t, dt), (dZ, z, dz)),
                                  ref_max_steps((X, dX, t, dt), (Z, dZ, z, dz)))


def _norm_bracket_op(seed, i):
    """The phi and preordering of op i of the norm-bracket workload at seed."""
    pre, N = ((classical(2), 4), (classical(2), 8), (standard_nearly_ample(3, 0, 1), 4))[i % 3]
    phi, _ = random_transfer_sample(np.random.default_rng([seed, i]), N, pre.d)
    return phi, pre


def test_norm_bracket_seed_1639_op_4_has_an_upper_end():
    # every transfer sample of a unitary colligation has c* <= 1, so a sound
    # solve gives c_hi <= 1 + tol; from the start X = scale I this solve
    # validates no certificate and gives c_hi = inf
    phi, pre = _norm_bracket_op(1639, 4)
    out = schur_agler_norm(phi, pre, 1e-4, NORM_PARAMS)
    assert out.resolved and out.c_hi <= 1 + 1e-4
    assert validate_certificate(phi, pre, out.c_hi, out.certificate, FEAS_TOL)[0]


# Newton steps of the norms of norm-bracket seed 1, ops 0-11 (four draws of each
# of its three kinds): 110 under one and under two BLAS threads with the start
# X = 0.1 scale I, and 150 with X = scale I; the bound is 110 plus 10%
NORM_BRACKET_STEP_BOUND = 121


def test_norm_bracket_ops_stay_within_their_newton_steps():
    total = sum(_counted_norm(*_norm_bracket_op(1, i), 1e-4, NORM_PARAMS)[1] for i in range(12))
    assert total <= NORM_BRACKET_STEP_BOUND
