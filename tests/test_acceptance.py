"""Acceptance suite: one criterion per test, one printed verdict line each.

Every certificate and witness produced here is re-validated through the
independent checking paths and recorded; the final soundness gate fails if
any recorded object failed its re-validation.
"""
import time

import numpy as np
import pytest

from aglerlab.auxfun import extend_aux_finite, verify_defect_identity
from aglerlab.kernels import PointSample
from aglerlab.opmodel import (commutant_dimension, eval_colligation_at_tuple,
                              eval_polynomial, gkvw_default, kv_polynomial,
                              kv_tuple, parrott_default, parrott_forced_zero)
from aglerlab.pick import PickProblem, pick_feasible, pick_solve
from aglerlab.preorder import Preordering, classical, standard_ample, standard_nearly_ample
from aglerlab.realize import (FunctionSample, SolverParams, agler_decompose,
                              ample_membership, eval_transfer, lurking_isometry,
                              schur_agler_norm, validate_certificate,
                              validate_witness)
from aglerlab.sampling import (random_classical_colligation, random_points,
                               random_psd_kernel, random_transfer_sample, random_unitary)
from helpers import classical_pick_matrix, random_strict_tuple

SOUNDNESS_LOG: list = []


def _record(kind: str, ok: bool, context: str) -> None:
    SOUNDNESS_LOG.append((kind, bool(ok), context))


def _validated_decompose(phi, pre, c, params=None):
    out = agler_decompose(phi, pre, c, params)
    tol = (params or SolverParams()).feas_tol
    if out.certificate is not None:
        ok, _, _ = validate_certificate(phi, pre, c, out.certificate, tol)
        _record("certificate", ok, f"decompose c={c:.6g}")
    if out.witness is not None:
        ok = validate_witness(phi, pre, c, out.witness.kernel, tol) is not None
        _record("witness", ok, f"decompose c={c:.6g}")
    return out


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag} {'PASS' if ok else 'FAIL'} {detail}")


def test_accept_01_roundtrip_realization():
    """Feasibility and transfer round-trip for colligation-generated samples."""
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    feasible = 0
    for trial in range(50):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 7))
        phi, _ = random_transfer_sample(rng, n, d)
        pre = classical(d)
        out = _validated_decompose(phi, pre, 1.0)
        if out.feasible:
            feasible += 1
            col = lurking_isometry(out.certificate, phi)
            for x in range(n):
                err = abs(eval_transfer(col, phi.sample.points[x:x + 1])[0, 0, 0]
                          - phi.values[x, 0, 0])
                worst = max(worst, err)
    elapsed = time.monotonic() - t0
    ok = feasible == 50 and worst < 1e-7 and elapsed < 60
    _verdict("ACCEPT-01", ok,
             f"round-trip realization: {feasible}/50 feasible, "
             f"max error {worst:.2e}, {elapsed:.1f}s")
    assert feasible == 50
    assert worst < 1e-7
    assert elapsed < 60


def test_accept_02_ample_decomposition_consistency():
    """Membership eigen-test and iterative decomposition agree at the boundary."""
    rng = np.random.default_rng(102)
    params = SolverParams(force_iterative=True, max_iter=60_000)
    agree = 0
    total = 0
    for trial in range(50):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 5))
        phi, _ = random_transfer_sample(rng, n, d)
        pre = standard_ample(d)
        lo, hi = phi.sup_norm(), 2.0
        while not ample_membership(phi, pre, hi)[0]:
            hi *= 2
        if ample_membership(phi, pre, lo)[0]:
            continue  # boundary collapses onto the sup norm; nothing to bracket
        for _ in range(50):
            mid = (lo + hi) / 2
            if ample_membership(phi, pre, mid)[0]:
                hi = mid
            else:
                lo = mid
        total += 1
        above = _validated_decompose(phi, pre, hi + 1e-4, params)
        below = _validated_decompose(phi, pre, hi - 1e-4, params)
        if above.status == "feasible" and below.status == "infeasible":
            agree += 1
    ok = total > 0 and agree == total
    _verdict("ACCEPT-02", ok,
             f"ample<->decomposition consistency: {agree}/{total} boundary pairs agree")
    assert ok


def _kv_over_5(points: np.ndarray) -> FunctionSample:
    """phi = p/5 for the KV quadratic p: sup 1 on the torus, attained at (1,1,-1)."""
    p = kv_polynomial()
    vals = [sum(coef[0, 0] * np.prod(z ** np.array(lam)) for lam, coef in p.coeffs.items())
            for z in points]
    return FunctionSample(PointSample(points), np.array(vals) / 5)


def test_accept_03_nearly_ample_equivalence():
    """The nearly-ample norm identity in the form a finite sample carries.

    Globally a nearly ample preordering gives the same Schur-Agler norm as
    the ample one, the H-infinity norm.  On a finite sample the nearly ample
    decomposition cone is strictly smaller than the ample one, and only one
    half of the identity survives: since D_lam * S_{(1,1,1)-lam} =
    D_{(1,1,1)}, a nearly-ample certificate at c times the Szego kernel of
    the dropped coordinate is an ample certificate at c, so the ample norm
    never exceeds a nearly-ample one.  The other half is printed, not
    bounded: on this seed-103 instance the brackets, each certified at both
    ends, put the ample norm at 0.5817854, the (0,1) norm 8.816e-2 above it
    and the (0,2), (1,2) norms 7.949e-3 above it
    (`python scripts/preordering_gap.py --seed 103 --trials 1` prints the
    same gaps).  The identity itself is checked on phi = p/5
    for the KV quadratic p: its H-infinity norm is exactly 1, yet it lies
    outside the classical Schur-Agler ball (|p(T_KV)| = 3 sqrt 3 > 5), so
    every sample of it must decompose at c = 1 under each nearly ample
    preordering and the ample one.
    """
    rng = np.random.default_rng(103)
    pre_a = standard_ample(3)
    nas = [standard_nearly_ample(3, i, j) for i, j in [(0, 1), (0, 2), (1, 2)]]
    params = SolverParams(max_iter=30_000, stall_rtol=1e-9)
    phi, _ = random_transfer_sample(rng, 4, 3)

    # the directions that do hold at finite stage: at c = 1 a classical-ball
    # sample is feasible for every preordering here, and nearly-ample
    # feasibility implies ample feasibility at the same c
    for pre_na in nas:
        at_one = _validated_decompose(phi, pre_na, 1.0, params)
        assert at_one.feasible
        assert ample_membership(phi, pre_a, 1.0)[0]

    out_a = schur_agler_norm(phi, pre_a, tol=1e-5)
    assert out_a.certificate is not None
    ample_ok, _, _ = validate_certificate(phi, pre_a, out_a.c_hi, out_a.certificate,
                                          SolverParams().feas_tol)
    _record("certificate", ample_ok, "ample norm upper end")
    slacks, gaps = [], []
    for pre_na in nas:
        out_na = schur_agler_norm(phi, pre_na, tol=2e-4, params=params)
        for c, status in out_na.evaluations:
            if status == "feasible":
                assert ample_membership(phi, pre_a, c)[0]
        if out_na.certificate is not None:
            ok, _, _ = validate_certificate(phi, pre_na, out_na.c_hi,
                                            out_na.certificate, params.feas_tol)
            _record("certificate", ok, "nearly-ample norm upper end")
        witness_ok = False
        if out_na.witness is not None:
            # the witness was produced at the last infeasible probe <= c_lo
            witness_ok = validate_witness(phi, pre_na, out_na.c_lo, out_na.witness.kernel,
                                          params.feas_tol) is not None
            _record("witness", witness_ok, "nearly-ample norm lower end")
        slacks.append(out_a.c_lo - out_na.c_hi)
        certified = ample_ok and witness_ok
        gaps.append(f"[{out_na.c_lo - out_a.c_hi:.4e}, {out_na.c_hi - out_a.c_lo:.4e}]"
                    f"{'' if certified else ' (uncertified)'}")

    # the identity on p/5: c = 1 exactly, on samples running up to its peak set
    theta = rng.uniform(0, 2 * np.pi, 3)
    directions = np.array([[1, 1, -1], [1, -1, 1], [-1, 1, 1], np.exp(1j * theta)])
    kv_total, kv_certified = 0, 0
    for r in (0.9, 0.97, 0.99, 0.999):
        kv_phi = _kv_over_5(r * directions)
        for pre in [pre_a] + nas:
            out = _validated_decompose(kv_phi, pre, 1.0, params)
            kv_total += 1
            # a feasible result's last log entry is its certificate's re-validation
            kv_certified += out.feasible and SOUNDNESS_LOG[-1][:2] == ("certificate", True)

    ordering_ok = max(slacks) <= 1e-3
    kv_ok = kv_certified == kv_total
    ok = ordering_ok and kv_ok and ample_ok
    _verdict("ACCEPT-03", ok,
             f"nearly-ample equivalence: ample=[{out_a.c_lo:.6f},{out_a.c_hi:.6f}], "
             f"max ample-over-nearly-ample slack {max(slacks):.3e} (bound 1e-3), "
             f"p_KV/5 certified at c=1 on {kv_certified}/{kv_total} samples; "
             f"finite-sample gaps {', '.join(gaps)} "
             "(exact up to the bracket widths; scripts/preordering_gap.py)")
    assert ample_ok
    assert ordering_ok, (
        f"ample norm lower end exceeds a nearly-ample upper end by {max(slacks):.3e} "
        "> 1e-3; a nearly-ample certificate at c is an ample certificate at c "
        "after a Schur product with the dropped coordinate's Szego kernel, so "
        "this ordering holds on every sample")
    assert kv_ok, (
        "p_KV/5 has H-infinity norm 1, so every nearly ample and the ample "
        f"Schur-Agler norm of it is 1 on every sample; only {kv_certified}/{kv_total} "
        "samples came back feasible at c=1 with a re-validated certificate")


def test_accept_04_defect_identity_suite():
    """Sandwich identity for raw sigma against random PSD kernels."""
    rng = np.random.default_rng(104)
    worst = 0.0
    for trial in range(100):
        d = int(rng.integers(1, 4))
        lam = tuple(int(rng.integers(0, 2)) for _ in range(d))
        if sum(lam) == 0:
            lam = tuple(1 for _ in range(d))
        n = int(rng.integers(2, 6))
        sample = random_points(rng, n, d)
        K = random_psd_kernel(rng, sample)
        worst = max(worst, verify_defect_identity(sample, lam, K))
    ok = worst < 1e-9
    _verdict("ACCEPT-04", ok, f"defect identity suite: max residual {worst:.2e}")
    assert ok


def test_accept_05_finite_stage_extension():
    """Completion norm, sandwich residual, and stage defect positivity."""
    rng = np.random.default_rng(105)
    worst_norm, worst_res, worst_eig = 0.0, 0.0, np.inf
    for trial in range(50):
        d = int(rng.integers(1, 4))
        lam = tuple(int(rng.integers(0, 2)) for _ in range(d))
        if sum(lam) == 0:
            lam = tuple(1 for _ in range(d))
        n = int(rng.integers(1, 5))
        sample = random_points(rng, n, d)
        ext = extend_aux_finite(sample, lam, standard_ample(d))
        worst_norm = max(worst_norm, ext.completion_norm)
        worst_res = max(worst_res, ext.identity_residual)
        worst_eig = min(worst_eig, ext.defect_min_eig)
    ok = worst_norm <= 1 + 1e-9 and worst_res < 1e-8 and worst_eig >= -1e-8
    _verdict("ACCEPT-05", ok,
             f"finite-stage extension: max |G| {worst_norm:.12f}, "
             f"max residual {worst_res:.2e}, min stage eig {worst_eig:.2e}")
    assert ok


def test_accept_06_von_neumann():
    """Transfer values at strict commuting tuples stay in the unit ball."""
    rng = np.random.default_rng(106)
    worst = 0.0
    for trial in range(500):
        d = int(rng.integers(1, 4))
        col = random_classical_colligation(rng, d)
        T = random_strict_tuple(rng, d, int(rng.integers(1, 7)))
        worst = max(worst, float(np.linalg.norm(eval_colligation_at_tuple(col, T), 2)))
    ok = worst <= 1 + 1e-9
    _verdict("ACCEPT-06", ok, f"von Neumann inequality: max norm {worst:.12f} over 500 trials")
    assert ok


def test_accept_07_kv_gap():
    """The quadratic form beats its torus sup norm on the 6x6 tuple."""
    p = kv_polynomial()
    T = kv_tuple().scaled(0.999)
    operator_side = float(np.linalg.norm(eval_polynomial(p, T), 2))

    # independent grid oracle on the 60^3 torus
    theta = 2 * np.pi * np.arange(60) / 60
    z = np.exp(1j * theta)
    z1, z2, z3 = np.meshgrid(z, z, z, indexing="ij")
    vals = (z1 ** 2 + z2 ** 2 + z3 ** 2
            - 2 * z1 * z2 - 2 * z2 * z3 - 2 * z3 * z1)
    grid_side = float(np.abs(vals).max())

    margin = operator_side / grid_side - 1
    ok = margin > 0.01
    _verdict("ACCEPT-07", ok,
             f"KV gap: |p(rT)| = {operator_side:.6f} vs grid sup {grid_side:.6f} "
             f"(margin {100 * margin:.2f}%)")
    assert ok
    # analytic cross-check of both oracles
    assert operator_side == pytest.approx(0.999 ** 2 * 3 * np.sqrt(3), rel=1e-12)
    assert grid_side == pytest.approx(5.0, rel=1e-12)


def test_accept_08_boundary_example_verifiers():
    """Parrott, GKVW, and KV tuples with their structural certificates."""
    rng = np.random.default_rng(108)
    T = parrott_default()
    parrott_comm = max(np.abs(T.matrices[j] @ T.matrices[k]).max()
                       for j in range(3) for k in range(3))
    U0 = np.diag([1.0, -1.0])
    V0 = np.array([[0.0, 1.0], [1.0, 0.0]])
    anti = float(np.abs(U0 @ V0 + V0 @ U0).max())
    parrott_irred = commutant_dimension(T) == 1
    forced = []
    for _ in range(100):
        Q = random_unitary(rng, 2)
        A = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 2)))
        U = np.kron(Q @ U0 @ Q.conj().T, A)
        V = np.kron(Q @ V0 @ Q.conj().T, A)
        forced.append(parrott_forced_zero(U, V))
    parrott_ok = (parrott_comm == 0.0 and anti < 1e-12 and parrott_irred
                  and min(forced) > 1e-8)

    G = gkvw_default()
    gkvw_comm = max(np.abs(G.matrices[j] @ G.matrices[k]
                           - G.matrices[k] @ G.matrices[j]).max()
                    for j in range(3) for k in range(3))
    u_sum = np.abs(sum(np.array([[0, 1], [np.sqrt(3) / 2, -0.5],
                                 [-np.sqrt(3) / 2, -0.5]]))).max()
    gkvw_ok = gkvw_comm < 1e-15 and u_sum < 1e-12 and commutant_dimension(G) == 1

    K = kv_tuple()
    kv_comm = max(np.abs(K.matrices[j] @ K.matrices[k]
                         - K.matrices[k] @ K.matrices[j]).max()
                  for j in range(3) for k in range(3))
    kv_ok = kv_comm <= 1e-15 and K.is_contractive()

    ok = parrott_ok and gkvw_ok and kv_ok
    _verdict("ACCEPT-08", ok,
             f"boundary examples: parrott(comm={parrott_comm}, anti={anti:.1e}, "
             f"irred={parrott_irred}, forced-zero min {min(forced):.2f}), "
             f"gkvw(comm={gkvw_comm:.1e}), kv(comm={kv_comm:.1e}, "
             f"contractive={K.is_contractive()})")
    assert ok


def test_accept_09_pick_cross_check():
    """Classical Pick matrix sign agreement and bidisk tangential synthesis."""
    rng = np.random.default_rng(109)
    disagreements = 0
    tested = 0
    pre1 = Preordering([(1,)])
    for trial in range(200):
        n = int(rng.integers(2, 5))
        nodes = random_points(rng, n, 1)
        b = rng.uniform(0, 1.15, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        problem = PickProblem(nodes, np.ones((n, 1, 1), dtype=complex),
                              b.reshape(n, 1, 1), pre1)
        margin = float(np.linalg.eigvalsh(classical_pick_matrix(problem)).min())
        if abs(margin) <= 1e-8:
            continue
        tested += 1
        out = pick_feasible(problem)
        if out.certificate is not None:
            _record("certificate", out.residual <= 1e-8, "pick classical")
        if out.witness is not None:
            _record("witness", out.witness.pairing < 0, "pick classical")
        if (margin > 0) != (out.status == "feasible"):
            disagreements += 1

    worst_res = 0.0
    for trial in range(10):
        phi, _ = random_transfer_sample(rng, 3, 2)
        a = rng.normal(size=(3, 1, 1)) + 1j * rng.normal(size=(3, 1, 1))
        problem = PickProblem(phi.sample, a, phi.values * a, standard_ample(2))
        out = pick_feasible(problem)
        assert out.feasible
        sol = pick_solve(problem, out.certificate)
        worst_res = max(worst_res, sol.node_residual)

    ok = disagreements == 0 and tested >= 150 and worst_res < 1e-7
    _verdict("ACCEPT-09", ok,
             f"pick cross-check: {tested} decided instances, "
             f"{disagreements} disagreements, bidisk node residual {worst_res:.2e}")
    assert ok


def test_accept_10_soundness_gate():
    """No recorded certificate or witness failed its independent re-validation."""
    bad = [entry for entry in SOUNDNESS_LOG if not entry[1]]
    counts = {"certificate": 0, "witness": 0}
    for kind, ok, _ in SOUNDNESS_LOG:
        counts[kind] += 1
    ok = not bad and counts["certificate"] > 0 and counts["witness"] > 0
    _verdict("ACCEPT-10", ok,
             f"soundness gate: {counts['certificate']} certificates and "
             f"{counts['witness']} witnesses re-validated, {len(bad)} failures")
    assert not bad
    assert counts["certificate"] > 0 and counts["witness"] > 0
