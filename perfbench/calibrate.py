"""One-shot calibration against the recorded baseline (not a timed workload).

    python3 perfbench/calibrate.py > perfbench/calibration.json

Runs the `test_classical_d2_interval_brackets_sup` instance (default_rng(21),
N=4, classical(2), tol=1e-4, default solver parameters) and checks the
baseline counts: 7 probes, the bracket [0.8828, 0.9453], resolved=False, and
306,750 iterations in total when each probe's c is replayed through
`agler_decompose`.  Also records `cli.import_ms`.  Prints the record as
JSON; takes about a minute; exits 1 if any count differs.
"""
import json
import sys
from time import perf_counter

import env

EXPECTED = {"probes": 7, "bracket": [0.8828, 0.9453], "resolved": False,
            "iterations": 306_750}


def main() -> int:
    env.pin_threads()
    env.use_checkout_source()

    import numpy as np
    from aglerlab.preorder import classical
    from aglerlab.realize import agler_decompose, schur_agler_norm
    from aglerlab.sampling import random_transfer_sample
    from run import IMPORT_TIME, Launches, import_ms
    from tracer import Tracer

    phi, _ = random_transfer_sample(np.random.default_rng(21), 4, 2)
    pre = classical(2)
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        t0 = perf_counter()
        out = schur_agler_norm(phi, pre, tol=1e-4)
        norm_s = perf_counter() - t0
    finally:
        tracer.active = False
        tracer.uninstall()

    t0 = perf_counter()
    replay = [agler_decompose(phi, pre, c) for c, _ in out.evaluations]
    replay_s = perf_counter() - t0
    launches = Launches(IMPORT_TIME, 0.0)
    launches.finish()
    ms, errors = import_ms(launches)

    measured = {
        "probes": len(out.evaluations),
        "bracket": [round(out.c_lo, 4), round(out.c_hi, 4)],
        "resolved": out.resolved,
        "iterations": sum(r.iterations for r in replay),
    }
    mismatches = [k for k in EXPECTED if measured[k] != EXPECTED[k]]
    if [r.status for r in replay] != [s for _, s in out.evaluations]:
        mismatches.append("replayed statuses")
    if tracer.counts["realize.iterations"] != measured["iterations"]:
        mismatches.append("traced iterations")
    record = {
        "instance": "default_rng(21), N=4, classical(2), tol=1e-4, default SolverParams",
        "expected": EXPECTED,
        "measured": {**measured, "c_lo": out.c_lo, "c_hi": out.c_hi,
                     "evaluations": [list(e) for e in out.evaluations],
                     "traced_iterations": tracer.counts["realize.iterations"]},
        "norm_s": norm_s,
        "replay_s": replay_s,
        "cli.import_ms": ms,
        "environment": env.describe(),
        "mismatches": mismatches + errors,
    }
    print(json.dumps(record, indent=1))
    return 1 if record["mismatches"] else 0


if __name__ == "__main__":
    sys.exit(main())
