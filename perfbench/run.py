"""agler-lab benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload norm-bracket --seed 1 --seconds 40 --trace 0

One caller, no worker threads, BLAS pinned to one thread.  Ops run in
whole passes over the seed's op list, as many as fit in --seconds and at
least one; every op goes through the workload's correctness gate (untimed).
--trace 0 reports the end-to-end metrics; --trace 1 installs spans around
the package's public functions and reports per-layer metrics instead, per
pass over the op list.  Op and set-up times are scaled to a reference host
speed (see hostspeed.py), and cold start to a reference launch (see
cold_start), with the raw times in the run record; the import time of the
traced run stays raw.  The last stdout line is one JSON object; the lines
before it list every metric with its unit.  Spans and the run record (instance manifest,
environment, every op) go to .bench_out/.
"""
from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import env  # noqa: E402

SETUP_REPEATS = 5
SUBPROCESS_RUNS = 25


@dataclass
class Record:
    op: object
    outcome: object
    t0: float
    t1: float
    scaled_s: float = 0.0

    @property
    def raw_s(self) -> float:
        return self.t1 - self.t0


def parse_args(argv=None):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


COLD_START = ["-m", "aglerlab.cli", "example", "kv", "--quiet"]
IMPORT_TIME = ["-c", "from time import perf_counter as p; t = p(); import aglerlab.cli; "
                     "print(p() - t)"]
REFERENCE_LAUNCH = ["-c", "import numpy"]
REFERENCE_LAUNCH_S = 0.2


class Launches:
    """Fresh interpreters, one at a time, spread over the timed loop.

    With `reference`, each launch is followed at once by a REFERENCE_LAUNCH,
    whose time tracks the host's speed at start-up work (process creation
    and imports) where the host-speed kernel does not.
    """

    def __init__(self, code: list[str], seconds: float, reference: bool = False):
        self.code, self.seconds, self.reference = code, seconds, reference
        self.runs: list[tuple] = []  # (wall seconds, completed process, reference seconds)

    def due(self, busy: float) -> bool:
        n = len(self.runs)
        return n < SUBPROCESS_RUNS and busy >= n * self.seconds / SUBPROCESS_RUNS

    def _time(self, code: list[str]):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable] + code, cwd=env.ROOT,
                              capture_output=True, text=True, timeout=120)
        return perf_counter() - t0, proc

    def launch(self) -> None:
        wall, proc = self._time(self.code)
        ref = self._time(REFERENCE_LAUNCH)[0] if self.reference else None
        self.runs.append((wall, proc, ref))

    def finish(self) -> None:
        while len(self.runs) < SUBPROCESS_RUNS:
            self.launch()

    def errors(self) -> list[str]:
        return [f"exit {p.returncode}: {p.stderr.strip()[-200:]}"
                for _, p, _ in self.runs if p.returncode]


def cold_start(launches) -> tuple[float, float, list[str]]:
    """Launch-to-report time of `python -m aglerlab.cli example kv`: scaled and raw ms.

    The scaled time is the median ratio to the reference launch beside it,
    in ms on a host where the reference launch takes REFERENCE_LAUNCH_S.
    Over five runs of each workload its spread between seeds was 0.04,
    against 0.06 and 0.16 for the raw median, which follows the host's drift.
    """
    errors = launches.errors()
    for _, proc, _ in launches.runs:
        try:
            doc = json.loads(proc.stdout)
        except ValueError:
            doc = {}
        if doc.get("command") != "example" or doc.get("name") != "kv":
            errors.append("cold-start output is not an example kv report")
    if len({p.stdout for _, p, _ in launches.runs}) > 1:
        errors.append("cold-start reports differ between runs")
    scaled = statistics.median(t / ref for t, _, ref in launches.runs) * REFERENCE_LAUNCH_S
    raw = statistics.median(t for t, _, _ in launches.runs)
    return scaled * 1e3, raw * 1e3, errors


def import_ms(launches) -> tuple[float, list[str]]:
    """Median time of `import aglerlab.cli` inside fresh interpreters."""
    errors = launches.errors()
    if errors:
        return math.nan, errors
    return statistics.median(float(p.stdout) for _, p, _ in launches.runs) * 1e3, errors


def run_loop(wl, ops, seconds: float, tracer, speed, launches, log) -> dict:
    """Closed loop over whole passes of `ops`; returns per-op records and per-pass counts.

    A pass is never cut short, and another starts only while the passes so
    far plus one more of their mean length fit in `seconds`, so every run
    times whole passes over the same instances, whatever the host's or the
    code's speed.
    """
    from workloads import Outcome
    records, first, pass_counts = [], {}, []
    busy = 0.0
    while not pass_counts or busy * (1 + 1 / len(pass_counts)) <= seconds:
        before = Counter(tracer.counts)
        for op in ops:
            tracer.op = len(records)
            tracer.active = tracer.installed
            t0 = perf_counter()
            try:
                result, error = wl.run(op), None
            except Exception as exc:  # an op that raises is a failed op, not a crash
                result, error = None, f"raised {type(exc).__name__}: {exc}"
            t1 = perf_counter()
            tracer.active = False
            busy += t1 - t0
            if error is None:
                try:
                    outcome = wl.check(op, result)
                except Exception as exc:
                    outcome = Outcome(error=f"gate raised {type(exc).__name__}: {exc}")
            else:
                outcome = Outcome(error=error)
            if outcome.error is None:
                seen = first.setdefault(op.index, outcome.fingerprint)
                if seen != outcome.fingerprint:
                    outcome.error = "result differs from the first run of the same op"
            if outcome.error:
                log(f"FAILED op {op.index} ({op.label}): {outcome.error}")
            if tracer.installed:
                tracer.counts["serialize.bytes_out"] += outcome.bytes_out
            records.append(Record(op, outcome, t0, t1))
            if speed.due():
                speed.probe()
            if launches.due(busy):
                launches.launch()
        pass_counts.append(Counter(tracer.counts) - before)
    launches.finish()
    speed.probe()
    for r in records:
        r.scaled_s = speed.scale(r.raw_s, r.t0, r.t1)
    return {"records": records, "pass_counts": pass_counts}


def quality(records) -> dict:
    widths = [r.outcome.width_ratio for r in records if r.outcome.width_ratio is not None]
    return {
        "unresolved_frac": sum(r.outcome.unresolved for r in records) / len(records),
        "error_frac": sum(r.outcome.error is not None for r in records) / len(records),
        "norm_width_ratio": (math.exp(sum(map(math.log, widths)) / len(widths))
                             if widths else 1.0),
    }


def timing(records, attr: str) -> dict:
    times = [getattr(r, attr) for r in records]
    return {"op_p50_ms": statistics.median(times) * 1e3, "ops_per_s": len(times) / sum(times)}


def per_layer(tracer, loop, n_ops: int, import_value: float) -> dict:
    records, pass_counts = loop["records"], loop["pass_counts"]
    passes = len(pass_counts)
    counts = pass_counts[0]
    factor = {i: r.scaled_s / r.raw_s for i, r in enumerate(records)}
    summary = tracer.summary({i: r.raw_s for i, r in enumerate(records)}, factor)
    busy = summary["busy_s"]

    def b(name):
        return busy.get(name, 0.0) / passes

    calls = counts["realize.agler_decompose.calls"]
    decided = counts["realize.status.feasible"] + counts["realize.status.infeasible"]
    iterations = tracer.counts["realize.iterations"]
    outside_ms = [t * 1e3 for t in summary["outside_s"].values()]
    scaled_total = sum(r.scaled_s for r in records)
    traced = timing(records, "scaled_s")
    metrics = {
        ("realize.agler_decompose.calls", "count"): calls,
        ("realize.agler_decompose.busy_s", "s"): b("realize.agler_decompose"),
        ("realize.iterations", "count"): counts["realize.iterations"],
        ("realize.us_per_iter", "us"): (busy.get("realize.agler_decompose", 0.0) * 1e6
                                        / iterations if iterations else 0.0),
        ("realize.decided_ratio", "ratio"): decided / calls if calls else 0.0,
        ("realize.schur_agler_norm.calls", "count"): counts["realize.schur_agler_norm.calls"],
        ("realize.schur_agler_norm.busy_s", "s"): b("realize.schur_agler_norm"),
        ("realize.schur_agler_norm.probes", "count"): counts["realize.schur_agler_norm.probes"],
        ("realize.validate.busy_s", "s"): b("realize.validate"),
        ("realize.lurking_isometry.busy_s", "s"): b("realize.lurking_isometry"),
        ("realize.eval_transfer.calls", "count"): counts["realize.eval_transfer.calls"],
        ("realize.eval_transfer.busy_s", "s"): b("realize.eval_transfer"),
        ("pick.pick_feasible.calls", "count"): counts["pick.pick_feasible.calls"],
        ("pick.pick_feasible.busy_s", "s"): b("pick.pick_feasible"),
        ("pick.iterations", "count"): counts["pick.iterations"],
        ("pick.pick_solve.busy_s", "s"): b("pick.pick_solve"),
        ("kernels.is_admissible.busy_s", "s"): b("kernels.is_admissible"),
        ("kernels.psd_check.busy_s", "s"): b("kernels.psd_check"),
        ("kernels.PointSample.busy_s", "s"): b("kernels.PointSample"),
        ("opmodel.eval_colligation_at_tuple.busy_s", "s"): b("opmodel.eval_colligation_at_tuple"),
        ("opmodel.is_brehmer.busy_s", "s"): b("opmodel.is_brehmer"),
        ("opmodel.commutant_dimension.busy_s", "s"): b("opmodel.commutant_dimension"),
        ("serialize.parse.busy_s", "s"): b("serialize.parse"),
        ("serialize.emit.busy_s", "s"): b("serialize.emit"),
        ("serialize.write_atomic.busy_s", "s"): b("serialize.write_atomic"),
        ("serialize.bytes_in", "bytes"): counts["serialize.bytes_in"],
        ("serialize.bytes_out", "bytes"): counts["serialize.bytes_out"],
        ("cli.import_ms", "ms"): import_value,
        ("cli.main.self_s", "s"): b("cli.main"),
        ("trace.op_p50_ms", "ms"): traced["op_p50_ms"],
        ("trace.ops_per_s", "1/s"): traced["ops_per_s"],
        ("trace.outside_ms", "ms"): statistics.median(outside_ms),
        ("trace.outside_share", "ratio"): sum(outside_ms) / 1e3 / scaled_total,
        ("trace.overhead_share", "ratio"): (len(tracer.spans) * tracer.span_cost_s()
                                            / sum(r.raw_s for r in records)),
    }
    # the first n_ops records are the first pass
    metrics.update({(k, "ratio"): v for k, v in quality(records[:n_ops]).items()})
    return metrics


def main(argv=None) -> int:
    env.pin_threads()
    env.use_checkout_source()
    args = parse_args(argv)
    import aglerlab.cli  # noqa: F401
    from hostspeed import REFERENCE_S, HostSpeed
    from tracer import Tracer
    from workloads import WORKLOADS
    t_imported = perf_counter()
    speed = HostSpeed()
    speed.probe()
    speed.probe()

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    wl = WORKLOADS[args.workload]()
    env.OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    workdir = env.OUT / f"{stem}-pid{os.getpid()}"
    setup_raw, setup_scaled = [], []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            ops = wl.setup(args.seed, workdir)
            t1 = perf_counter()
            speed.probe()
            setup_raw.append(t1 - t0)
            setup_scaled.append(speed.scale(t1 - t0, t0, t1))
        tracer = Tracer()
        if args.trace:
            tracer.install()
        launches = (Launches(IMPORT_TIME, args.seconds) if args.trace
                    else Launches(COLD_START, args.seconds, reference=True))
        try:
            loop = run_loop(wl, ops, args.seconds, tracer, speed, launches, log)
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    records = loop["records"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    import_raw = t_imported - T_START
    raw = {"setup_s": import_raw + statistics.median(setup_raw), **timing(records, "raw_s"),
           "import_s": import_raw, "setup_repeats_s": setup_raw}

    if args.trace:
        value, sub_errors = import_ms(launches)
        metrics = per_layer(tracer, loop, len(ops), value)
        if any(c != loop["pass_counts"][0] for c in loop["pass_counts"]):
            sub_errors.append("per-pass counts differ between passes")
        tracer.dump(env.OUT / f"trace-{stem}.json")
    else:
        value, raw["cold_start_ms"], sub_errors = cold_start(launches)
        scaled = timing(records, "scaled_s")
        metrics = {
            ("setup_s", "s"): (speed.scale(import_raw, T_START, t_imported)
                               + statistics.median(setup_scaled)),
            ("op_p50_ms", "ms"): scaled["op_p50_ms"],
            ("ops_per_s", "1/s"): scaled["ops_per_s"],
            ("cold_start_ms", "ms"): value,
            ("peak_rss_mb", "MB"): peak_rss_mb,
        }
    for err in sub_errors:
        log(f"FAILED: {err}")

    failed = sum(r.outcome.error is not None for r in records) + len(sub_errors)
    manifest = [op.manifest for op in ops]
    manifest_sha = hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env.describe(),
              "manifest_sha256": manifest_sha, "manifest": manifest,
              "raw": raw, "host_kernel_s": speed.samples,
              "ops": [{"op": r.op.index, "raw_ms": r.raw_s * 1e3, "ms": r.scaled_s * 1e3,
                       "unresolved": r.outcome.unresolved, "error": r.outcome.error,
                       "fingerprint": repr(r.outcome.fingerprint)} for r in records],
              "metrics": {k: {"value": v, "unit": u} for (k, u), v in metrics.items()}}
    with open(env.OUT / f"result-{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    kernel_ms = statistics.median(s for _, s in speed.samples) * 1e3
    print(f"# workload {wl.name} seed {args.seed} trace {args.trace} "
          f"manifest {manifest_sha[:16]}")
    print("# " + json.dumps(record["environment"]))
    print(f"# {len(records)} ops, {len(loop['pass_counts'])} whole passes; host kernel "
          f"{kernel_ms:.3f} ms (reference {REFERENCE_S * 1e3:.3f} ms)")
    print("# raw " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()
                               if k in ("setup_s", "op_p50_ms", "ops_per_s", "cold_start_ms")))
    if not args.trace:
        for name, v in quality(records).items():
            print(f"# {name:40s} {v:.6g} ratio")
    for (name, unit), v in metrics.items():
        print(f"{name:42s} {v:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": len(records) + SUBPROCESS_RUNS,
                      "failed": failed,
                      "metrics": {name: {"value": v, "unit": unit}
                                  for (name, unit), v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
