"""Write a fixed corpus of CLI documents into a directory, together with
every report, exit code, stdout and stderr that `agler-lab` gives on them.

Two trees agree byte for byte when `diff -r` finds nothing between their
corpus directories:

    PYTHONPATH=src python scripts/report_corpus.py --out /tmp/corpus-new
    PYTHONPATH=/path/to/other/src python scripts/report_corpus.py --out /tmp/corpus-old
    diff -r /tmp/corpus-old /tmp/corpus-new

The package is whichever `aglerlab` the interpreter imports, so the same
script runs against any tree.  The corpus:
- the cli-batch documents of perfbench/workloads.py for seeds 101 and 102;
- realize, pick and eval documents on classical(2), standard_ample(2) and
  standard_nearly_ample(3,0,1) at N in {4, 5, 8}, m in {1, 2} and
  c in {0.95, 1, 1.2}, plus eval documents with repeated, boundary,
  wrong-dimension, empty, nested and one-variable points;
- aux documents in raw, extended and verify mode, printed to stdout;
- malformed documents (missing points or phi, mistyped c or tol).
Every command runs in-process through `aglerlab.cli.main`, with the output
directory as working directory so that no report holds an absolute path.
"""
import argparse
import contextlib
import importlib.util
import io
import json
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if not importlib.util.find_spec("aglerlab"):
    sys.path.insert(0, str(ROOT / "src"))

from aglerlab import cli  # noqa: E402
from aglerlab.kernels import szego_kernel  # noqa: E402
from aglerlab.preorder import classical, standard_ample, standard_nearly_ample  # noqa: E402
from aglerlab.realize import FunctionSample  # noqa: E402
from aglerlab.sampling import random_points, random_transfer_sample  # noqa: E402
from aglerlab.serialize import (array_to_json, colligation_to_json,  # noqa: E402
                                function_sample_to_json, kernel_to_json, points_to_json,
                                preordering_to_json, write_atomic)

PREORDERINGS = (("classical2", classical(2), 2), ("ample2", standard_ample(2), 2),
                ("nearly3", standard_nearly_ample(3, 0, 1), 3))
SIZES = (4, 5, 8)
WIDTHS = (1, 2)
CS = (0.95, 1.0, 1.2)


class Corpus:
    def __init__(self):
        Path("docs").mkdir()
        Path("reports").mkdir()
        Path("runs").mkdir()
        self.exits = Counter()

    def run(self, name: str, argv: list[str]) -> None:
        """One in-process CLI call; its exit code, stdout and stderr go to runs/."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # recorded, so that the corpus run goes on
                code = f"raised {type(exc).__name__}: {exc}"
        self.exits[code] += 1
        Path(f"runs/{name}.txt").write_text(
            f"argv: {' '.join(argv)}\nexit: {code}\n--- stdout\n{out.getvalue()}"
            f"--- stderr\n{err.getvalue()}")

    def doc(self, name: str, command: list[str], doc: dict, to_stdout: bool = False):
        path = f"docs/{name}.json"
        write_atomic(path, doc)
        argv = command + ["--input", path]
        if not to_stdout:
            argv += ["--output", f"reports/{name}.json", "--quiet"]
        self.run(name, argv)


def cli_batch(corpus: Corpus, seed: int) -> None:
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses resolve annotations through it
    spec.loader.exec_module(workloads)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        ops = workloads.CliBatch().setup(seed, Path(f"cli-batch-{seed}"))
    for op in ops:
        corpus.run(f"cli-batch-{seed}-{op.index:02d}-{op.label}", op.payload["argv"])


def grid(corpus: Corpus) -> None:
    for k, (pname, pre, d) in enumerate(PREORDERINGS):
        pre_json = preordering_to_json(pre)
        for N in SIZES:
            for m in WIDTHS:
                rng = np.random.default_rng([k, N, m])
                phi, col = random_transfer_sample(rng, N, d, m)
                phi9 = FunctionSample(phi.sample, 0.9 * phi.values)
                held_out = random_points(rng, 3, d, rmax=0.999).points
                points = array_to_json(np.vstack([phi.sample.points, held_out]))
                a = array_to_json(np.tile(np.eye(m), (N, 1, 1)))
                for c in CS:
                    tag = f"{pname}-N{N}m{m}-c{c}"
                    corpus.doc(f"realize-{tag}", ["realize"],
                               {**function_sample_to_json(phi9), "preordering": pre_json,
                                "c": c})
                    corpus.doc(f"pick-{tag}", ["pick"],
                               {"points": points_to_json(phi.sample), "a": a,
                                "b": array_to_json(phi9.values / c), "preordering": pre_json})
                    # the realized colligation where there is one, else the generator's
                    report = Path(f"reports/realize-{tag}.json")
                    realized = json.loads(report.read_text()).get("colligation") \
                        if report.exists() else None
                    corpus.doc(f"eval-{tag}", ["eval"],
                               {"colligation": realized or colligation_to_json(col),
                                "points": points})


def eval_edges(corpus: Corpus) -> None:
    rng = np.random.default_rng(7)
    _, col = random_transfer_sample(rng, 2, 2, 2)
    coll = colligation_to_json(col)
    pts = random_points(rng, 3, 2).points
    cases = {
        "repeated": pts[[0, 1, 0, 0]],
        "boundary": np.vstack([pts, [[1.0, 0.0]]]),
        "dimension": pts[:, :1],
        "nested": pts[:, None, :],
    }
    for name, p in cases.items():
        corpus.doc(f"eval-edge-{name}", ["eval"],
                   {"colligation": coll, "points": array_to_json(p)})
    corpus.doc("eval-edge-empty", ["eval"], {"colligation": coll, "points": []})
    _, col1 = random_transfer_sample(rng, 2, 1)
    corpus.doc("eval-edge-one-variable", ["eval"],
               {"colligation": colligation_to_json(col1),
                "points": array_to_json(random_points(rng, 4, 1).points[:, 0])})


def aux(corpus: Corpus) -> None:
    rng = np.random.default_rng(11)
    s2, s3 = random_points(rng, 4, 2), random_points(rng, 4, 3)
    for name, s, lam in (("d2-11", s2, [1, 1]), ("d2-10", s2, [1, 0]), ("d3-101", s3, [1, 0, 1])):
        corpus.doc(f"aux-raw-{name}", ["aux"],
                   {"points": points_to_json(s), "lambda": lam, "mode": "raw"}, to_stdout=True)
    for lam in ([1, 1], [1, 0]):
        corpus.doc(f"aux-extended-{''.join(map(str, lam))}", ["aux"],
                   {"points": points_to_json(s2), "lambda": lam, "mode": "extended",
                    "preordering": [[1, 1]]}, to_stdout=True)
    corpus.doc("aux-verify", ["aux"],
               {"points": points_to_json(s2), "lambda": [1, 1], "mode": "verify",
                "kernel": kernel_to_json(szego_kernel(s2, (1, 1)))}, to_stdout=True)


def malformed(corpus: Corpus) -> None:
    phi, _ = random_transfer_sample(np.random.default_rng(13), 3, 2)
    base = {**function_sample_to_json(phi), "preordering": [[1, 1]]}
    kernel = kernel_to_json(szego_kernel(phi.sample, (1, 1)))
    for command in ("decompose", "realize", "norm"):
        for key in ("points", "phi"):
            corpus.doc(f"malformed-{command}-no-{key}", [command],
                       {k: v for k, v in base.items() if k != key})
        corpus.doc(f"malformed-{command}-c-true", [command], {**base, "c": True})
    others = {"norm": base, "check-kernel": {"kernel": kernel, "preordering": [[1, 1]]},
              "brehmer": {"name": "kv", "preordering": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}}
    for command, doc in others.items():
        corpus.doc(f"malformed-{command}-tol-false", [command], {**doc, "tol": False})
        corpus.doc(f"malformed-{command}-tol-string", [command], {**doc, "tol": "x"})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="new or empty directory for the corpus")
    out = Path(parser.parse_args().out)
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        parser.error(f"{out} is not empty")
    os.chdir(out)
    corpus = Corpus()
    for seed in (101, 102):
        cli_batch(corpus, seed)
    grid(corpus)
    eval_edges(corpus)
    aux(corpus)
    malformed(corpus)
    tally = ", ".join(f"{n} x {code}" for code, n in sorted(corpus.exits.items(), key=str))
    Path("summary.txt").write_text(f"{sum(corpus.exits.values())} runs; exit codes: {tally}\n")
    print(f"{sum(corpus.exits.values())} runs in {out}; exit codes: {tally}")


if __name__ == "__main__":
    main()
