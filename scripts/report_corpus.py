"""Write a fixed corpus of CLI documents into a directory, together with
every report, exit code, stdout and stderr that `agler-lab` gives on them.

Two trees agree byte for byte when `diff -r` finds nothing between their
corpus directories:

    PYTHONPATH=src python scripts/report_corpus.py --out /tmp/corpus-new
    PYTHONPATH=/path/to/other/src python scripts/report_corpus.py --out /tmp/corpus-old
    diff -r /tmp/corpus-old /tmp/corpus-new

Where a change moves floats by rounding only, scripts/corpus_diff.py checks
that everything else agrees and prints, field by field, how many floats
moved and by how much at most:

    python scripts/corpus_diff.py /tmp/corpus-old /tmp/corpus-new

The package is whichever `aglerlab` the interpreter imports, so the same
script runs against any tree.  The corpus:
- the cli-batch documents of perfbench/workloads.py for seeds 101 and 102,
  and seed 1909's op 12, a decompose whose witness validates while its
  certificate holds only within feas_tol;
- realize, pick and eval documents on classical(2), standard_ample(2) and
  standard_nearly_ample(3,0,1) at N in {4, 5, 8}, m in {1, 2} and
  c in {0.95, 1, 1.2}, plus eval documents with repeated, boundary,
  wrong-dimension, empty, nested and one-variable points;
- aux documents in raw, extended and verify mode, printed to stdout, with
  extended ones at d = 2, N = 4 and at d = 3, N in {5, 8};
- norm at c on standard_ample(2) and classical(2), c in {0.9, 1.3};
- norm brackets at tol 1e-4 and tol 0 on classical(2) at N in {4, 8} and
  standard_nearly_ample(3,0,1) at N = 4;
- norm brackets at tol 1e-4 under the norm-bracket workload's max_iter
  on three of its ops whose solves end short of tol and on five whose first
  certificate within tol fails at the solver's own bound;
- decompose, realize, norm and pick with $.solver setting feas_tol and
  max_iter, max_iter also at 10^400, and one decompose document read from
  stdin and reported to stdout;
- constant colligations (state space E = 0) through eval and vn, and
  check-kernel on an indefinite kernel;
- malformed documents: missing points or phi, mistyped c or tol, preorderings
  of the wrong dimension, solver fields out of range, the solver fields seed,
  stall_window and stall_rtol, which are unknown, NaN, Infinity, 1e999 and
  integers of 401 digits where a number goes, a point written
  without its list, Pick data sized for the wrong node count, negative
  and zero tolerances, a boolean in phi, a boolean, a fraction, a string and
  an integer of 401 digits in a preordering, preordering elements of total
  degree 10^5 and elements whose defect overflows, a string contractive flag on a
  colligation, colligation partitions whose multi-indices differ in length
  or whose multiplicities are negative, colligations of finite entries
  whose U*U, or only the norm of U*U - 1, overflows, phi, c and Pick data a
  of 1e308, whose terms of the solver's target overflow, check-kernel and
  brehmer tol and realize feas_tol of 1e308, kernel parts of -1e308, points of
  dimension 0, and a 1 x 2-valued phi through
  norm, alone, with c and identically zero;
- command lines that argparse refuses: the removed flags --feas-tol,
  --max-iter and --seed, an unknown command and an unknown flag;
- an --input that does not exist and one that is a directory, and an --output
  in a directory that does not exist and one that is a directory.
Every command runs in-process through `aglerlab.cli.main`, with the output
directory as working directory so that no report holds an absolute path.
An exception or SystemExit that escapes `main` is recorded as its own outcome.
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
from aglerlab.kernels import (HermitianKernel, PointSample, ones_kernel,  # noqa: E402
                              szego_kernel)
from aglerlab.preorder import classical, standard_ample, standard_nearly_ample  # noqa: E402
from aglerlab.realize import Colligation, FunctionSample  # noqa: E402
from aglerlab.sampling import (random_classical_colligation, random_points,  # noqa: E402
                               random_transfer_sample)
from aglerlab.serialize import (array_to_json, colligation_to_json,  # noqa: E402
                                function_sample_to_json, kernel_to_json, points_to_json,
                                dumps, preordering_to_json, write_atomic)

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

    def run(self, name: str, argv: list[str], stdin: str = "") -> None:
        """One in-process CLI call; its exit code, stdout and stderr go to runs/."""
        out, err = io.StringIO(), io.StringIO()
        sys.stdin, real_stdin = io.StringIO(stdin), sys.stdin
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except (Exception, SystemExit) as exc:  # recorded, so that the corpus run goes on
                code = f"raised {type(exc).__name__}: {exc}"
            finally:
                sys.stdin = real_stdin
        self.exits[code] += 1
        Path(f"runs/{name}.txt").write_text(
            f"argv: {' '.join(argv)}\nexit: {code}\n--- stdout\n{out.getvalue()}"
            f"--- stderr\n{err.getvalue()}")

    def doc(self, name: str, command: list[str], doc: dict, to_stdout: bool = False,
            replace: tuple[str, str] | None = None):
        """Write doc, with the text `replace[0]` turned into `replace[1]` where
        given (the way to spell NaN or 1e999), and run command on it."""
        path = f"docs/{name}.json"
        if replace:
            Path(path).write_text(dumps(doc).replace(*replace) + "\n")
        else:
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


def witness_outranks(corpus: Corpus) -> None:
    """cli-batch seed 1909, op 12: the Szego Gamma's least eigenvalue is -2.2e-8,
    within feas_tol, and the witness from its eigenvector validates."""
    rng = np.random.default_rng(1909)
    for N, m in ((16, 1), (16, 2), (32, 1)):
        phi, _ = random_transfer_sample(rng, N, 2, m)
    corpus.doc("decompose-ample-witness-within-tol", ["decompose"],
               {**function_sample_to_json(phi), "preordering": [[1, 1]],
                "c": float.fromhex("0x1.fe038981a87fcp-1")})


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
    rng = np.random.default_rng(31)
    for N in (5, 8):
        s = random_points(rng, N, 3)
        for lam in ([1, 1, 1], [1, 0, 1]):
            corpus.doc(f"aux-extended-d3-N{N}-{''.join(map(str, lam))}", ["aux"],
                       {"points": points_to_json(s), "lambda": lam, "mode": "extended",
                        "preordering": [[1, 1, 1]]}, to_stdout=True)
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
        corpus.doc(f"malformed-{command}-tol-negative", [command], {**doc, "tol": -1})
        corpus.doc(f"{command}-tol-zero", [command], {**doc, "tol": 0})
    # a preordering entry of 401 digits is refused with its field
    huge = "1" + "0" * 400
    for command in ("check-kernel", "brehmer"):
        pre = others[command]["preordering"]
        text = dumps([[int(huge), *pre[0][1:]], *pre[1:]])
        corpus.doc(f"malformed-{command}-preordering-huge-int", [command],
                   {**others[command], "preordering": "pre"}, replace=('"pre"', text))
        # an element of total degree past 1023 is refused with its index
        corpus.doc(f"malformed-{command}-preordering-degree", [command],
                   {**others[command], "preordering": [[10 ** 5, *pre[0][1:]], *pre[1:]]})
    # and so is an element whose defect overflows: 3^1000 for T = 2, and
    # 1.25^1000 times the 1e300 entries of a kernel on the points 0.5 and -0.5
    corpus.doc("malformed-brehmer-defect-overflow", ["brehmer"],
               {"tuple": {"matrices": [[[[2.0, 0.0]]]]}, "preordering": [[1], [1000]]})
    corpus.doc("malformed-check-kernel-defect-overflow", ["check-kernel"],
               {"kernel": kernel_to_json(HermitianKernel(PointSample(np.array([[0.5], [-0.5]])),
                                                         1e300 * np.ones((2, 2)))),
                "preordering": [[1000]]})
    # a finite field whose term of the solver's target overflows is refused
    # with its path before the solve
    big = json.loads(dumps(base["phi"]))
    big[0][0][0][0] = 1e308
    for command in ("decompose", "realize", "norm"):
        corpus.doc(f"malformed-{command}-phi-overflow", [command], {**base, "phi": big})
    corpus.doc("malformed-norm-c-overflow", ["norm"], {**base, "c": 1e308})
    corpus.doc("malformed-pick-a-overflow", ["pick"],
               {"points": base["points"], "a": big, "b": base["phi"], "preordering": [[1, 1]]})
    # a relative tolerance above 1, and a kernel part above max float / (2 N m),
    # are refused by their fields before the arithmetic on them overflows
    for command in ("check-kernel", "brehmer"):
        corpus.doc(f"malformed-{command}-tol-overflow", [command],
                   {**others[command], "tol": 1e308})
    corpus.doc("malformed-realize-feas-tol-overflow", ["realize"],
               {**base, "solver": {"feas_tol": 1e308}})
    for part in (0, 1):
        blocks = json.loads(dumps(kernel["blocks"]))
        blocks[2][2][0][0][part] = -1e308
        corpus.doc(f"malformed-check-kernel-block-overflow-{('re', 'im')[part]}",
                   ["check-kernel"], {**others["check-kernel"],
                                      "kernel": {**kernel, "blocks": blocks}})


def norm_at_c(corpus: Corpus) -> None:
    for pname, pre in (("ample2", standard_ample(2)), ("classical2", classical(2))):
        for m in WIDTHS:
            phi, _ = random_transfer_sample(np.random.default_rng([17, m]), 4, 2, m)
            for c in (0.9, 1.3):
                corpus.doc(f"norm-at-c-{pname}-N4m{m}-c{c}", ["norm"],
                           {**function_sample_to_json(phi),
                            "preordering": preordering_to_json(pre), "c": c, "tol": 1e-6})


def norm_brackets(corpus: Corpus) -> None:
    """Non-ample norms at tol 1e-4, which may stop the solve early, and at tol 0,
    which runs it to convergence."""
    for pname, pre, d, N, m in (("classical2", classical(2), 2, 4, 1),
                                ("classical2", classical(2), 2, 4, 2),
                                ("classical2", classical(2), 2, 8, 1),
                                ("nearly3", standard_nearly_ample(3, 0, 1), 3, 4, 1)):
        for k in range(2):
            phi, _ = random_transfer_sample(np.random.default_rng([37, N, m, k]), N, d, m)
            for tol in (1e-4, 0):
                corpus.doc(f"norm-{pname}-N{N}m{m}-{k}-tol{tol}", ["norm"],
                           {**function_sample_to_json(phi),
                            "preordering": preordering_to_json(pre), "tol": tol})


def short_solves(corpus: Corpus) -> None:
    """norm-bracket ops (seed, op) whose solves stop before their bounds meet,
    and five whose first certificate within tol fails at the solver's own
    bound, so that the solve goes on to a narrower bracket."""
    pre_json = preordering_to_json(classical(2))
    for seed, op in ((3, 40), (9, 58), (201, 52), (5, 43), (8, 13), (8, 43), (26, 43),
                     (28, 16)):
        phi, _ = random_transfer_sample(np.random.default_rng([seed, op]), 8, 2)
        corpus.doc(f"norm-bracket-{seed}-{op}", ["norm"],
                   {**function_sample_to_json(phi), "preordering": pre_json, "tol": 1e-4,
                    "solver": {"max_iter": 3000}})


def two_point(pre) -> dict:
    """A 2-point document on 0.5 phi that the default solver answers feasible."""
    phi, _ = random_transfer_sample(np.random.default_rng(19), 2, 2)
    return {**function_sample_to_json(FunctionSample(phi.sample, 0.5 * phi.values)),
            "preordering": preordering_to_json(pre)}


def solver_settings(corpus: Corpus) -> None:
    classical_doc, ample_doc = two_point(classical(2)), two_point(standard_ample(2))
    phi, _ = random_transfer_sample(np.random.default_rng(23), 4, 2)
    pick_doc = {"points": points_to_json(phi.sample),
                "a": array_to_json(np.ones((4, 1, 1))), "b": array_to_json(0.8 * phi.values),
                "preordering": preordering_to_json(classical(2))}
    runs = [("decompose", classical_doc, {"feas_tol": 1e-6}),
            ("decompose", classical_doc, {"max_iter": 3}),
            ("decompose", classical_doc, {"max_iter": 0}),
            ("realize", classical_doc, {"feas_tol": 1e-7, "max_iter": 100}),
            ("norm", {**classical_doc, "tol": 1e-4}, {"max_iter": 40}),
            ("norm", {**ample_doc, "c": 0.3}, {"feas_tol": 1e-9}),
            ("pick", pick_doc, {"feas_tol": 1e-7}),
            ("pick", pick_doc, {"max_iter": 2})]
    for i, (command, doc, solver) in enumerate(runs):
        corpus.doc(f"solver-{i}-{command}", [command], {**doc, "solver": solver})
    corpus.run("stdin-decompose", ["decompose"], dumps(classical_doc))


def edge_documents(corpus: Corpus) -> None:
    """A constant contractive colligation (E = 0, W = D everywhere) through eval
    and vn, and check-kernel on a kernel that is not even PSD."""
    col = colligation_to_json(Colligation(np.zeros((0, 0)), np.zeros((0, 1)),
                                          np.zeros((1, 0)), np.array([[0.5]]), (),
                                          contractive=True))
    corpus.doc("eval-empty-state", ["eval"],
               {"colligation": col, "points": [[[0.1, 0.0], [0.2, 0.0]]]})
    corpus.doc("vn-empty-state", ["vn"], {"colligation": col, "name": "kv"})
    s = PointSample(np.array([[0.5], [-0.5]], dtype=complex))
    corpus.doc("check-kernel-indefinite", ["check-kernel"],
               {"kernel": kernel_to_json(HermitianKernel(s, -ones_kernel(s).blocks)),
                "preordering": [[1]]})


def malformed_inputs(corpus: Corpus) -> None:
    """Documents and command lines that must exit 1 with the field, flag or
    path named."""
    classical_doc, ample_doc = two_point(classical(2)), two_point(standard_ample(2))
    long_pre = {"preordering": [[1, 1, 1]]}
    for command in ("decompose", "realize", "norm"):
        corpus.doc(f"bad-{command}-preordering-dim", [command], {**ample_doc, **long_pre})
        corpus.doc(f"bad-{command}-max-iter", [command],
                   {**classical_doc, "solver": {"max_iter": -1}})
        corpus.doc(f"bad-{command}-max-iter-flag", [command, "--max-iter", "-1"],
                   classical_doc)
    for window in (-3, 0):
        corpus.doc(f"bad-decompose-stall-window{window}", ["decompose"],
                   {**classical_doc, "solver": {"stall_window": window}})
    corpus.doc("bad-decompose-stall-rtol", ["decompose"],
               {**classical_doc, "solver": {"stall_rtol": -1.0}})
    for tol in ("-1", "0", "nan", "inf"):
        corpus.doc(f"bad-decompose-feas-tol-flag{tol}", ["decompose", "--feas-tol", tol],
                   classical_doc)
    corpus.doc("bad-decompose-ample-feas-tol-flag0", ["decompose", "--feas-tol", "0"],
               ample_doc)
    corpus.doc("bad-decompose-feas-tol", ["decompose"],
               {**classical_doc, "solver": {"feas_tol": -1}})
    for name, seed in (("int", 0), ("float", 1.5), ("bool", True), ("string", "abc")):
        corpus.doc(f"bad-decompose-seed-{name}", ["decompose"],
                   {**classical_doc, "solver": {"seed": seed}})
    # 12345.5 stands in for the token that dumps cannot write
    for token in ("NaN", "Infinity", "-Infinity", "1e999"):
        name = token.lower().replace("-", "minus")
        corpus.doc(f"bad-norm-tol-{name}", ["norm"], {**ample_doc, "tol": 12345.5},
                   replace=("12345.5", token))
        corpus.doc(f"bad-decompose-c-{name}", ["decompose"], {**ample_doc, "c": 12345.5},
                   replace=("12345.5", token))
    corpus.doc("bad-decompose-phi-1e999", ["decompose"], ample_doc,
               replace=(dumps(ample_doc["phi"][1][0][0][0]), "1e999"))
    corpus.doc("bad-decompose-point-nan", ["decompose"], ample_doc,
               replace=(dumps(ample_doc["points"][1][0][0]), "NaN"))
    # an integer that no float holds is refused where 1e999 is; max_iter takes it
    huge = "1" + "0" * 400
    for name, sign in (("huge-int", ""), ("minus-huge-int", "-")):
        corpus.doc(f"bad-norm-tol-{name}", ["norm"], {**ample_doc, "tol": 12345.5},
                   replace=("12345.5", sign + huge))
        corpus.doc(f"bad-decompose-c-{name}", ["decompose"], {**ample_doc, "c": 12345.5},
                   replace=("12345.5", sign + huge))
        corpus.doc(f"bad-decompose-phi-{name}", ["decompose"], ample_doc,
                   replace=(dumps(ample_doc["phi"][1][0][0][1]), sign + huge))
        corpus.doc(f"bad-decompose-point-{name}", ["decompose"], ample_doc,
                   replace=(dumps(ample_doc["points"][0][1][0]), sign + huge))
        corpus.doc(f"bad-decompose-feas-tol-{name}", ["decompose"],
                   {**ample_doc, "solver": {"feas_tol": 12345.5}},
                   replace=("12345.5", sign + huge))
    corpus.doc("decompose-max-iter-huge-int", ["decompose"],
               {**classical_doc, "solver": {"max_iter": 12345}}, replace=("12345", huge))
    phi, _ = random_transfer_sample(np.random.default_rng([1, 1]), 4, 2)
    corpus.doc("decompose-stall-fields", ["decompose"],
               {**function_sample_to_json(phi), "preordering": preordering_to_json(classical(2)),
                "c": 0.9, "solver": {"stall_window": 1, "stall_rtol": 0.5}})
    corpus.doc("bad-decompose-solver-rtol-nan", ["decompose"],
               {**ample_doc, "solver": {"stall_rtol": 12345.5}}, replace=("12345.5", "NaN"))
    rng = np.random.default_rng(29)
    _, col = random_transfer_sample(rng, 2, 2)
    corpus.doc("bad-eval-point-unlisted", ["eval"],
               {"colligation": colligation_to_json(col), "points": [0.1, 0.0]})
    one = [[[[1.0, 0.0]]]]
    # a boolean, fraction or string is never read as a number, an index or a flag
    corpus.doc("bad-decompose-phi-bool", ["decompose"],
               {**classical_doc, "phi": [[[[False, 0.0]]]] + list(classical_doc["phi"][1:])})
    for name, entry in (("bool", True), ("fraction", 1.5), ("string", "1")):
        corpus.doc(f"bad-decompose-preordering-{name}", ["decompose"],
                   {**classical_doc, "preordering": [[entry, 0], [0, 1]]})
    half = Colligation(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)),
                       np.array([[0.5]]), (), contractive=True)
    corpus.doc("bad-eval-contractive-string", ["eval"],
               {"colligation": {**colligation_to_json(half), "contractive": "false"},
                "points": [[[0.1, 0.0], [0.2, 0.0]]]})
    # partitions whose block shapes fit E but whose multi-indices differ in
    # length, or whose multiplicities are negative
    rng = np.random.default_rng(47)
    col2, col1 = (random_classical_colligation(rng, d, max_mult=1) for d in (2, 1))
    for name, col, part in (("mixed-length", col2, [([1, 0], 1), ([1], 1)]),
                            ("negative-mult", col1, [([1, 0], 2), ([0, 1], -1)]),
                            ("negative-mult-empty", half, [([1, 1], 1), ([0, 1], -2)])):
        corpus.doc(f"bad-eval-partition-{name}", ["eval"],
                   {"colligation": {**colligation_to_json(col), "partition": [
                       {"lambda": lam, "mult": mult} for lam, mult in part]},
                    "points": [[[0.1, 0.0], [0.2, 0.0]]]})
    big = [[[1e200, 0.0]]]
    corpus.doc("bad-eval-colligation-overflow", ["eval"],
               {"colligation": {"A": big, "B": big, "C": big, "D": [[[-1e200, 0.0]]],
                                "partition": [{"lambda": [1], "mult": 1}]},
                "points": [[[0.1, 0.0]]]})
    half = [[[0.5, 0.0]]]
    corpus.doc("bad-eval-colligation-norm-overflow", ["eval"],
               {"colligation": {"A": [[[1e308, 0.0]]], "B": half, "C": half, "D": half,
                                "partition": [{"lambda": [1], "mult": 1}]},
                "points": [[[0.1, 0.0]]]})
    for command in ("decompose", "aux"):
        corpus.doc(f"bad-{command}-points-d0", [command],
                   {"points": [[], []], "phi": [[[[0.5, 0.0]]], [[[0.5, 0.0]]]],
                    "preordering": [[1]], "lambda": [1]})
    phi, _ = random_transfer_sample(np.random.default_rng([41, 2]), 3, 2, 2)
    wide = FunctionSample(phi.sample, 0.5 * phi.values[:, :1, :])
    wide_doc = {**function_sample_to_json(wide), "preordering": preordering_to_json(classical(2))}
    corpus.doc("bad-norm-non-square", ["norm"], wide_doc)
    corpus.doc("bad-norm-non-square-c", ["norm"], {**wide_doc, "c": 1.0})
    corpus.doc("bad-norm-non-square-zero", ["norm"],
               {**wide_doc, **function_sample_to_json(FunctionSample(phi.sample,
                                                                     0 * wide.values))})
    corpus.doc("bad-pick-node-count", ["pick"],
               {"points": [[[0.0, 0.0]], [[0.5, 0.0]]], "a": one, "b": one,
                "preordering": [[1]]})
    for name, argv in (("max-iter-abc", ["decompose", "--max-iter", "abc"]),
                       ("unknown-command", ["bogus"]), ("unknown-flag", ["decompose", "--nope"])):
        corpus.run(f"usage-{name}", argv)
    corpus.run("input-missing", ["decompose", "--input", "no/such.json"])
    corpus.run("input-directory", ["decompose", "--input", "docs"])
    corpus.run("output-missing-dir", ["example", "kv", "--output", "no/such/dir/out.json"])
    corpus.run("output-directory", ["example", "kv", "--output", "reports"])


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
    witness_outranks(corpus)
    grid(corpus)
    eval_edges(corpus)
    aux(corpus)
    malformed(corpus)
    norm_at_c(corpus)
    norm_brackets(corpus)
    short_solves(corpus)
    solver_settings(corpus)
    edge_documents(corpus)
    malformed_inputs(corpus)
    tally = ", ".join(f"{n} x {code}" for code, n in sorted(corpus.exits.items(), key=str))
    Path("summary.txt").write_text(f"{sum(corpus.exits.values())} runs; exit codes: {tally}\n")
    print(f"{sum(corpus.exits.values())} runs in {out}; exit codes: {tally}")


if __name__ == "__main__":
    main()
