"""Seeded workloads: instance generation, the timed op and its correctness gate.

Each workload turns a seed into a fixed list of ops (one pass).  `setup`
generates the instances and writes any documents; `run` is the timed call
into the package; `check` is the untimed correctness gate.  Every gate
re-validates at the op's own `feas_tol` and never loosens a tolerance.
"""
from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np


@dataclass
class Op:
    index: int
    label: str
    manifest: dict
    payload: dict = field(repr=False)


@dataclass
class Outcome:
    unresolved: bool = False
    error: str | None = None
    fingerprint: object = None  # must repeat exactly when the op is re-run
    width_ratio: float | None = None  # norm ops: max((c_hi - c_lo) / tol, 1)
    bytes_out: int = 0


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def target_blocks(values: np.ndarray, c: float) -> np.ndarray:
    """c^2 I - phi(x) phi(y)^* as (N, N, m, m) blocks, computed here."""
    N, m = values.shape[0], values.shape[1]
    R = np.tile(c * c * np.eye(m, dtype=complex), (N, N, 1, 1))
    return R - np.einsum("xij,ykj->xyik", values, values.conj())


def pick_blocks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a(x) a(y)^* - b(x) b(y)^* as (N, N, m, m) blocks, computed here."""
    return (np.einsum("xij,ykj->xyik", a, a.conj())
            - np.einsum("xij,ykj->xyik", b, b.conj()))


def sup_norm(values: np.ndarray) -> float:
    return max(float(np.linalg.norm(v, 2)) for v in values)


def certificate_errors(sample, pre, R, cert, feas_tol: float) -> list[str]:
    from aglerlab.realize import validate_certificate_target
    ok, resid, eig = validate_certificate_target(sample, pre, R, cert, feas_tol)
    return [] if ok else [f"certificate fails re-validation (residual {resid:.3e}, "
                          f"min eig {eig:.3e})"]


def witness_errors(sample, pre, R, kernel, feas_tol: float) -> list[str]:
    from aglerlab.realize import validate_witness_target
    if validate_witness_target(sample, pre, R, kernel, feas_tol) is None:
        return ["witness fails re-validation"]
    return []


def bracket_errors(c_lo: float, c_hi: float, sup: float) -> list[str]:
    if not (np.isfinite(c_lo) and np.isfinite(c_hi)):
        return [f"infinite bracket [{c_lo}, {c_hi}]"]
    errs = []
    if c_lo < sup:
        errs.append(f"c_lo {c_lo!r} below sup norm {sup!r}")
    if c_hi < c_lo:
        errs.append(f"c_hi {c_hi!r} below c_lo {c_lo!r}")
    return errs


def preordering_list(pre) -> list:
    return [list(lam) for lam in sorted(pre.elements)]


# ---------------------------------------------------------------------------
# norm-bracket


class NormBracket:
    """In-process `schur_agler_norm` at tol 1e-4 on random transfer samples.

    Ops cycle through classical(2) at N=4 and N=8 and
    standard_nearly_ample(3,0,1) at N=4, under the solver budget
    max_iter=3000, stall_rtol=1e-9.  Op i draws from default_rng([seed, i]).
    One pass (20 instances of each kind) takes about 30 s at reference speed.
    At max_iter=30000 an instance takes 1.5-8.4 s, so a run could hold only
    12-15 of them and which ones were drawn moved the run's figures by more
    than 25%; the smaller budget runs the same solver phases on 60.
    """

    name = "norm-bracket"
    ops_per_pass = 60
    tol = 1e-4
    kinds = (("classical(2)", 2, 4), ("classical(2)", 2, 8),
             ("standard_nearly_ample(3,0,1)", 3, 4))
    budget = {"max_iter": 3_000, "stall_rtol": 1e-9}

    def setup(self, seed: int, workdir: Path) -> list[Op]:
        from aglerlab.preorder import classical, standard_nearly_ample
        from aglerlab.realize import SolverParams, agler_decompose
        from aglerlab.sampling import random_transfer_sample
        from aglerlab.serialize import dumps, function_sample_to_json

        ops = []
        for i in range(self.ops_per_pass):
            label, d, N = self.kinds[i % len(self.kinds)]
            pre = classical(2) if d == 2 else standard_nearly_ample(3, 0, 1)
            phi, _ = random_transfer_sample(np.random.default_rng([seed, i]), N, d)
            params = SolverParams(**self.budget)
            doc = function_sample_to_json(phi)
            doc.update({"preordering": preordering_list(pre), "tol": self.tol,
                        "solver": {"feas_tol": params.feas_tol, **self.budget}})
            manifest = {"op": i, "command": "norm", "preordering": label, "N": N, "d": d,
                        "m": phi.m_out, "c": None, "tol": self.tol, "solver": doc["solver"],
                        "sha256": _sha256(dumps(doc))}
            ops.append(Op(i, f"norm {label} N={N}", manifest,
                          {"phi": phi, "pre": pre, "params": params}))
        # warm-up: one short feasible solve through the iterative path
        first = ops[0].payload
        agler_decompose(first["phi"], first["pre"], 2.0, SolverParams(**self.budget))
        return ops

    def run(self, op: Op):
        from aglerlab.realize import schur_agler_norm
        p = op.payload
        return schur_agler_norm(p["phi"], p["pre"], self.tol, p["params"])

    def check(self, op: Op, res) -> Outcome:
        p = op.payload
        phi, pre, feas_tol = p["phi"], p["pre"], p["params"].feas_tol
        errs = bracket_errors(res.c_lo, res.c_hi, sup_norm(phi.values))
        if res.certificate is not None:
            if res.certificate.c != res.c_hi:
                errs.append("certificate is not at c_hi")
            errs += certificate_errors(phi.sample, pre, target_blocks(phi.values, res.c_hi),
                                       res.certificate, feas_tol)
        if res.witness is not None:
            errs += witness_errors(phi.sample, pre, target_blocks(phi.values, res.c_lo),
                                   res.witness.kernel, feas_tol)
        width = max((res.c_hi - res.c_lo) / self.tol, 1.0) if not errs else None
        return Outcome(unresolved=not res.resolved, error="; ".join(errs) or None,
                       fingerprint=(res.c_lo, res.c_hi, res.resolved, res.evaluations),
                       width_ratio=width)


# ---------------------------------------------------------------------------
# cli-batch


EXIT_FOR_STATUS = {"feasible": 0, "infeasible": 2, "unresolved": 3}
OPPOSITE = {"feasible": "infeasible", "infeasible": "feasible"}


def ample_threshold(phi, pre, steps: int = 50) -> float:
    """Least c passing `ample_membership`, by bisection (the known answer)."""
    from aglerlab.realize import ample_membership
    lo, hi = phi.sup_norm(), 2.0
    while not ample_membership(phi, pre, hi)[0]:
        hi *= 2
    for _ in range(steps):
        mid = (lo + hi) / 2
        if ample_membership(phi, pre, mid)[0]:
            hi = mid
        else:
            lo = mid
    return hi


class CliBatch:
    """In-process `aglerlab.cli.main` over documents written during set-up.

    decompose (both sides of the known threshold c*), realize, norm and pick
    on standard_ample(2) at N in {16, 32, 48, 64} and m in {1, 2}; the N=16, m=1
    decompose pair again with force_iterative, so the iterative solver meets
    a known answer too; pick on classical(2) at N=4, whose known answer is
    feasible; eval of a realized colligation at 64 held-out points;
    check-kernel at N=16 and N=32; vn, brehmer and example on kv, gkvw and parrott.
    Every report goes to a file.
    """

    name = "cli-batch"
    # N=48 fills the gap between the N<=32 and N=64 op times, so the median
    # op lies among many ops of similar cost instead of between two clusters
    sizes = ((16, 1), (16, 2), (32, 1), (32, 2), (48, 1), (48, 2), (64, 1), (64, 2))
    margin = 1e-3  # known-answer decompose ops sit at c*(1 -/+ margin)

    def setup(self, seed: int, workdir: Path) -> list[Op]:
        from aglerlab import cli
        from aglerlab.kernels import schur_product, szego_kernel
        from aglerlab.preorder import classical, standard_ample
        from aglerlab.realize import (FunctionSample, SolverParams, agler_decompose,
                                      lurking_isometry)
        from aglerlab.sampling import (random_classical_colligation, random_points,
                                       random_psd_kernel, random_transfer_sample)
        from aglerlab.serialize import (array_to_json, colligation_to_json, dumps,
                                        function_sample_to_json, kernel_to_json,
                                        write_atomic)

        rng = np.random.default_rng(seed)
        shutil.rmtree(workdir, ignore_errors=True)
        indir, outdir = workdir / "in", workdir / "out"
        indir.mkdir(parents=True, exist_ok=True)
        outdir.mkdir(parents=True, exist_ok=True)
        pre = standard_ample(2)
        pre_json = preordering_list(pre)
        feas_tol = SolverParams().feas_tol
        ops: list[Op] = []

        def add(label, argv, doc, info, payload):
            i = len(ops)
            text = ""
            if doc is not None:
                text = dumps(doc)
                inp = indir / f"{i:02d}-{label}.json"
                write_atomic(str(inp), doc)
                argv = argv + ["--input", str(inp)]
            out = outdir / f"{i:02d}-{label}.json"
            manifest = {"op": i, "command": argv[0], **info, "sha256": _sha256(text)}
            ops.append(Op(i, label, manifest,
                          {"argv": argv + ["--output", str(out), "--quiet"], "out": out,
                           **payload}))

        colligation_doc, samples = None, {}
        for N, m in self.sizes:
            phi, _ = random_transfer_sample(rng, N, 2, m)
            cstar = ample_threshold(phi, pre)
            base = {**function_sample_to_json(phi), "preordering": pre_json}
            info = {"preordering": "standard_ample(2)", "N": N, "d": 2, "m": m,
                    "tol": None, "solver": {"feas_tol": feas_tol}}
            common = {"phi": phi, "pre": pre, "feas_tol": feas_tol}
            tag = f"N{N}m{m}"
            for side, c in (("infeasible", cstar * (1 - self.margin)),
                            ("feasible", cstar * (1 + self.margin))):
                add(f"decompose-{side}-{tag}", ["decompose"], {**base, "c": c},
                    {**info, "c": c}, {**common, "c": c, "expect": side})
                if (N, m) == self.sizes[0]:
                    solver = {"force_iterative": True}
                    add(f"decompose-iterative-{side}-{tag}", ["decompose"],
                        {**base, "c": c, "solver": solver},
                        {**info, "c": c, "solver": {**info["solver"], **solver}},
                        {**common, "c": c, "expect": side})
            # realize and pick at c = 1, the CLI default, on 0.9 phi: c* of phi
            # itself sits at 1, so there the status at c = 1, and with it the
            # op's path and cost, flips from seed to seed
            phi9 = FunctionSample(phi.sample, 0.9 * phi.values)
            info9 = {**info, "c": 1.0, "phi_scale": 0.9}
            add(f"realize-{tag}", ["realize"],
                {**function_sample_to_json(phi9), "preordering": pre_json, "c": 1.0}, info9,
                {**common, "phi": phi9, "c": 1.0, "expect": "feasible"})
            add(f"norm-{tag}", ["norm"], {**base, "tol": 1e-6},
                {**info, "c": None, "tol": 1e-6}, {**common, "tol": 1e-6})
            a = np.tile(np.eye(m, dtype=complex), (N, 1, 1))
            add(f"pick-{tag}", ["pick"],
                {"points": base["points"], "a": array_to_json(a),
                 "b": array_to_json(phi9.values), "preordering": pre_json},
                {**info9, "c": None},
                {**common, "a": a, "b": phi9.values, "expect": "feasible"})
            if (N, m) == (32, 2):
                res = agler_decompose(phi9, pre, 1.0)
                colligation_doc = colligation_to_json(lurking_isometry(res.certificate, phi9))
            if m == 1:
                samples[N] = phi.sample

        # b = 0.8 phi with phi a classical transfer function, so the Pick
        # problem on classical(2) is feasible (at b = phi the solver needed up
        # to 1.4 s); its own generator leaves the other instances unchanged
        phi4, _ = random_transfer_sample(np.random.default_rng([seed, 1]), 4, 2)
        a4, b4 = np.ones((4, 1, 1), dtype=complex), 0.8 * phi4.values
        add("pick-classical-N4m1", ["pick"],
            {"points": function_sample_to_json(phi4)["points"], "a": array_to_json(a4),
             "b": array_to_json(b4), "preordering": preordering_list(classical(2))},
            {"preordering": "classical(2)", "N": 4, "d": 2, "m": 1, "c": None, "tol": None,
             "solver": {"feas_tol": feas_tol}},
            {"phi": phi4, "pre": classical(2), "feas_tol": feas_tol, "a": a4, "b": b4,
             "expect": "feasible"})

        held_out = random_points(rng, 64, 2).points
        add("eval", ["eval"], {"colligation": colligation_doc, "points": array_to_json(held_out)},
            {"preordering": "standard_ample(2)", "N": 64, "d": 2, "m": 2}, {"n_points": 64})
        for N in (16, 32):
            K = schur_product(szego_kernel(samples[N], (1, 1)), random_psd_kernel(rng, samples[N]))
            add(f"check-kernel-N{N}", ["check-kernel"],
                {"kernel": kernel_to_json(K), "preordering": pre_json},
                {"preordering": "standard_ample(2)", "N": N, "d": 2, "m": 1}, {})
        col = colligation_to_json(random_classical_colligation(rng, 3))
        pre3 = preordering_list(classical(3))
        for name in ("kv", "gkvw", "parrott"):  # all three are commuting triples
            info = {"preordering": "classical(3)", "d": 3, "tuple": name}
            add(f"vn-{name}", ["vn"], {"colligation": col, "name": name}, info, {})
            add(f"brehmer-{name}", ["brehmer"], {"name": name, "preordering": pre3}, info, {})
            add(f"example-{name}", ["example", name], None, info, {})

        # warm-up: the smallest decompose and one example, to a throwaway report
        warm = ["--output", str(workdir / "warm-up.json"), "--quiet"]
        cli.main(["decompose", "--input", str(indir / f"00-{ops[0].label}.json")] + warm)
        cli.main(["example", "kv"] + warm)
        return ops

    def run(self, op: Op) -> int:
        from aglerlab import cli
        return cli.main(op.payload["argv"])

    def check(self, op: Op, code: int) -> Outcome:
        p = op.payload
        raw = p["out"].read_bytes()
        if "first" not in p:
            errs, unresolved, width = self._check_report(
                op.manifest["command"], json.loads(raw), code, p)
            p["first"] = raw
            p["verdict"] = Outcome(unresolved=unresolved, error="; ".join(errs) or None,
                                   fingerprint=code, width_ratio=width, bytes_out=len(raw))
        verdict = replace(p["verdict"], fingerprint=code)
        if raw != p["first"]:
            verdict.error = "report differs from the first report for the same document"
        return verdict

    def _check_report(self, cmd: str, rep: dict, code: int, p: dict):
        from aglerlab.serialize import json_to_certificate, json_to_kernel
        errs: list[str] = []
        unresolved, width = False, None
        if cmd in ("decompose", "realize", "pick"):
            status = rep["status"]
            unresolved = status == "unresolved"
            if code != EXIT_FOR_STATUS[status]:
                errs.append(f"exit code {code} disagrees with status {status}")
            if p["expect"] and status == OPPOSITE[p["expect"]]:
                errs.append(f"known answer {p['expect']}, got {status}")
            phi = p["phi"]
            sample = phi.sample
            if cmd == "pick":
                R, c = pick_blocks(p["a"], p["b"]), 1.0
            else:
                R, c = target_blocks(phi.values, p["c"]), p["c"]
            if status == "feasible":
                cert = json_to_certificate(rep["certificate"], c)
                errs += certificate_errors(sample, p["pre"], R, cert, p["feas_tol"])
                if cmd != "decompose" and "colligation" not in rep:
                    errs.append("feasible report carries no colligation")
            elif status == "infeasible":
                errs += witness_errors(sample, p["pre"], R, json_to_kernel(rep["witness"]),
                                       p["feas_tol"])
        elif cmd == "norm":
            phi = p["phi"]
            c_lo, c_hi = rep["c_lo"], rep["c_hi"]
            unresolved = not rep["resolved"]
            if code != (3 if unresolved else 0):
                errs.append(f"exit code {code} disagrees with resolved={rep['resolved']}")
            errs += bracket_errors(c_lo, c_hi, sup_norm(phi.values))
            if "certificate" in rep:
                cert = json_to_certificate(rep["certificate"], c_hi)
                errs += certificate_errors(phi.sample, p["pre"], target_blocks(phi.values, c_hi),
                                           cert, p["feas_tol"])
            if "witness" in rep:
                errs += witness_errors(phi.sample, p["pre"], target_blocks(phi.values, c_lo),
                                       json_to_kernel(rep["witness"]), p["feas_tol"])
            if not errs:
                width = max((c_hi - c_lo) / p["tol"], 1.0)
        else:
            if code != 0:
                errs.append(f"exit code {code}")
            if cmd == "eval" and len(rep["values"]) != p["n_points"]:
                errs.append(f"eval returned {len(rep['values'])} values")
        if rep.get("command") != cmd:
            errs.append(f"report command {rep.get('command')!r} is not {cmd!r}")
        return errs, unresolved, width


WORKLOADS = {w.name: w for w in (NormBracket, CliBatch)}
