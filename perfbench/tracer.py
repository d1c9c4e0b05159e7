"""Spans around the package's public functions, installed from outside.

The tracer rebinds each listed function, in every loaded `aglerlab` module
that holds it, to a wrapper that records a span: name, start, end, parent
span and op id.  Calls made inside the package go through module globals,
so nested calls are seen too.  Spans stay in memory until the run ends.
Nothing in the package changes; `uninstall()` puts the originals back.
"""
from __future__ import annotations

import functools
import json
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter


def _count_decompose(counts, args, kwargs, result):
    counts["realize.iterations"] += int(result.iterations)
    counts[f"realize.status.{result.status}"] += 1


def _count_norm(counts, args, kwargs, result):
    counts["realize.schur_agler_norm.probes"] += len(result.evaluations)


def _count_pick(counts, args, kwargs, result):
    counts["pick.iterations"] += int(result.iterations)


def _count_loads(counts, args, kwargs, result):
    counts["serialize.bytes_in"] += len(args[0])


# (module, attribute, span name, counter)
TARGETS = [
    ("aglerlab.realize", "agler_decompose", "realize.agler_decompose", _count_decompose),
    ("aglerlab.realize", "schur_agler_norm", "realize.schur_agler_norm", _count_norm),
    ("aglerlab.realize", "validate_certificate_target", "realize.validate", None),
    ("aglerlab.realize", "validate_certificate", "realize.validate", None),
    ("aglerlab.realize", "validate_witness_target", "realize.validate", None),
    ("aglerlab.realize", "validate_witness", "realize.validate", None),
    ("aglerlab.realize", "lurking_isometry", "realize.lurking_isometry", None),
    ("aglerlab.realize", "eval_transfer", "realize.eval_transfer", None),
    ("aglerlab.pick", "pick_feasible", "pick.pick_feasible", _count_pick),
    ("aglerlab.pick", "pick_solve", "pick.pick_solve", None),
    ("aglerlab.kernels", "is_admissible", "kernels.is_admissible", None),
    ("aglerlab.kernels", "psd_check", "kernels.psd_check", None),
    ("aglerlab.opmodel", "eval_colligation_at_tuple", "opmodel.eval_colligation_at_tuple", None),
    ("aglerlab.opmodel", "is_brehmer", "opmodel.is_brehmer", None),
    ("aglerlab.opmodel", "commutant_dimension", "opmodel.commutant_dimension", None),
    ("aglerlab.serialize", "json_to_function_sample", "serialize.parse", None),
    ("aglerlab.serialize", "json_to_preordering", "serialize.parse", None),
    ("aglerlab.serialize", "json_to_points", "serialize.parse", None),
    ("aglerlab.serialize", "json_to_array", "serialize.parse", None),
    ("aglerlab.serialize", "json_to_kernel", "serialize.parse", None),
    ("aglerlab.serialize", "json_to_colligation", "serialize.parse", None),
    ("aglerlab.serialize", "json_to_tuple", "serialize.parse", None),
    # array_to_json recurses through its module global once per element, so
    # it is covered only where a listed emitter calls it
    ("aglerlab.serialize", "report", "serialize.emit", None),
    ("aglerlab.serialize", "dumps", "serialize.emit", None),
    ("aglerlab.serialize", "result_to_json", "serialize.emit", None),
    ("aglerlab.serialize", "certificate_to_json", "serialize.emit", None),
    ("aglerlab.serialize", "kernel_to_json", "serialize.emit", None),
    ("aglerlab.serialize", "colligation_to_json", "serialize.emit", None),
    ("aglerlab.serialize", "tuple_to_json", "serialize.emit", None),
    ("aglerlab.serialize", "write_atomic", "serialize.write_atomic", None),
    ("aglerlab.cli", "main", "cli.main", None),
]

# PointSample.__post_init__ holds the O(N^2) duplicate-point loop
METHOD_TARGETS = [("aglerlab.kernels", "PointSample", "__post_init__", "kernels.PointSample")]


class Tracer:
    """Records spans while `active`; otherwise the wrappers call straight through."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self.active = False
        self.installed = False
        self._restore: list[tuple] = []

    def wrap(self, name, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.op]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer.stack.pop()
            tracer.counts[name + ".calls"] += 1
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import aglerlab.cli  # noqa: F401  (cli imports lazily; load every module first)
        import aglerlab.serialize  # noqa: F401
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "aglerlab" or n.startswith("aglerlab.")]
        for modname, attr, span, counter in TARGETS:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(span, orig, counter)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for modname, cls_name, meth, span in METHOD_TARGETS:
            cls = getattr(sys.modules[modname], cls_name)
            orig = cls.__dict__[meth]
            self._restore.append((cls, meth, orig))
            setattr(cls, meth, self.wrap(span, orig))
        # cli parses documents with json.loads through its own `json` global
        cli = sys.modules["aglerlab.cli"]
        proxy = types.SimpleNamespace(**{k: getattr(json, k) for k in dir(json)
                                         if not k.startswith("__")})
        proxy.loads = self.wrap("serialize.parse", json.loads, _count_loads)
        self._restore.append((cli, "json", cli.json))
        cli.json = proxy
        self.installed = True

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()
        self.installed = False

    @staticmethod
    def span_cost_s(n: int = 20000) -> float:
        """Extra wall time one recorded span adds to a call, measured here."""
        def noop():
            return None
        probe = Tracer()
        probe.active = True
        wrapped = probe.wrap("probe", noop)
        t0 = perf_counter()
        for _ in range(n):
            noop()
        raw = perf_counter() - t0
        t0 = perf_counter()
        for _ in range(n):
            wrapped()
        return max(perf_counter() - t0 - raw, 0.0) / n

    def summary(self, op_times: dict[int, float], op_scale: dict[int, float]) -> dict:
        """Self time per span name, and op time outside all top-level spans.

        Span times of op i are multiplied by op_scale[i].
        """
        busy: dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.spans)
        covered: dict[int, float] = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                covered[op] += end - start
        for (name, start, end, parent, op), inner in zip(self.spans, child):
            busy[name] += (end - start - inner) * op_scale[op]
        outside = {op: max(t - covered[op], 0.0) * op_scale[op] for op, t in op_times.items()}
        return {"busy_s": dict(busy), "outside_s": outside}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
