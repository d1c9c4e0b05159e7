"""Smoke tests of the benchmark's instruments.

Loads perfbench/workloads.py as it stands and runs one op of each
norm-bracket kind, and the small cli-batch ops twice each, through the
workload's own `run` and `check`; loads
perfbench/tracer.py and checks that every function it wraps still exists.
"""
import importlib.util
import sys
from fnmatch import fnmatch
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(stem):
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}", PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def test_norm_bracket_gate_one_op_per_kind(tmp_path):
    workload = _load("workloads").NormBracket()
    ops = workload.setup(101, tmp_path)
    for op in ops[:len(workload.kinds)]:
        outcome = workload.check(op, workload.run(op))
        assert outcome.error is None, op.label
        assert not outcome.unresolved, op.label
        assert outcome.width_ratio == 1, op.label


def test_tracer_installs_and_uninstalls():
    import aglerlab.realize
    tracer_mod = _load("tracer")
    original = aglerlab.realize.lurking_isometry
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for modname, attr, _, _ in tracer_mod.TARGETS:
            fn = getattr(sys.modules[modname], attr)
            assert hasattr(fn, "__wrapped__"), f"{modname}.{attr} is not wrapped"
    finally:
        tracer.uninstall()
    assert aglerlab.realize.lurking_isometry is original


def test_cli_batch_gate_small_ops_twice(tmp_path):
    # the gate re-validates each parsed certificate or witness and compares
    # every report with the first one written for the same document
    workload = _load("workloads").CliBatch()
    ops = workload.setup(101, tmp_path)
    labels = ("decompose-*-N16m1", "realize-N16m2", "pick-N16m2", "norm-N16m1", "eval")
    chosen = [op for op in ops if any(fnmatch(op.label, pat) for pat in labels)]
    assert len(chosen) == 8
    for _ in range(2):
        for op in chosen:
            outcome = workload.check(op, workload.run(op))
            assert outcome.error is None, op.label
