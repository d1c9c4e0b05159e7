"""Smoke test of the benchmark's norm-bracket correctness gate.

Loads perfbench/workloads.py as it stands and runs one op of each
norm-bracket kind through the workload's own `run` and `check`.
"""
import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def test_norm_bracket_gate_one_op_per_kind(tmp_path):
    workload = _load_workloads().NormBracket()
    ops = workload.setup(101, tmp_path)
    for op in ops[:len(workload.kinds)]:
        outcome = workload.check(op, workload.run(op))
        assert outcome.error is None, op.label
        assert not outcome.unresolved, op.label
        assert outcome.width_ratio == 1, op.label
