"""The package's load policy: importing it runs no module and sets no
environment, each command runs only the modules it uses, and every exported
name still resolves."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aglerlab
from aglerlab.kernels import szego_kernel
from aglerlab.sampling import random_points
from aglerlab.serialize import dumps, kernel_to_json

SRC = Path(__file__).resolve().parents[1] / "src"

# every name the package exported when it imported its modules eagerly, by module
EXPORTED = {
    "preorder": ["Preordering", "classify", "classical", "maximal_closure",
                 "minimal_reduction", "parity_split", "standard_ample",
                 "standard_nearly_ample"],
    "kernels": ["HermitianKernel", "PointSample", "is_admissible", "is_subordinate",
                "kolmogorov", "psd_check", "schur_product", "szego_kernel"],
    "auxfun": ["AuxFunctionSample", "aux_function", "builtin_domain", "extend_aux_finite",
               "psi_rows", "verify_defect_identity"],
    "realize": ["AglerCertificate", "Colligation", "DecomposeResult", "FunctionSample",
                "SolverParams", "Witness", "agler_decompose", "ample_membership",
                "eval_transfer", "lurking_isometry", "schur_agler_norm", "transfer_compose"],
    "opmodel": ["CommutingTuple", "TestPolynomial", "commutant_dimension", "dilation_check",
                "eval_colligation_at_tuple", "eval_polynomial", "gkvw_tuple",
                "hereditary_defect", "is_brehmer", "kv_tuple", "parrott_tuple"],
    "pick": ["PickProblem", "PickSolution", "corona_right_inverse", "pick_feasible",
             "pick_solve"],
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names]

# the child prints, as JSON, the files of the package whose module-level code
# ran (audit "exec" events) during the statements that follow it
_RECORD = """
import json, sys
ran = set()
def hook(event, args):
    if event == "exec":
        ran.add(getattr(args[0], "co_filename", ""))
sys.addaudithook(hook)
"""
_REPORT = """
print(json.dumps(sorted(f.rsplit("/", 1)[-1] for f in ran if "aglerlab" in f)))
"""


def _child(args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable] + args, capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=60)


def _modules_run(argv, tmp_path, doc=None):
    if doc is not None:
        (tmp_path / "in.json").write_text(dumps(doc) + "\n")
        argv = argv + ["--input", "in.json"]
    main = "from aglerlab import cli\nassert cli.main(sys.argv[1:]) == 0\n"
    proc = _child(["-c", _RECORD + main + _REPORT] + argv + ["--output", "out.json"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def _small_kernel_document():
    s = random_points(np.random.default_rng(5), 3, 2)
    return {"kernel": kernel_to_json(szego_kernel(s, (1, 1))), "preordering": [[1, 1]]}


@pytest.mark.parametrize("command", ["example-kv", "example-parrott", "brehmer", "check-kernel"])
def test_a_command_runs_only_the_modules_it_needs(command, tmp_path):
    argv, doc = {
        "example-kv": (["example", "kv"], None),
        "example-parrott": (["example", "parrott"], None),
        "brehmer": (["brehmer"], {"name": "kv", "preordering": [[1, 0, 0], [0, 1, 0],
                                                               [0, 0, 1]]}),
        "check-kernel": (["check-kernel"], _small_kernel_document()),
    }[command]
    ran = _modules_run(argv, tmp_path, doc)
    assert {"__init__.py", "cli.py", "serialize.py"} <= ran
    assert not ran & {"realize.py", "pick.py", "sampling.py"}, ran
    if command != "check-kernel":
        assert not ran & {"auxfun.py", "kernels.py"}, ran
    assert json.loads((tmp_path / "out.json").read_text())["command"] == argv[0]


def test_module_entry_point_runs_once_without_warnings(tmp_path):
    # cli is not registered as a lazy module: runpy finds it unloaded, runs it as
    # __main__ once, and has no RuntimeWarning to print
    proc = _child(["-m", "aglerlab.cli", "example", "kv"], tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["name"] == "kv"


def test_the_package_sets_no_environment(tmp_path):
    # the BLAS reads its own thread variables, and the package sets none of them
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env["AGLER_LAB_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    child = ("import json, os\nfrom aglerlab.cli import main\n"
             "assert main(['example', 'kv', '--quiet']) == 0\n"
             f"print(json.dumps([os.environ.get(v) for v in {blas!r}]))\n")
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [None] * len(blas)


def test_importing_the_package_runs_no_module(tmp_path):
    proc = _child(["-c", _RECORD + "import aglerlab\n" + _REPORT
                   + "print(aglerlab.realize.schur_agler_norm.__module__)\n"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ['["__init__.py"]', "aglerlab.realize"]


@pytest.mark.parametrize("module, name", NAMES)
def test_exported_names_resolve_to_their_definitions(module, name):
    definition = getattr(importlib.import_module(f"aglerlab.{module}"), name)
    assert getattr(aglerlab, name) is definition
    scope = {}
    exec(f"from aglerlab import {name}", scope)
    assert scope[name] is definition
    assert name in dir(aglerlab)


def test_star_import_gives_every_exported_name():
    scope = {}
    exec("from aglerlab import *", scope)
    assert {name for _, name in NAMES} <= set(scope)


def test_modules_are_package_attributes():
    for module in list(EXPORTED) + ["_linalg", "sampling", "serialize"]:
        assert getattr(aglerlab, module) is sys.modules[f"aglerlab.{module}"]


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        aglerlab.no_such_name
