"""Batch front end: subcommands, exit codes, determinism, diagnostics."""
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aglerlab.cli import main
from aglerlab.preorder import classical
from aglerlab.realize import Colligation, FunctionSample, eval_transfer, validate_witness
from aglerlab.sampling import (random_classical_colligation, random_points,
                               random_transfer_sample, random_unitary)
from aglerlab.serialize import (colligation_to_json, dumps, function_sample_to_json,
                                json_to_colligation, json_to_kernel, kernel_to_json,
                                points_to_json)
from aglerlab.kernels import HermitianKernel, PointSample, ones_kernel, szego_kernel

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args, tmp_path, payload=None):
    argv = list(args)
    if payload is not None:
        inp = tmp_path / "in.json"
        inp.write_text(dumps(payload) + "\n")
        argv += ["--input", str(inp)]
    out = tmp_path / "out.json"
    argv += ["--output", str(out), "--quiet"]
    code = main(argv)
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


def coordinate_fixture(rng):
    s = random_points(rng, 3, 1)
    return {
        "points": points_to_json(s),
        "phi": [[[ [z.real, z.imag] ]] for z in s.points[:, 0]],
        "preordering": [[1]],
        "c": 1.0,
    }


class TestRealizeCommand:
    def test_coordinate_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        code, doc = run_cli(["realize"], tmp_path, coordinate_fixture(rng))
        assert code == 0
        assert doc["schema"] == "agler-lab/1"
        assert doc["status"] == "feasible"
        assert doc["roundtrip_max_error"] < 1e-7
        assert "colligation" in doc

    def test_roundtrip_above_one(self, tmp_path):
        # at c != 1 both phi and the certificate's Kolmogorov factors are
        # rescaled by 1/c before the lurking isometry's Gram check
        rng = np.random.default_rng(12)
        phi, _ = random_transfer_sample(rng, 6, 2)
        payload = {**function_sample_to_json(FunctionSample(phi.sample, 0.9 * phi.values)),
                   "preordering": [[1, 1]], "c": 1.2}
        code, doc = run_cli(["realize"], tmp_path, payload)
        assert code == 0
        assert doc["status"] == "feasible"
        assert doc["roundtrip_max_error"] < 1e-8

    def test_over_size_limit_exits_one(self, tmp_path, capsys):
        phi, _ = random_transfer_sample(np.random.default_rng(13), 33, 2)
        payload = {**function_sample_to_json(phi), "preordering": [[1, 0], [0, 1]]}
        code, doc = run_cli(["decompose"], tmp_path, payload)
        assert code == 1 and doc is None
        assert "MAX_INTERIOR_DIM" in capsys.readouterr().err

    def test_infeasible_exit_code(self, tmp_path):
        payload = {
            "points": [[[0.5, 0.0]]],
            "phi": [[[[0.5, 0.0]]]],
            "preordering": [[1]],
            "c": 0.4,
        }
        code, doc = run_cli(["decompose"], tmp_path, payload)
        assert code == 2
        assert doc["status"] == "infeasible"
        assert "witness" in doc
        assert doc["witness_pairing"] < 0


class TestNormCommand:
    def test_norm_with_infeasible_c(self, tmp_path):
        payload = {
            "points": [[[0.5, 0.0]]],
            "phi": [[[[0.5, 0.0]]]],
            "preordering": [[1]],
            "c": 0.4,
            "tol": 1e-6,
        }
        code, doc = run_cli(["norm"], tmp_path, payload)
        assert code == 2
        assert doc["at_c"]["status"] == "infeasible"
        assert "witness" in doc["at_c"] or "witness" in doc
        # single sample point: the norm collapses to |phi| = 0.5
        assert doc["c_lo"] == pytest.approx(0.5, abs=1e-5)
        assert doc["c_hi"] == pytest.approx(0.5, abs=1e-5)

    def test_norm_without_certificate_reports_null_c_hi(self, tmp_path):
        # norm-bracket seed 9, op 58: no certificate validates, so c_hi is inf;
        # the report carries it as null, with the validated lower end
        phi, _ = random_transfer_sample(np.random.default_rng([9, 58]), 8, 2)
        payload = {**function_sample_to_json(phi), "preordering": [[1, 0], [0, 1]],
                   "tol": 1e-4, "solver": {"max_iter": 3000}}
        code, doc = run_cli(["norm"], tmp_path, payload)
        assert code == 3
        assert doc["c_hi"] is None and doc["resolved"] is False and "certificate" not in doc
        assert doc["evaluations"] == [[doc["c_lo"], "infeasible"]]
        witness = json_to_kernel(doc["witness"])
        assert validate_witness(phi, classical(2), doc["c_lo"], witness, 1e-8) is not None


def _wide_norm_documents() -> dict:
    """A 1 x 2-valued phi on classical(2): alone, with c, and identically zero."""
    phi, _ = random_transfer_sample(np.random.default_rng([41, 2]), 3, 2, 2)
    wide = FunctionSample(phi.sample, 0.5 * phi.values[:, :1, :])
    doc = {**function_sample_to_json(wide), "preordering": [[1, 0], [0, 1]]}
    zero = function_sample_to_json(FunctionSample(phi.sample, 0 * wide.values))
    return {"bracket": doc, "at-c": {**doc, "c": 1.0}, "zero": {**doc, **zero}}


@pytest.mark.parametrize("name", ["bracket", "at-c", "zero"])
def test_norm_refuses_non_square_values(name, tmp_path, capsys, monkeypatch):
    # the rule of decompose, applied before any solve: the bracket alone used
    # to exit 0, and with c it was solved in full before the refusal
    from aglerlab import realize

    def no_solve(*args):
        raise AssertionError("solved a non-square phi")

    monkeypatch.setattr(realize, "_interior_point", no_solve)
    assert run_cli(["norm"], tmp_path, _wide_norm_documents()[name]) == (1, None)
    assert capsys.readouterr() == ("", "error: decomposition targets square matrix values\n")


def test_decompose_report_echoes_every_solver_field(tmp_path):
    rng = np.random.default_rng(6)
    payload = {**coordinate_fixture(rng), "solver": {"force_iterative": True}}
    code, doc = run_cli(["decompose"], tmp_path, payload)
    assert code == 0
    # the fields $.solver accepts, in that order, and nothing else
    assert ('"solver":{"feas_tol":1e-08,"max_iter":200000,"force_iterative":true}'
            in (tmp_path / "out.json").read_text())


class TestExampleCommand:
    def test_kv(self, tmp_path):
        code, doc = run_cli(["example", "kv"], tmp_path)
        assert code == 0
        assert doc["name"] == "kv"
        assert doc["commutator_max"] <= 1e-15
        assert doc["contractive"] is True
        assert doc["commutant_dimension"] == 1
        mats = np.array([[[complex(re, im) for re, im in row]
                          for row in M] for M in doc["tuple"]["matrices"]])
        assert mats.shape == (3, 6, 6)
        assert mats[0][1, 0] == 1.0

    def test_parrott(self, tmp_path):
        code, doc = run_cli(["example", "parrott"], tmp_path)
        assert code == 0
        assert doc["anticommutation_residual"] == 0.0
        assert doc["forced_zero_sigma_min"] == pytest.approx(2.0)

    def test_gkvw(self, tmp_path):
        code, doc = run_cli(["example", "gkvw"], tmp_path)
        assert code == 0
        assert doc["commutant_dimension"] == 1


class TestCheckKernel:
    def test_admissible(self, tmp_path):
        s = random_points(np.random.default_rng(1), 3, 2)
        payload = {"kernel": kernel_to_json(szego_kernel(s, (1, 1))),
                   "preordering": [[1, 1]]}
        code, doc = run_cli(["check-kernel"], tmp_path, payload)
        assert code == 0 and doc["admissible"] is True

    def test_inadmissible_reports_witness_lambda(self, tmp_path):
        s_pts = [[[0.9, 0.0]], [[-0.9, 0.0]]]
        s = PointSample(np.array([[0.9 + 0j], [-0.9 + 0j]]))
        payload = {"kernel": kernel_to_json(ones_kernel(s)), "preordering": [[1]]}
        code, doc = run_cli(["check-kernel"], tmp_path, payload)
        assert code == 0 and doc["admissible"] is False
        assert doc["worst_lambda"] == [1]


    def test_indefinite_kernel_reports_inadmissible(self, tmp_path):
        s = PointSample(np.array([[0.5 + 0j], [-0.5 + 0j]]))
        payload = {"kernel": kernel_to_json(HermitianKernel(s, -ones_kernel(s).blocks)),
                   "preordering": [[1]]}
        code, doc = run_cli(["check-kernel"], tmp_path, payload)
        assert code == 0 and doc["admissible"] is False


class TestAuxCommand:
    def test_raw_sigma(self, tmp_path):
        s = random_points(np.random.default_rng(2), 3, 2)
        payload = {"points": points_to_json(s), "lambda": [1, 1], "mode": "raw"}
        code, doc = run_cli(["aux"], tmp_path, payload)
        assert code == 0
        assert doc["n"] == 2 and set(doc["sigma"]) == {"0", "1", "2"}
        assert doc["max_norm"] < 1

    def test_extended(self, tmp_path):
        s = random_points(np.random.default_rng(3), 3, 2)
        payload = {"points": points_to_json(s), "lambda": [1, 1],
                   "mode": "extended", "preordering": [[1, 1]]}
        code, doc = run_cli(["aux"], tmp_path, payload)
        assert code == 0
        assert doc["completion_norm"] <= 1 + 1e-9
        assert doc["identity_residual"] < 1e-8


class TestPickCommand:
    payload = {
        "points": [[[0.0, 0.0]], [[0.5, 0.0]]],
        "a": [[[[1.0, 0.0]]], [[[1.0, 0.0]]]],
        "b": [[[[0.0, 0.0]]], [[[0.5, 0.0]]]],
        "preordering": [[1]],
    }

    def test_two_node(self, tmp_path):
        code, doc = run_cli(["pick"], tmp_path, self.payload)
        assert code == 0
        assert doc["node_residual"] < 1e-7


class TestEvalVnBrehmer:
    def test_eval_and_vn(self, tmp_path):
        rng = np.random.default_rng(4)
        phi, col = random_transfer_sample(rng, 2, 2)
        payload = {"colligation": colligation_to_json(col),
                   "points": [[[0.1, 0.0], [0.2, 0.0]]]}
        code, doc = run_cli(["eval"], tmp_path, payload)
        assert code == 0
        assert doc["norms"][0] <= 1 + 1e-10

        _, col3 = random_transfer_sample(rng, 2, 3)
        payload = {"colligation": colligation_to_json(col3), "name": "kv"}
        code, doc = run_cli(["vn"], tmp_path, payload)
        assert code == 0
        assert doc["rescaled"] is True  # kv norms are exactly 1
        assert doc["bound_satisfied"] is True

    def test_constant_colligation(self, tmp_path):
        # E = 0: W = D at every point and D (x) 1 at every tuple
        col = colligation_to_json(Colligation(np.zeros((0, 0)), np.zeros((0, 1)),
                                              np.zeros((1, 0)), [[0.5]], (), contractive=True))
        code, doc = run_cli(["eval"], tmp_path,
                            {"colligation": col, "points": [[[0.1, 0.0], [0.2, 0.0]]]})
        assert code == 0 and doc["values"] == [[[[0.5, 0.0]]]]
        code, doc = run_cli(["vn"], tmp_path, {"colligation": col, "name": "kv"})
        assert code == 0 and doc["norm"] == 0.5

    def test_brehmer(self, tmp_path):
        payload = {"name": "kv", "preordering": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
        code, doc = run_cli(["brehmer"], tmp_path, payload)
        assert code == 0
        assert doc["is_brehmer"] is True


class TestErrorHandling:
    def test_malformed_json(self, tmp_path, capsys):
        inp = tmp_path / "bad.json"
        inp.write_text('{"points": [[[0.1, 0.0]]\n')
        code = main(["decompose", "--input", str(inp), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert "line" in err

    def test_missing_field(self, tmp_path, capsys):
        code, _ = run_cli(["check-kernel"], tmp_path, {"preordering": [[1]]})
        assert code == 1
        assert "$.kernel" in capsys.readouterr().err

    def test_determinism_byte_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        payload = coordinate_fixture(rng)
        inp = tmp_path / "in.json"
        inp.write_text(dumps(payload))
        out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
        assert main(["realize", "--input", str(inp), "--output", str(out1), "--quiet"]) == 0
        assert main(["realize", "--input", str(inp), "--output", str(out2), "--quiet"]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "aglerlab.cli", "example", "kv"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["schema"] == "agler-lab/1"


def test_thread_cap_set_before_numpy_loads():
    # the child records OPENBLAS_NUM_THREADS at the moment numpy is first imported
    child = """
import builtins, os, sys
seen = []
real_import = builtins.__import__
def hook(name, *args, **kwargs):
    if name.split(".")[0] == "numpy" and "numpy" not in sys.modules and not seen:
        seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
    return real_import(name, *args, **kwargs)
builtins.__import__ = hook
import aglerlab.cli
print(repr(seen[0]) if seen else "numpy was not imported")
"""
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env["AGLER_LAB_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "'1'"


def test_realize_is_the_same_under_one_and_two_threads(tmp_path):
    # the unitary completion reads no basis that the BLAS code path picks, so
    # W off the nodes does not follow the thread count (2.3e-2 apart when the
    # complements' SVD bases were paired)
    phi, _ = random_transfer_sample(np.random.default_rng([32, 2]), 32, 2, 2)
    inp = tmp_path / "in.json"
    inp.write_text(dumps({**function_sample_to_json(FunctionSample(phi.sample, 0.9 * phi.values)),
                          "preordering": [[1, 1]]}))
    held_out = random_points(np.random.default_rng([32, 3]), 16, 2).points
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    values = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if k not in blas}
        env["AGLER_LAB_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run([sys.executable, "-m", "aglerlab.cli", "realize", "--input",
                               str(inp)], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        col = json_to_colligation(json.loads(proc.stdout)["colligation"])
        values.append(eval_transfer(col, held_out))
    assert np.abs(values[0] - values[1]).max() <= 1e-10


def test_aux_verify_mode(tmp_path):
    rng = np.random.default_rng(9)
    s = random_points(rng, 3, 2)
    payload = {"points": points_to_json(s), "lambda": [1, 1], "mode": "verify",
               "kernel": kernel_to_json(szego_kernel(s, (1, 1)))}
    code, doc = run_cli(["aux"], tmp_path, payload)
    assert code == 0
    assert doc["residual"] < 1e-10


def _partition(*entries):
    return [{"lambda": list(lam), "mult": mult} for lam, mult in entries]


def test_eval_refuses_partitions_of_mixed_length(tmp_path, capsys):
    # unchecked, eval's broadcasting reads the (1,) entry as z1 z2 and prints values
    col = random_classical_colligation(np.random.default_rng(41), 2, max_mult=1)
    payload = {"colligation": {**colligation_to_json(col),
                               "partition": _partition(((1, 0), 1), ((1,), 1))},
               "points": [[[0.1, 0.0], [0.2, 0.0]]]}
    assert run_cli(["eval"], tmp_path, payload) == (1, None)
    assert capsys.readouterr().err == ("error: $.colligation: partition multi-indices "
                                       "differ in length: (1, 0) and (1,)\n")


@pytest.mark.parametrize("E, entries", [(1, (((1, 0), 2), ((0, 1), -1))),
                                        (0, (((1, 1), 1), ((0, 1), -2)))])
def test_eval_refuses_negative_multiplicities(E, entries, tmp_path, capsys):
    # each signed sum matches E, so the block shapes alone let these through
    U = random_unitary(np.random.default_rng(43), E + 1)
    col = colligation_to_json(Colligation(U[:E, :E], U[:E, E:], U[E:, :E], U[E:, E:],
                                          (((1, 0), E),) if E else (), contractive=not E))
    payload = {"colligation": {**col, "partition": _partition(*entries)},
               "points": [[[0.1, 0.0], [0.2, 0.0]]]}
    assert run_cli(["eval"], tmp_path, payload) == (1, None)
    assert capsys.readouterr().err == ("error: $.colligation: partition multiplicities "
                                       f"must be >= 0, got {entries[1][1]} for (0, 1)\n")


@pytest.mark.parametrize("command", ["decompose", "aux"])
def test_points_of_dimension_zero_refused(command, tmp_path, capsys):
    payload = {"points": [[], []], "phi": [[[[0.5, 0.0]]], [[[0.5, 0.0]]]],
               "preordering": [[1]], "lambda": [1]}
    assert run_cli([command], tmp_path, payload) == (1, None)
    assert capsys.readouterr().err == "error: $.points: points must be a nonempty N x d array\n"


def _decompose_payload():
    phi, _ = random_transfer_sample(np.random.default_rng(14), 3, 2)
    return {**function_sample_to_json(phi), "preordering": [[1, 1]]}


@pytest.mark.parametrize("command", ["decompose", "realize", "norm"])
@pytest.mark.parametrize("field", ["points", "phi"])
def test_missing_function_sample_field_names_it(command, field, tmp_path, capsys):
    payload = {k: v for k, v in _decompose_payload().items() if k != field}
    code, doc = run_cli([command], tmp_path, payload)
    assert code == 1 and doc is None
    assert f"$.{field}: missing field" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["decompose", "realize", "norm"])
def test_boolean_c_rejected(command, tmp_path, capsys):
    code, doc = run_cli([command], tmp_path, {**_decompose_payload(), "c": True})
    assert code == 1 and doc is None
    assert "$.c: must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["norm", "check-kernel", "brehmer"])
@pytest.mark.parametrize("tol", [False, "x"], ids=["bool", "string"])
def test_mistyped_tol_rejected(command, tol, tmp_path, capsys):
    s = random_points(np.random.default_rng(15), 3, 2)
    payload = {"norm": _decompose_payload(),
               "check-kernel": {"kernel": kernel_to_json(szego_kernel(s, (1, 1))),
                                "preordering": [[1, 1]]},
               "brehmer": {"name": "kv", "preordering": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
               }[command]
    code, doc = run_cli([command], tmp_path, {**payload, "tol": tol})
    assert code == 1 and doc is None
    assert "$.tol: must be a number" in capsys.readouterr().err


def test_decompose_refuses_certificate_failing_revalidation(tmp_path, capsys, monkeypatch):
    import aglerlab.realize as realize
    solve = realize.agler_decompose

    def doubled(*args, **kwargs):  # every Gamma doubled: the identity no longer reassembles
        out = solve(*args, **kwargs)
        cert = out.certificate
        gammas = {lam: HermitianKernel(K.sample, 2 * K.blocks) for lam, K in cert.gammas.items()}
        return replace(out, certificate=replace(cert, gammas=gammas))

    monkeypatch.setattr(realize, "agler_decompose", doubled)
    code, doc = run_cli(["decompose"], tmp_path, coordinate_fixture(np.random.default_rng(16)))
    assert code == 1 and doc is None
    assert "refusing to emit" in capsys.readouterr().err


def test_pick_refuses_witness_failing_revalidation(tmp_path, capsys, monkeypatch):
    import aglerlab.pick as pick
    from aglerlab.realize import DecomposeResult, Witness

    def bogus(problem, params=None):  # the all-ones kernel pairs positively with a feasible target
        return DecomposeResult("infeasible", None, Witness(ones_kernel(problem.nodes), -1.0),
                               0.0, 0)

    monkeypatch.setattr(pick, "pick_feasible", bogus)
    code, doc = run_cli(["pick"], tmp_path, TestPickCommand.payload)
    assert code == 1 and doc is None
    assert "refusing to emit" in capsys.readouterr().err


def test_norm_refuses_ends_failing_revalidation(tmp_path, capsys, monkeypatch):
    import aglerlab.realize as realize
    bracket = realize.schur_agler_norm

    def doubled(*args, **kwargs):  # every Gamma doubled: the identity no longer reassembles
        out = bracket(*args, **kwargs)
        cert = out.certificate
        gammas = {lam: HermitianKernel(K.sample, 2 * K.blocks) for lam, K in cert.gammas.items()}
        return replace(out, certificate=replace(cert, gammas=gammas))

    monkeypatch.setattr(realize, "schur_agler_norm", doubled)
    code, doc = run_cli(["norm"], tmp_path, coordinate_fixture(np.random.default_rng(16)))
    assert code == 1 and doc is None
    assert "refusing to emit" in capsys.readouterr().err


def _two_point(preordering):
    """2 points under which the default solver answers 0.5 phi feasible."""
    phi, _ = random_transfer_sample(np.random.default_rng(19), 2, 2)
    return {**function_sample_to_json(FunctionSample(phi.sample, 0.5 * phi.values)),
            "preordering": preordering}


_HUGE_INT = "1" + "0" * 400  # a JSON integer that no float holds


# 12345.5 stands in for a token that dumps cannot write
@pytest.mark.parametrize("command, flags, fields, token, message", [
    ("decompose", [], {"preordering": [[1, 1, 1]]}, None, "$.preordering: dimension 3"),
    ("realize", [], {"preordering": [[1, 1, 1]]}, None, "$.preordering: dimension 3"),
    ("norm", [], {"preordering": [[1, 1, 1]]}, None, "$.preordering: dimension 3"),
    ("decompose", [], {"solver": {"max_iter": -1}}, None, "$.solver.max_iter: must be >= 0"),
    ("norm", [], {"solver": {"max_iter": 2.5}}, None, "$.solver.max_iter: must be an integer"),
    # $.solver takes feas_tol, max_iter and force_iterative, and the solver
    # flags are gone: each other field, or flag, is refused by name
    ("decompose", [], {"solver": {"stall_window": 5}}, None,
     "$.solver.stall_window: unknown solver parameter"),
    ("decompose", [], {"solver": {"feas_tol": 1e-6, "stall_window": 1}}, None,
     "$.solver.stall_window: unknown solver parameter"),
    ("decompose", [], {"solver": {"stall_rtol": 1e-9}}, None,
     "$.solver.stall_rtol: unknown solver parameter"),
    ("decompose", ["--feas-tol", "1e-6"], {"preordering": [[1, 1]]}, None, "--feas-tol"),
    ("decompose", ["--feas-tol", "1e-6"], {}, None, "--feas-tol"),
    ("pick", ["--feas-tol", "1e-6"], {}, None, "--feas-tol"),
    ("decompose", [], {"solver": {"seed": 0}}, None, "$.solver.seed: unknown solver parameter"),
    ("decompose", [], {"solver": {"seed": True}}, None,
     "$.solver.seed: unknown solver parameter"),
    ("norm", [], {"tol": 12345.5}, "NaN", "NaN is not a JSON number"),
    ("norm", [], {"tol": 12345.5}, "1e999", "$.tol: must be a finite number"),
    ("decompose", [], {"c": 12345.5}, "1e999", "$.c: must be a finite number"),
    ("decompose", [], {"phi": [[[[12345.5, 0.0]]], [[[0.1, 0.0]]]]}, "1e999",
     "$.phi[0][0][0][0]: must be a finite number"),
    ("pick", [], {"a": [[[[1.0, 0.0]]]], "b": [[[[1.0, 0.0]]]]}, None,
     "$.a: need one matrix per node (2)"),
    ("eval", [], {"colligation": colligation_to_json(
        random_transfer_sample(np.random.default_rng(4), 2, 2)[1]), "points": [0.1, 0.0]},
     None, "$.points: expected an array of points"),
    ("check-kernel", [], {"kernel": kernel_to_json(szego_kernel(
        PointSample(np.array([[0.5], [-0.5]])), (1,))), "preordering": [[1]], "tol": -1},
     None, "$.tol: must be finite and >= 0"),
    ("brehmer", [], {"name": "kv", "preordering": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                     "tol": -1e-300}, None, "$.tol: must be finite and >= 0"),
    ("norm", [], {"tol": -1}, None, "$.tol: must be finite and >= 0"),
    ("decompose", [], {"phi": [[[[False, 0.0]]], [[[0.1, 0.0]]]]}, None,
     "$.phi[0][0][0][0]: must be a number"),
    ("decompose", [], {"preordering": [[True, 0], [0, 1]]}, None,
     "$.preordering[0][0]: must be an integer"),
    ("decompose", [], {"preordering": [[1, 0], [0, 1.5]]}, None,
     "$.preordering[1][1]: must be an integer"),
    ("decompose", [], {"preordering": [["1", 0], [0, 1]]}, None,
     "$.preordering[0][0]: must be an integer"),
    ("eval", [], {"colligation": {**colligation_to_json(Colligation(  # W = 1/2, not unitary
        np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[0.5]], (), contractive=True)),
        "contractive": "false"}, "points": [[[0.1, 0.0], [0.2, 0.0]]]},
     None, "$.colligation.contractive: must be a boolean"),
    # an integer past the float range is refused where 1e999 is, with its field
    *[pytest.param(command, [], fields, sign + _HUGE_INT, message, id=f"{name}-{kind}-int")
      for sign, kind in (("", "huge"), ("-", "huge-negative"))
      for name, command, fields, message in (
          ("points", "decompose", {"points": [[[0.1, 0.0], [12345.5, 0.0]],
                                               [[0.2, 0.0], [0.3, 0.0]]]},
           "$.points[0][1][0]: must be a finite number"),
          ("phi", "norm", {"phi": [[[[0.1, 0.0]]], [[[0.1, 12345.5]]]]},
           "$.phi[1][0][0][1]: must be a finite number"),
          ("c", "decompose", {"c": 12345.5}, "$.c: must be a finite number"),
          ("tol", "norm", {"tol": 12345.5}, "$.tol: must be a finite number"),
          ("feas-tol", "decompose", {"solver": {"feas_tol": 12345.5}},
           "$.solver.feas_tol: must be finite and positive"))],
    # finite entries whose U*U overflows to inf and NaN: refused, not evaluated
    pytest.param("eval", [], {"colligation": {
        "A": [[[1e200, 0.0]]], "B": [[[1e200, 0.0]]], "C": [[[1e200, 0.0]]],
        "D": [[[-1e200, 0.0]]], "partition": [{"lambda": [1], "mult": 1}]},
        "points": [[[0.1, 0.0]]]}, None,
        "$.colligation: colligation is not unitary: |U*U - 1| = inf",
        id="eval-overflowing-colligation"),
    # a preordering entry past 64 bits is refused with its field, not by range() or numpy
    *[pytest.param(command, [], fields, token, message, id=f"{command}-preordering-{kind}")
      for kind, token in (("huge-int", _HUGE_INT), ("2-to-63", str(2 ** 63)))
      for command, fields, message in (
          ("brehmer", {"name": "kv", "preordering": [[1, 0, 0], [0, 12345.5, 0], [0, 0, 1]]},
           "$.preordering[1][1]: must be an integer that fits 64 bits"),
          ("check-kernel", {"kernel": kernel_to_json(szego_kernel(
              PointSample(np.array([[0.5], [-0.5]])), (1,))), "preordering": [[12345.5]]},
           "$.preordering[0][0]: must be an integer that fits 64 bits"),
          ("decompose", {"preordering": [[1, 0], [0, 12345.5]]},
           "$.preordering[1][1]: must be an integer that fits 64 bits"))],
    pytest.param("norm", [], {"preordering": [[1, 0], [0, 12345.5]]}, "-" + _HUGE_INT,
                 "$.preordering[1][1]: must be an integer that fits 64 bits",
                 id="norm-preordering-minus-huge-int"),
    # an element of total degree past 1023 is refused when it is read, and an
    # element whose defect overflows is refused by its index
    pytest.param("brehmer", [], {"name": "kv", "preordering": [[1, 0, 0], [0, 12345.5, 0],
                                                               [0, 0, 1]]}, "100000",
                 "$.preordering[1]: total degree must be at most 1023",
                 id="brehmer-preordering-degree"),
    pytest.param("check-kernel", [], {"kernel": kernel_to_json(szego_kernel(
        PointSample(np.array([[0.5], [-0.5]])), (1,))), "preordering": [[12345.5]]}, "100000",
                 "$.preordering[0]: total degree must be at most 1023",
                 id="check-kernel-preordering-degree"),
    pytest.param("brehmer", [], {"tuple": {"matrices": [[[[2.0, 0.0]]]]},
                                 "preordering": [[1], [1000]]}, None,
                 "$.preordering[1]: defect is not finite", id="brehmer-defect-overflow"),
    pytest.param("check-kernel", [], {"kernel": kernel_to_json(HermitianKernel(
        PointSample(np.array([[0.5], [-0.5]])), 1e300 * np.ones((2, 2)))),
        "preordering": [[1000]]}, None,
                 "$.preordering[0]: defect is not finite", id="check-kernel-defect-overflow"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_malformed_input_names_the_field(command, flags, fields, token, message, tmp_path,
                                         capsys):
    doc = _two_point([[1, 0], [0, 1]])
    if command == "pick":
        doc = {"points": doc["points"], "a": [[[[1.0, 0.0]]]] * 2, "b": doc["phi"],
               "preordering": doc["preordering"]}
    doc.update(fields)
    inp, out = tmp_path / "in.json", tmp_path / "out.json"
    inp.write_text(dumps(doc).replace("12345.5", token or "12345.5"))
    code = main([command, "--input", str(inp), "--output", str(out), "--quiet"] + flags)
    assert code == 1 and not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["decompose", "--max-iter", "3"], "unrecognized arguments: --max-iter 3"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    (["decompose", "--nope"], "unrecognized arguments: --nope"),
    ([], "the following arguments are required: command"),
    (["norm", "--feas-tol", "1e-6"], "unrecognized arguments: --feas-tol 1e-6"),
    (["pick", "--seed", "3"], "unrecognized arguments: --seed 3"),
])
def test_usage_errors_exit_1(argv, message, capsys):
    assert main(argv) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["decompose", "--help"]])
def test_help_exits_0(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: agler-lab")


_AMPLE = _two_point([[1, 1]])


@pytest.mark.parametrize("command, text, token", [
    # the corpus documents bad-norm-tol-nan and bad-decompose-point-nan
    ("norm", dumps({**_AMPLE, "tol": 12345.5}).replace("12345.5", "NaN"), "NaN"),
    ("decompose", dumps(_AMPLE).replace(dumps(_AMPLE["points"][1][0][0]), "NaN"), "NaN"),
    # a token inside a string is not the one the decoder met
    ("check-kernel", '{"note": "NaN \\" Infinity",\n "tol":\n  -Infinity}', "-Infinity"),
], ids=["bad-norm-tol-nan", "bad-decompose-point-nan", "token-in-string-first"])
def test_nonfinite_constant_is_located(command, text, token, tmp_path, capsys):
    inp = tmp_path / "in.json"
    inp.write_text(text)
    assert main([command, "--input", str(inp), "--quiet"]) == 1
    pos = text.rindex(token)  # the last: the token occurs once outside a string
    line, column = text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
    assert capsys.readouterr().err == (f"error: line {line} column {column}: "
                                       f"{token} is not a JSON number\n")


def _valid_documents() -> dict:
    """One small valid document per command, N <= 4 points."""
    rng = np.random.default_rng(21)
    phi, col = random_transfer_sample(rng, 3, 2)
    s = phi.sample
    sample_doc = {**function_sample_to_json(FunctionSample(s, 0.9 * phi.values)),
                  "preordering": [[1, 0], [0, 1]], "c": 1.0, "tol": 1e-4,
                  "solver": {"feas_tol": 1e-8, "max_iter": 200, "force_iterative": False}}
    col3 = colligation_to_json(random_transfer_sample(rng, 2, 3)[1])
    return {
        "check-kernel": {"kernel": kernel_to_json(szego_kernel(s, (1, 1))),
                         "preordering": [[1, 1]], "tol": 1e-10},
        "aux": {"points": points_to_json(s), "lambda": [1, 1], "mode": "extended",
                "preordering": [[1, 1]]},
        "decompose": sample_doc,
        "realize": {**sample_doc, "preordering": [[1, 1]]},
        "eval": {"colligation": colligation_to_json(col), "points": points_to_json(s)},
        "norm": sample_doc,
        "brehmer": {"tuple": {"matrices": [[[[0.5, 0.0]]], [[[0.25, 0.0]]]]},
                    "preordering": [[1, 1]], "tol": 1e-10},
        "vn": {"colligation": col3, "name": "kv"},
        "pick": {"points": points_to_json(s), "a": [[[[1.0, 0.0]]]] * 3,
                 "b": function_sample_to_json(FunctionSample(s, 0.8 * phi.values))["phi"],
                 "preordering": [[1, 0], [0, 1]], "solver": {"max_iter": 200}},
    }


_VALID = _valid_documents()


@pytest.mark.parametrize("command", ["realize", "pick"])
def test_colligation_that_misses_its_data_is_refused(command, tmp_path, capsys, monkeypatch):
    # the phase exp(1e-6 i) on the output row keeps U unitary and moves W by
    # about 1e-6 |W|, a hundred times the bound feas_tol * max(1, |a|)
    from aglerlab import pick, realize
    module, name = ((realize, "lurking_isometry") if command == "realize"
                    else (pick, "lurking_colligation"))
    build = getattr(module, name)

    def rotated(*args):
        col = build(*args)
        u = np.exp(1e-6j)
        return Colligation(col.A, col.B, u * col.C, u * col.D, col.partition)

    assert run_cli([command], tmp_path, _VALID[command])[0] == 0
    (tmp_path / "out.json").unlink()
    monkeypatch.setattr(module, name, rotated)
    assert run_cli([command], tmp_path, _VALID[command]) == (1, None)
    err = capsys.readouterr().err
    assert err.startswith("error: colligation misses its data by ")
    assert err.endswith(" > 1.000e-08; refusing to emit\n")


def test_emit_bound_follows_feas_tol(tmp_path, capsys):
    # the round trip here is 1.4e-13: emitted at the default feas_tol, refused at
    # 2e-14, which still decides the document (5e-15 does; 2e-15 leaves it unresolved)
    phi, _ = random_transfer_sample(np.random.default_rng([32, 2]), 32, 2, 2)
    doc = {**function_sample_to_json(FunctionSample(phi.sample, 0.9 * phi.values)),
           "preordering": [[1, 1]]}
    code, report = run_cli(["realize"], tmp_path, doc)
    assert code == 0 and report["roundtrip_max_error"] < 1e-12
    (tmp_path / "out.json").unlink()
    assert run_cli(["realize"], tmp_path, {**doc, "solver": {"feas_tol": 2e-14}}) == (1, None)
    err = capsys.readouterr().err
    assert err.startswith("error: colligation misses its data by ")
    assert err.endswith(" > 2.000e-14; refusing to emit\n")


@pytest.mark.parametrize("command", sorted(_VALID))
def test_report_is_a_function_of_the_document(command, tmp_path, monkeypatch, capsys):
    # the flags choose the source, the sink and the progress notes, never the
    # report; the document, the base of every mutation below, is answered
    text = dumps(_VALID[command])
    inp = tmp_path / "in.json"
    inp.write_text(text)
    reports = set()
    for source, sink, quiet in itertools.product(("file", "stdin"), ("file", "stdout"),
                                                 ([], ["--quiet"])):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        out = tmp_path / "out.json"
        argv = [command] + (["--input", str(inp)] if source == "file" else []) \
            + (["--output", str(out)] if sink == "file" else []) + quiet
        code = main(argv)
        printed = capsys.readouterr().out
        reports.add((code, out.read_text() if sink == "file" else printed))
        out.unlink(missing_ok=True)
    assert len(reports) == 1
    code, report = reports.pop()
    assert code in (0, 2, 3) and report.endswith("\n")
    assert json.loads(report)["command"] == command


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_output_exits_1(target, tmp_path, capsys):
    out = tmp_path / "no" / "such" / "out.json" if target == "missing-dir" else tmp_path
    assert main(["example", "kv", "--output", str(out)]) == 1
    reason = "No such file or directory" if target == "missing-dir" else "Is a directory"
    assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"
    assert list(tmp_path.iterdir()) == []  # no temporary file left behind


@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unreadable_input_exits_1(target, tmp_path, capsys):
    inp = tmp_path / "no" / "such.json" if target == "missing" else tmp_path
    assert main(["decompose", "--input", str(inp)]) == 1
    reason = "No such file or directory" if target == "missing" else "Is a directory"
    assert capsys.readouterr() == ("", f"error: cannot read {inp}: {reason}\n")


# JSON values of the wrong type, zero or negative integers, and non-finite numbers;
# "1e999" is spelled out in the text, where json.loads reads it as inf, and
# 10**400 is written as its 401 digits
_REPLACEMENTS = ["x", True, None, {}, [], 0, -1, -3, 1.5, float("nan"), float("inf"),
                 "1e999", 10 ** 400]


@st.composite
def _mutated_document(draw):
    command = draw(st.sampled_from(sorted(_VALID)))
    root = {"": json.loads(dumps(_VALID[command]))}
    parent, key = root, ""
    while True:  # walk down to the field or entry to mutate
        node = parent[key]
        keys = list(node) if isinstance(node, dict) else range(len(node)) \
            if isinstance(node, list) else []
        if not keys or (key != "" and draw(st.booleans())):
            break
        parent, key = node, draw(st.sampled_from(keys))
    action = draw(st.sampled_from(["drop", "replace", "grow"] if key != "" else ["replace"]))
    if action == "drop":  # a missing field, or one entry fewer
        del parent[key]
    elif action == "grow" and isinstance(parent, list):  # one entry more
        parent.append(parent[key])
    else:
        parent[key] = draw(st.sampled_from(_REPLACEMENTS))
    return command, json.dumps(root[""]).replace('"1e999"', "1e999")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=_mutated_document())
def test_mutated_documents_exit_with_a_code(case):
    command, text = case
    with tempfile.TemporaryDirectory() as tmp:
        inp, out = Path(tmp) / "in.json", Path(tmp) / "out.json"
        inp.write_text(text)
        code = main([command, "--input", str(inp), "--output", str(out), "--quiet"])
        assert code in (0, 1, 2, 3)
        assert out.exists() == (code != 1)
