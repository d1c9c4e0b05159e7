"""JSON schemas: round trips, float formatting, determinism, diagnostics."""
import json

import numpy as np
import pytest

from aglerlab.kernels import szego_kernel
from aglerlab.preorder import Preordering, classical
from aglerlab.realize import agler_decompose, lurking_isometry
from aglerlab.sampling import random_points, random_transfer_sample
from aglerlab.serialize import (FormatError, colligation_to_json, dumps,
                                json_to_array, json_to_colligation, json_to_kernel,
                                json_to_points, json_to_preordering, kernel_to_json,
                                lambda_key, parse_lambda_key, preordering_to_json,
                                report, result_to_json, solver_params_from_json,
                                write_atomic)


class TestFloats:
    def test_seventeen_significant_digits(self):
        assert dumps(1 / 3) == "0.33333333333333331"
        assert dumps(0.1) == "0.10000000000000001"

    def test_roundtrip_exact(self):
        for x in (1 / 3, 1e-300, 123456.789, 2 ** 0.5):
            assert json.loads(dumps(x)) == x

    def test_integers_stay_integers(self):
        assert dumps({"n": 3}) == '{"n":3}'

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            dumps(float("nan"))


class TestKernelRoundTrip:
    def test_szego(self):
        s = random_points(np.random.default_rng(0), 3, 2)
        K = szego_kernel(s, (1, 1))
        doc = kernel_to_json(K)
        back = json_to_kernel(doc)
        assert np.array_equal(back.blocks, K.blocks)
        assert back.sample == K.sample

    def test_text_roundtrip_is_lossless(self):
        s = random_points(np.random.default_rng(1), 2, 1)
        K = szego_kernel(s, (1,))
        text = dumps(kernel_to_json(K))
        back = json_to_kernel(json.loads(text))
        assert np.array_equal(back.blocks, K.blocks)

    def test_shape_mismatch_diagnosed(self):
        s = random_points(np.random.default_rng(2), 2, 1)
        doc = kernel_to_json(szego_kernel(s, (1,)))
        doc["block_dim"] = 2
        with pytest.raises(FormatError, match=r"\.blocks"):
            json_to_kernel(doc)

    def test_non_hermitian_diagnosed(self):
        s = random_points(np.random.default_rng(3), 2, 1)
        doc = kernel_to_json(szego_kernel(s, (1,)))
        doc["blocks"][0][1] = [[[99.0, 0.0]]]
        with pytest.raises(FormatError, match="Hermitian"):
            json_to_kernel(doc)


class TestPreordering:
    def test_roundtrip(self):
        p = Preordering([(1, 0), (0, 1), (1, 1)])
        assert json_to_preordering(preordering_to_json(p)).elements == p.elements

    def test_lambda_keys(self):
        assert lambda_key((1, 0, 2)) == "1,0,2"
        assert parse_lambda_key("1,0,2", "$") == (1, 0, 2)
        with pytest.raises(FormatError):
            parse_lambda_key("1,x", "$")

    def test_bad_document(self):
        with pytest.raises(FormatError, match="preordering"):
            json_to_preordering({"not": "a list"})


class TestColligation:
    def test_roundtrip_preserves_transfer_function(self):
        from aglerlab.realize import eval_transfer
        rng = np.random.default_rng(4)
        phi, col = random_transfer_sample(rng, 3, 2)
        doc = colligation_to_json(col)
        back = json_to_colligation(doc)
        z = random_points(rng, 1, 2).points[0]
        assert np.allclose(eval_transfer(back, z), eval_transfer(col, z))

    def test_missing_field(self):
        with pytest.raises(FormatError, match="partition"):
            json_to_colligation({"A": [], "B": [], "C": [], "D": [[[1.0, 0.0]]]})


class TestResults:
    def test_decompose_result_roundtrip(self):
        rng = np.random.default_rng(5)
        phi, _ = random_transfer_sample(rng, 3, 2)
        out = agler_decompose(phi, classical(2), 1.0)
        doc = result_to_json(out)
        assert doc["status"] == "feasible"
        assert set(doc["certificate"]) == {"0,1", "1,0"}
        text = dumps(report(doc))
        parsed = json.loads(text)
        assert parsed["schema"] == "agler-lab/1"
        assert parsed["status"] == "feasible"

    def test_empty_certificate_map(self):
        from aglerlab.realize import DecomposeResult
        doc = result_to_json(DecomposeResult("unresolved", None, None, 1.0, 5))
        assert doc["certificate"] == {}

    def test_deterministic_bytes(self):
        rng = np.random.default_rng(6)
        phi, _ = random_transfer_sample(rng, 3, 2)
        out1 = agler_decompose(phi, classical(2), 1.0)
        out2 = agler_decompose(phi, classical(2), 1.0)
        assert dumps(result_to_json(out1)) == dumps(result_to_json(out2))


class TestSolverParams:
    def test_defaults(self):
        p = solver_params_from_json(None)
        assert p.feas_tol == 1e-8 and p.max_iter == 200_000

    def test_overrides(self):
        p = solver_params_from_json({"feas_tol": 1e-6, "max_iter": 1000})
        assert p.feas_tol == 1e-6 and p.max_iter == 1000

    def test_seed_accepted_without_effect(self):
        assert solver_params_from_json({"seed": 5}) == solver_params_from_json(None)
        with pytest.raises(ValueError):
            solver_params_from_json({"seed": "five"})

    def test_unknown_key(self):
        with pytest.raises(FormatError, match="unknown solver parameter"):
            solver_params_from_json({"tol": 1.0})

    def test_nonpositive_tolerance(self):
        with pytest.raises(FormatError, match="positive"):
            solver_params_from_json({"feas_tol": 0.0})


class TestAtomicWrite:
    def test_write_and_no_temp_left(self, tmp_path):
        path = tmp_path / "out.json"
        write_atomic(str(path), report({"x": 1}))
        assert json.loads(path.read_text())["x"] == 1
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_points_diagnostics():
    with pytest.raises(FormatError, match="re, im"):
        json_to_points([[["x", 0]]])
    with pytest.raises(FormatError, match="modulus"):
        json_to_points([[[2.0, 0.0]]])


def test_array_parsing():
    arr = json_to_array([[[1.0, 2.0], [3.0, 4.0]]])
    assert arr.shape == (1, 2)
    assert arr[0, 0] == 1 + 2j


def test_certificate_roundtrip_revalidates():
    from aglerlab.realize import validate_certificate
    from aglerlab.serialize import certificate_to_json, json_to_certificate
    rng = np.random.default_rng(7)
    phi, _ = random_transfer_sample(rng, 3, 2)
    out = agler_decompose(phi, classical(2), 1.0)
    doc = json.loads(dumps(certificate_to_json(out.certificate)))
    back = json_to_certificate(doc, 1.0)
    ok, resid, _ = validate_certificate(phi, classical(2), 1.0, back, 1e-7)
    assert ok and resid < 1e-7
