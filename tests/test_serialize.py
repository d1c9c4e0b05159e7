"""JSON schemas: round trips, float formatting, determinism, diagnostics."""
import contextlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from aglerlab import serialize
from aglerlab.kernels import szego_kernel
from aglerlab.preorder import Preordering, classical
from aglerlab.realize import Colligation, SolverParams, agler_decompose, lurking_isometry
from aglerlab.sampling import random_points, random_transfer_sample
from aglerlab.serialize import (FormatError, array_to_json, colligation_to_json, dumps,
                                json_to_array, json_to_colligation, json_to_kernel,
                                json_to_points, json_to_preordering, kernel_to_json,
                                lambda_key, parse_lambda_key, preordering_to_json,
                                report, result_to_json, solver_params_from_json,
                                solver_params_to_json, write_atomic)


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
        back = json_to_kernel(json.loads(dumps(kernel_to_json(K))))
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
        doc = json.loads(dumps(kernel_to_json(szego_kernel(s, (1,)))))
        doc["block_dim"] = 2
        with pytest.raises(FormatError, match=r"\.blocks"):
            json_to_kernel(doc)

    def test_non_hermitian_diagnosed(self):
        s = random_points(np.random.default_rng(3), 2, 1)
        doc = json.loads(dumps(kernel_to_json(szego_kernel(s, (1,)))))
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
        back = json_to_colligation(json.loads(dumps(colligation_to_json(col))))
        z = random_points(rng, 1, 2).points[0]
        assert np.allclose(eval_transfer(back, [z])[0], eval_transfer(col, [z])[0])

    def test_missing_field(self):
        with pytest.raises(FormatError, match="partition"):
            json_to_colligation({"A": [], "B": [], "C": [], "D": [[[1.0, 0.0]]]})

    def test_empty_state_space_roundtrip(self):
        col = Colligation(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)),
                          0.5 * np.eye(2), (), contractive=True)
        back = json_to_colligation(json.loads(dumps(colligation_to_json(col))))
        assert (back.A.shape, back.B.shape, back.C.shape) == ((0, 0), (0, 2), (2, 0))
        assert np.array_equal(back.D, col.D) and back.contractive
        assert dumps(colligation_to_json(back)) == dumps(colligation_to_json(col))


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

    def test_unknown_key(self):
        with pytest.raises(FormatError, match="unknown solver parameter"):
            solver_params_from_json({"tol": 1.0})

    @pytest.mark.parametrize("key, val", [("seed", 5), ("stall_window", 5),
                                          ("stall_rtol", 1e-9)])
    def test_fields_without_effect_are_unknown(self, key, val):
        with pytest.raises(FormatError, match=rf"^\$\.solver\.{key}: unknown solver parameter$"):
            solver_params_from_json({"feas_tol": 1e-6, key: val})

    def test_echo_is_the_accepted_fields(self):
        p = solver_params_from_json({"force_iterative": True, "max_iter": 7})
        assert list(solver_params_to_json(p).items()) == [
            ("feas_tol", 1e-8), ("max_iter", 7), ("force_iterative", True)]

    def test_nonpositive_tolerance(self):
        with pytest.raises(FormatError, match="positive"):
            solver_params_from_json({"feas_tol": 0.0})

    def test_force_iterative_must_be_boolean(self):
        assert solver_params_from_json({"force_iterative": True}).force_iterative is True
        with pytest.raises(FormatError, match=r"\.force_iterative: must be a boolean"):
            solver_params_from_json({"force_iterative": "false"})
        with pytest.raises(FormatError, match=r"\.force_iterative"):
            solver_params_from_json({"force_iterative": 1})

    @pytest.mark.parametrize("key", ["max_iter"])
    def test_counts_must_be_integers(self, key):
        assert solver_params_from_json({key: 7}) == SolverParams(max_iter=7)
        for bad in (2.9, 3.0, True, "3"):
            with pytest.raises(FormatError, match=rf"\.{key}: must be an integer"):
                solver_params_from_json({key: bad})

    @pytest.mark.parametrize("key", ["feas_tol"])
    def test_tolerances_must_be_numbers(self, key):
        assert getattr(solver_params_from_json({key: 1}), key) == 1.0
        assert getattr(solver_params_from_json({key: 1e-6}), key) == 1e-6
        for bad in (True, False, "1e-6", None):
            with pytest.raises(FormatError, match=rf"\.{key}: must be a number"):
                solver_params_from_json({key: bad})


    @pytest.mark.parametrize("key, bad", [("feas_tol", 0), ("feas_tol", -1.0),
                                          ("feas_tol", float("inf")), ("max_iter", -1)])
    def test_out_of_range(self, key, bad):
        with pytest.raises(FormatError, match=rf"^\$\.solver\.{key}: must be .*(>=|positive)"):
            solver_params_from_json({key: bad})


def test_arrays_must_be_finite():
    assert json_to_array([[1, 0], [0.5, -2]]).tolist() == [1, 0.5 - 2j]
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(FormatError, match=r"^\$\.x\[1\]\[1\]: must be a finite"):
            json_to_array([[1.0, 0.0], [0.5, bad]], "$.x")


# ---------------------------------------------------------------------------
# the one-conversion array reader against the pair-by-pair walk


# -0.0, subnormals, the largest double, and integers past 2^53 and 2^64 and
# up to the largest that a double holds
_EDGE_NUMBERS = [-0.0, 5e-324, -5e-324, 1.1125369292536007e-308, 1.7976931348623157e308,
                 2 ** 53 + 1, -(2 ** 53) - 1, 2 ** 64 + 1, -(2 ** 64) - 1, 2 ** 1024 - 2 ** 970 - 1]
_NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.integers(-(2 ** 70), 2 ** 70), st.sampled_from(_EDGE_NUMBERS))
# what no double holds, or no [re, im] pair takes: 2^1024 - 2^970 rounds up to 2^1024
_NOT_NUMBERS = [True, False, "1", None, {}, [], 10 ** 400, -(10 ** 400), 2 ** 1024 - 2 ** 970,
                float("inf"), float("nan")]


@st.composite
def _pair_arrays(draw, min_len=0):
    """Nested lists of [re, im] pairs, 0-4 axes above the pairs (depth 1-5)."""
    dims = draw(st.lists(st.integers(min_len, 3), max_size=4))

    def build(dims):
        if not dims:
            return [draw(_NUMBERS), draw(_NUMBERS)]
        return [build(dims[1:]) for _ in range(dims[0])]
    return build(dims), dims


def _read(doc, walk: bool):
    """json_to_array's dtype, shape and bytes, or its error; walk=True reads
    every document pair by pair."""
    with mock.patch.object(serialize, "_float_pairs", lambda doc: None) if walk \
            else contextlib.nullcontext():
        try:
            arr = json_to_array(doc, "$.x")
        except FormatError as exc:
            return str(exc)
    return arr.dtype.str, arr.shape, arr.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_pair_arrays())
def test_array_reader_is_the_walk_bit_for_bit(case):
    doc, dims = case
    if 0 not in dims:  # an empty axis leaves no pair to see, so the walk reads it
        assert serialize._float_pairs(doc) is not None
    got = _read(doc, walk=False)
    assert not isinstance(got, str) and got == _read(doc, walk=True)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_pair_arrays(min_len=1), data=st.data())
def test_array_reader_refuses_as_the_walk_does(case, data):
    doc, dims = case
    pair, parent = doc, None  # walk down to one pair, and the list that holds it
    for n in dims:
        parent = pair
        pair = pair[data.draw(st.integers(0, n - 1))]
    kinds = ["value", "triple", "nested"] + (["drop", "grow"] if parent else [])
    kind = data.draw(st.sampled_from(kinds))
    i = data.draw(st.integers(0, 1))
    if kind == "value":
        pair[i] = data.draw(st.sampled_from(_NOT_NUMBERS))
    elif kind == "triple":
        pair.append(pair[i])
    elif kind == "nested":  # a pair in place of a number in a pair
        pair[i] = [pair[i], 0.0]
    elif kind == "drop":  # ragged where the list held more than one entry
        parent.remove(pair)
    else:
        parent.append(1.0)
    got = _read(doc, walk=False)
    assert got == _read(doc, walk=True)
    if kind in ("value", "triple", "nested"):
        assert isinstance(got, str) and got.startswith("$.x")


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


# ---------------------------------------------------------------------------
# the array-at-once emitter against the per-element definitions it replaced


def reference_dumps(doc) -> str:
    out: list[str] = []
    _reference_emit(doc, out)
    return "".join(out)


def _reference_emit(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if x != x:
            raise ValueError("NaN is not serializable")
        if x in (float("inf"), float("-inf")):
            raise ValueError("infinity is not serializable")
        out.append(format(x, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(k)))
            out.append(":")
            _reference_emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _reference_emit(v, out)
        out.append("]")
    elif isinstance(obj, np.ndarray) and obj.dtype == np.float64:
        _reference_emit(obj.tolist(), out)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_array_to_json(arr):
    arr = np.asarray(arr)
    if arr.ndim == 0:
        z = complex(arr)
        return [float(np.real(z)), float(np.imag(z))]
    return [reference_array_to_json(sub) for sub in arr]


def outcome(emit, doc):
    """The text, or the type and message of the error, of emit(doc)."""
    try:
        return emit(doc)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


EMIT = settings(max_examples=150, deadline=None, derandomize=True)
MAX = np.finfo(float).max
EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16, 1e17, -1e17,
        9007199254740993.0, 12345678901234567.0, MAX, -MAX, np.nextafter(MAX, 0),
        -np.nextafter(MAX, 0)]
finite = (st.floats(allow_nan=False, allow_infinity=False)
          | st.floats(1e16, 1e17) | st.floats(-1e17, -1e16) | st.sampled_from(EDGE))
shapes = array_shapes(min_dims=0, max_dims=5, min_side=0, max_side=3)


def complex_arrays(parts=finite):
    return arrays(complex, shapes, elements=st.builds(complex, parts, parts))


scalars = (st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | finite
           | st.text(max_size=4))
documents = st.recursive(
    scalars | complex_arrays().map(array_to_json),
    lambda inner: (st.lists(inner, max_size=3) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=12)


@EMIT
@given(complex_arrays())
def test_fast_emitter_matches_reference_on_arrays(z):
    doc = array_to_json(z)
    assert dumps(doc) == reference_dumps(doc)


@EMIT
@given(documents)
def test_fast_emitter_matches_reference_on_documents(doc):
    assert outcome(dumps, doc) == outcome(reference_dumps, doc)


@EMIT
@given(complex_arrays().filter(lambda z: z.size), st.data())
def test_non_finite_raises_the_reference_error(z, data):
    bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    i = data.draw(st.integers(0, z.size - 1))
    z.flat[i] = data.draw(st.sampled_from([complex(bad, 0.0), complex(0.0, bad)]))
    doc = array_to_json(z)
    expected = outcome(reference_dumps, doc)
    assert isinstance(expected, tuple) and expected[0] is ValueError
    assert outcome(dumps, doc) == expected
    assert outcome(dumps, {"x": [doc, "s"]}) == expected


@EMIT
@given(st.one_of(
    arrays(np.complex128, shapes, elements=st.builds(complex, st.floats(), st.floats())),
    arrays(np.complex64, shapes,
           elements=st.builds(complex, st.floats(width=32), st.floats(width=32))),
    arrays(np.float64, shapes),
    arrays(np.int64, shapes)))
def test_array_to_json_matches_recursive_definition(arr):
    # repr tells -0.0 from 0.0 and a Python float from a numpy scalar
    out = array_to_json(arr)
    assert out.dtype == np.float64
    assert repr(out.tolist()) == repr(reference_array_to_json(arr))


def test_array_to_json_zero_dim():
    for arr in (np.array(1 + 2j), np.array(-0.0), np.array(3), np.complex64(0.1 - 0.2j)):
        assert repr(array_to_json(arr).tolist()) == repr(reference_array_to_json(arr))
    assert array_to_json(np.array(3)).tolist() == [3.0, 0.0]


@EMIT
@given(arrays(np.float64, shapes, elements=finite))
def test_float_array_prints_as_its_list(arr):
    assert dumps(arr) == reference_dumps(arr.tolist())
    assert dumps({"a": arr}) == reference_dumps({"a": arr.tolist()})


@pytest.mark.parametrize("shape", [(0, 2), (2, 0, 2), (0, 0, 2), ()])
def test_empty_and_zero_dim_arrays_print_as_their_list(shape):
    arr = np.full(shape, 0.5)
    assert dumps(arr) == reference_dumps(arr.tolist())
    assert dumps([arr, {"a": arr}]) == reference_dumps([arr.tolist(), {"a": arr.tolist()}])


@pytest.mark.parametrize("arr", [np.zeros(2, dtype=np.int64), np.zeros(2, dtype=complex),
                                 np.array([0.5, None], dtype=object)])
def test_other_arrays_are_refused_wherever_they_sit(arr):
    for doc in (arr, {"a": arr}, [1.0, arr], {"a": [arr]}):
        with pytest.raises(TypeError, match="cannot serialize ndarray"):
            dumps(doc)


@pytest.mark.parametrize("first, second", [(np.nan, np.inf), (-np.inf, np.nan)])
def test_first_non_finite_in_document_order_is_named(first, second):
    arr = np.zeros((2, 3, 2))
    arr[0, 2, 1], arr[1, 0, 0] = first, second
    view = arr.transpose(1, 0, 2)  # its document order is not its memory order
    for doc in (arr, view):
        assert outcome(dumps, doc) == outcome(reference_dumps, doc)
    assert outcome(dumps, arr) != outcome(dumps, view)


# ---------------------------------------------------------------------------
# the numpy formatter against '%.17g', element by element


def _ties() -> np.ndarray:
    """Doubles m / 2^j, m odd, with exactly 18 significant digits, the last a
    5: exact ties at 17 digits, whose rounding '%.17g' must decide."""
    rng = np.random.default_rng(3)
    out = []
    for j in range(2, 24):
        lo, hi = -(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53)
        m = rng.integers(lo, hi, 40) | 1
        out.append(m[(m >= lo) & (m < hi)] / 2.0 ** j)
    return np.concatenate(out)


def _near_powers() -> np.ndarray:
    """Every power of ten in the double range times 1, 5 and 9.5, with its
    neighbours at 1 and 2 ulps, both signs: each change of k, of layout and
    of exponent width."""
    base = np.array([float(f"{s}e{e}") for e in range(-323, 309) for s in (1, 5, 9.5)])
    base = base[np.isfinite(base)]
    steps = [base]
    for direction in (np.inf, -np.inf):
        x = base
        for _ in range(2):
            x = np.nextafter(x, direction)
            steps.append(x)
    near = np.concatenate(steps)
    return np.concatenate((near[np.isfinite(near)], -near[np.isfinite(near)]))


def _value_sets():
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2 ** 64, 10 ** 5, dtype=np.uint64).view(np.float64)
    big = rng.integers(10 ** 16, 10 ** 19, 4000, dtype=np.uint64).astype(float)
    return {
        "normal": rng.standard_normal(10 ** 5),
        "normal-1e-17": rng.standard_normal(10 ** 5) * 1e-17,
        "log-uniform": 10 ** rng.uniform(-304, 304, 10 ** 5) * rng.choice([-1, 1], 10 ** 5),
        "bits": bits[np.isfinite(bits)],
        "near-powers": _near_powers(),
        "integers-17-19-digits": np.concatenate((big, -big)),
        "ties": np.concatenate((_ties(), -_ties())),
        "inner-point": rng.standard_normal(4000) * 10.0 ** rng.integers(1, 17, 4000),
        "eighths": rng.integers(-10 ** 6, 10 ** 6, 4000) / 8,
        "edges": np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                           1.7976931348623157e308, -1.7976931348623157e308,
                           9.9999999999999995e-5, 99999999999999999.0, 1e16, 1e17,
                           1234567890123456.25, 0.5, 12.5, 1200.0]),
    }


_VALUES = _value_sets()


@pytest.mark.parametrize("name", sorted(_VALUES))
def test_formatter_prints_each_float_as_percent_17g(name):
    arr = _VALUES[name]
    assert dumps(arr) == "[" + ",".join("%.17g" % x for x in arr.tolist()) + "]"


def test_ties_are_deferred_to_percent_17g(monkeypatch):
    # the rounding of an exact tie is decided by '%.17g', never by the fast path:
    # certify every element, and the ties print wrongly
    ties = _VALUES["ties"]
    expected = dumps(ties)
    assert expected == reference_dumps(ties.tolist())
    monkeypatch.setattr(serialize, "_TIE_MARGIN", -1.0)
    assert dumps(ties) != expected


@pytest.mark.parametrize("name", ["normal", "near-powers", "edges"])
def test_deferring_every_element_prints_the_same_text(name, monkeypatch):
    arr = _VALUES[name][:3000]
    arr = arr[:arr.size - arr.size % 6]
    expected = reference_dumps(arr.tolist()), reference_dumps(arr.reshape(-1, 2, 3).tolist())
    monkeypatch.setattr(serialize, "_TIE_MARGIN", 1.0)
    assert (dumps(arr), dumps(arr.reshape(-1, 2, 3))) == expected


@pytest.mark.parametrize("numpy_path", [False, True])
@pytest.mark.parametrize("shape", [(0,), (3, 0), (), (5,), (2, 3, 4, 2), (4, 4, 1, 1, 2),
                                   (serialize._TEMPLATE_MAX,), (serialize._TEMPLATE_MAX + 1,)])
def test_shapes_print_as_their_list(shape, numpy_path, monkeypatch):
    if numpy_path:  # every nonempty array, however small
        monkeypatch.setattr(serialize, "_TEMPLATE_MAX", 0)
    rng = np.random.default_rng(5)
    arr = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    assert dumps(arr) == reference_dumps(arr.tolist())
    assert dumps({"a": [arr]}) == reference_dumps({"a": [arr.tolist()]})


def test_chunks_join_with_deferred_elements_at_the_edges():
    # a tie and an element out of the certified range on each side of each chunk edge
    # rows, brackets and commas run across each edge
    chunk = serialize._CHUNK
    shaped = np.random.default_rng(6).standard_normal((7, chunk // 7 + 1, 2))
    flat = shaped.reshape(-1)
    for edge in (chunk, 2 * chunk - 1):
        flat[edge - 2:edge + 2] = (1234567890123456.25, -5e-324, 1e305, -0.0)
    assert dumps(shaped) == reference_dumps(shaped.tolist())


@EMIT
@given(arrays(np.float64, shapes, elements=finite), st.integers(1, 7))
def test_any_chunk_size_prints_the_same_text(arr, chunk):
    with mock.patch.object(serialize, "_CHUNK", chunk), \
            mock.patch.object(serialize, "_TEMPLATE_MAX", 0):
        assert dumps(arr) == reference_dumps(arr.tolist())


@pytest.mark.parametrize("bad, message", [(np.nan, "NaN is not serializable"),
                                          (np.inf, "infinity is not serializable"),
                                          (-np.inf, "infinity is not serializable")])
def test_first_non_finite_of_a_long_array_is_refused(bad, message):
    # the first in ravel order sits in the second chunk, another kind in the third
    arr = np.ones((3, serialize._CHUNK))
    arr[1, 7], arr[2, 5] = bad, np.inf if bad != bad else np.nan
    with pytest.raises(ValueError, match=f"^{message}$"):
        dumps(arr)
