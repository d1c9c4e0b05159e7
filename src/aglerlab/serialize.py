"""JSON schemas for kernels, problems, colligations, tuples, and reports.

Complex numbers are always [re, im] pairs of 64-bit floats.  Emission is
deterministic: insertion-ordered fields, floats printed with 17 significant
digits, and files written atomically (temp + rename).  The *_to_json helpers
build documents for `dumps` and `write_atomic`, with arrays left as float64
ndarrays; json.loads(dumps(doc)) gives the plain JSON values that json.dumps
and the json_to_* readers take.
"""
from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from .kernels import HermitianKernel, PointSample
from .preorder import Preordering
from .realize import (AglerCertificate, Colligation, DecomposeResult, FunctionSample,
                      SolverParams)

SCHEMA = "agler-lab/1"


class FormatError(ValueError):
    """Malformed document; carries a JSON-pointer-ish field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# ---------------------------------------------------------------------------
# emission


def _format_float(x: float) -> str:
    if x != x:
        raise ValueError("NaN is not serializable")
    if x in (float("inf"), float("-inf")):
        raise ValueError("infinity is not serializable")
    return format(float(x), ".17g")


def dumps(doc) -> str:
    """Deterministic JSON text with 17-significant-digit floats.  A float64
    ndarray prints as nested arrays wherever it sits; no other ndarray does."""
    pieces: list[str] = []
    _emit(doc, pieces)
    return "".join(pieces)


def _emit(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):  # numpy comparisons give np.bool_
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(k)))
            out.append(":")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _emit(v, out)
        out.append("]")
    elif isinstance(obj, np.ndarray) and obj.dtype == np.float64:
        out.append(_float_array_text(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _float_array_text(arr: np.ndarray) -> str:
    """A float64 array in one `%` call: '%.17g' % x equals format(x, '.17g')
    for every finite double, so the text is that of arr.tolist().  The first
    non-finite element in ravel (document) order raises the per-element error."""
    bad = arr[~np.isfinite(arr)]
    if bad.size:
        _format_float(float(bad[0]))
    template = "%.17g"
    for n in reversed(arr.shape):
        template = "[" + ",".join([template] * n) + "]"
    return template % tuple(arr.ravel().tolist())


def write_atomic(path: str, doc) -> None:
    text = dumps(doc) + "\n"
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".agler-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# complex arrays


def array_to_json(arr: np.ndarray) -> np.ndarray:
    """A complex array as a float64 array whose last axis holds [re, im] pairs."""
    z = np.asarray(arr, dtype=complex)
    return np.stack((z.real, z.imag), axis=-1)


def json_to_array(doc, path: str = "$") -> np.ndarray:
    """Nested [re, im] lists back to a complex ndarray, in one conversion.

    A rectangular array of int and float pairs goes through numpy once, as
    float64 pairs viewed as complex, which keeps a -0.0 in either part.  Any
    other document goes through _walk_pairs, which names the field it refuses.
    A number that does not fit a float, 1e999 or an integer past 1.8e308,
    is refused as not finite."""
    pairs = _float_pairs(doc)
    arr = _walk_pairs(doc, path) if pairs is None else pairs.view(complex)[..., 0]
    bad = ~np.isfinite(arr[..., None].view(float))
    if bad.any():  # JSON text cannot spell these, but 1e999 parses as inf
        raise FormatError(path + "".join(f"[{i}]" for i in np.argwhere(bad)[0]),
                          "must be a finite number")
    return arr


def _float_pairs(doc) -> np.ndarray | None:
    """doc as a float64 array whose last axis holds the pairs, or None unless
    it is a rectangular array of [re, im] pairs of ints and floats that all fit
    a float."""
    if not isinstance(doc, list):
        return None
    try:
        vals = np.array(doc, dtype=object)
    except ValueError:  # nesting too uneven for numpy even to hold the lists
        return None
    if vals.shape[-1:] != (2,) or not set(map(type, vals.flat)) <= {int, float}:
        return None  # type() is exact, so a bool is refused here
    try:
        return vals.astype(float)
    except OverflowError:  # an integer past the float range
        return None


def _walk_pairs(doc, path: str) -> np.ndarray:
    """The complex array of doc, read pair by pair, or the FormatError that
    names the first field that is not a number in an [re, im] pair, or a
    ragged array; an integer too large for a float reads as inf."""
    def parse(node, p):
        if isinstance(node, list) and len(node) == 2 and not any(
                isinstance(v, list) for v in node):
            for i, v in enumerate(node):
                _check_type(v, (int, float), "a number in an [re, im] pair", f"{p}[{i}]")
            return complex(*(_float_or_inf(v) for v in node))
        if isinstance(node, list):
            return [parse(v, f"{p}[{i}]") for i, v in enumerate(node)]
        raise FormatError(p, "expected [re, im] pair or nested array")
    parsed = parse(doc, path)
    try:
        return np.array(parsed, dtype=complex)
    except ValueError as exc:
        raise FormatError(path, f"ragged complex array: {exc}") from None


def _float_or_inf(v) -> float:
    """A JSON number as a float; an integer past the float range is inf, so
    that it is refused as 1e999 is."""
    try:
        return float(v)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# domain objects


def points_to_json(sample: PointSample):
    return array_to_json(sample.points)


def json_to_points(doc, path: str = "$.points") -> PointSample:
    pts = json_to_array(doc, path)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise FormatError(path, f"points must be N x d, got shape {pts.shape}")
    try:
        return PointSample(pts)
    except ValueError as exc:
        raise FormatError(path, str(exc)) from None


def kernel_to_json(K: HermitianKernel) -> dict:
    return {
        "points": points_to_json(K.sample),
        "block_dim": K.block_dim,
        "blocks": array_to_json(K.blocks),
    }


def json_to_kernel(doc, path: str = "$") -> HermitianKernel:
    if not isinstance(doc, dict):
        raise FormatError(path, "kernel must be an object")
    for key in ("points", "block_dim", "blocks"):
        if key not in doc:
            raise FormatError(f"{path}.{key}", "missing field")
    sample = json_to_points(doc["points"], f"{path}.points")
    blocks = json_to_array(doc["blocks"], f"{path}.blocks")
    m = doc["block_dim"]
    _check_type(m, (int,), "an integer", f"{path}.block_dim")
    N = sample.n_points
    if blocks.shape != (N, N, m, m):
        raise FormatError(f"{path}.blocks",
                          f"expected shape {(N, N, m, m)}, got {blocks.shape}")
    try:
        return HermitianKernel(sample, blocks)
    except ValueError as exc:
        raise FormatError(f"{path}.blocks", str(exc)) from None


def preordering_to_json(p: Preordering):
    return [list(lam) for lam in p.sorted()]


# |1 - x conj(y)| < 2 on the polydisk, so every defect factor of an element of
# total degree at most this stays below 2^1023, inside the double range
MAX_DEGREE = 1023


def json_to_preordering(doc, path: str = "$.preordering") -> Preordering:
    if not isinstance(doc, list) or not all(isinstance(l, list) for l in doc):
        raise FormatError(path, "preordering must be an array of integer arrays")
    for i, lam in enumerate(doc):
        for j, v in enumerate(lam):
            _check_type(v, (int,), "an integer", f"{path}[{i}][{j}]")
            if abs(v) >= 2 ** 63:  # range() and numpy take nothing larger
                raise FormatError(f"{path}[{i}][{j}]", "must be an integer that fits 64 bits")
    try:
        pre = Preordering([tuple(lam) for lam in doc])
    except (TypeError, ValueError) as exc:
        raise FormatError(path, str(exc)) from None
    for i, lam in enumerate(doc):
        if sum(lam) > MAX_DEGREE:
            raise FormatError(f"{path}[{i}]", f"total degree must be at most {MAX_DEGREE}")
    return pre


def lambda_key(lam) -> str:
    return ",".join(str(int(v)) for v in lam)


def parse_lambda_key(key: str, path: str):
    try:
        return tuple(int(v) for v in key.split(","))
    except ValueError:
        raise FormatError(path, f"bad multi-index key {key!r}") from None


def certificate_to_json(cert: AglerCertificate) -> dict:
    return {lambda_key(lam): kernel_to_json(cert.gammas[lam]) for lam in cert.lambdas()}


def json_to_certificate(doc, c: float, path: str = "$.certificate") -> AglerCertificate:
    if not isinstance(doc, dict):
        raise FormatError(path, "certificate must be an object")
    gammas = {}
    for key, val in doc.items():
        lam = parse_lambda_key(key, f"{path}.{key}")
        gammas[lam] = json_to_kernel(val, f"{path}.{key}")
    return AglerCertificate(gammas, c)


def colligation_to_json(col: Colligation) -> dict:
    doc = {
        "A": array_to_json(col.A),
        "B": array_to_json(col.B),
        "C": array_to_json(col.C),
        "D": array_to_json(col.D),
        "partition": [{"lambda": list(lam), "mult": mult} for lam, mult in col.partition],
    }
    if col.contractive:
        doc["contractive"] = True
    return doc


def json_to_colligation(doc, path: str = "$") -> Colligation:
    if not isinstance(doc, dict):
        raise FormatError(path, "colligation must be an object")
    for key in ("A", "B", "C", "D", "partition"):
        if key not in doc:
            raise FormatError(f"{path}.{key}", "missing field")
    mats = {k: json_to_array(doc[k], f"{path}.{k}") for k in "ABCD"}
    m = np.atleast_2d(mats["D"]).shape[0]
    for k, shape in (("A", (0, 0)), ("B", (0, m)), ("C", (m, 0))):
        if mats[k].size == 0:  # an empty state space (E = 0) writes A and B as []
            mats[k] = mats[k].reshape(shape)
    part = []
    if not isinstance(doc["partition"], list):
        raise FormatError(f"{path}.partition", "must be an array")
    for i, entry in enumerate(doc["partition"]):
        if (not isinstance(entry, dict) or not isinstance(entry.get("lambda"), list)
                or not all(type(v) is int for v in entry["lambda"])
                or type(entry.get("mult")) is not int):
            raise FormatError(f"{path}.partition[{i}]",
                              "need lambda, an array of integers, and an integer mult")
        part.append((tuple(entry["lambda"]), entry["mult"]))
    contractive = doc.get("contractive", False)
    _check_type(contractive, (bool,), "a boolean", f"{path}.contractive")
    try:
        return Colligation(mats["A"], mats["B"], mats["C"], mats["D"], tuple(part),
                           contractive=contractive)
    except ValueError as exc:
        raise FormatError(path, str(exc)) from None


def function_sample_to_json(phi: FunctionSample) -> dict:
    return {"points": points_to_json(phi.sample), "phi": array_to_json(phi.values)}


def json_to_function_sample(doc, path: str = "$") -> FunctionSample:
    for key in ("points", "phi"):
        if key not in doc:
            raise FormatError(f"{path}.{key}", "missing field")
    sample = json_to_points(doc["points"], f"{path}.points")
    vals = json_to_array(doc["phi"], f"{path}.phi")
    if vals.ndim == 1:
        vals = vals[:, None, None]
    if vals.ndim != 3 or vals.shape[0] != sample.n_points:
        raise FormatError(f"{path}.phi", f"expected (N, m, m'), got {vals.shape}")
    return FunctionSample(sample, vals)


def tuple_to_json(T) -> dict:
    return {
        "d": T.d,
        "q": T.q,
        "matrices": [array_to_json(M) for M in T.matrices],
    }


def json_to_tuple(doc, path: str = "$"):
    from .opmodel import CommutingTuple
    if not isinstance(doc, dict) or not isinstance(doc.get("matrices"), list):
        raise FormatError(path, "tuple document needs a matrices array")
    mats = [json_to_array(M, f"{path}.matrices[{i}]") for i, M in enumerate(doc["matrices"])]
    try:
        return CommutingTuple(mats)
    except ValueError as exc:
        raise FormatError(f"{path}.matrices", str(exc)) from None


_NUMBER = ((int, float), "a number")
# the solver fields: (JSON types, type name, range check or None, range description)
_SOLVER_FIELDS = {
    "feas_tol": (*_NUMBER, lambda v: math.isfinite(_float_or_inf(v)) and v > 0,
                 "finite and positive"),
    "max_iter": ((int,), "an integer", lambda v: v >= 0, ">= 0"),
    "force_iterative": ((bool,), "a boolean", None, ""),
}


def _check_type(val, types, name: str, path: str) -> None:
    """JSON type check; a bool is never taken for a number."""
    if not isinstance(val, types) or (bool not in types and isinstance(val, bool)):
        raise FormatError(path, f"must be {name}")


def json_number(doc: dict, key: str, default):
    """Top-level doc[key] as a finite float, or default when the field is absent;
    a tolerance, key "tol", must also be >= 0."""
    if key not in doc:
        return default
    _check_type(doc[key], *_NUMBER, f"$.{key}")
    if not math.isfinite(_float_or_inf(doc[key])):
        raise FormatError(f"$.{key}", "must be a finite number")
    if key == "tol" and doc[key] < 0:
        raise FormatError("$.tol", "must be finite and >= 0")
    return float(doc[key])


def solver_params_from_json(doc, path: str = "$.solver") -> SolverParams:
    """$.solver, each field checked for its JSON type and range; any other key
    is refused."""
    params = SolverParams()
    if doc is None:
        return params
    if not isinstance(doc, dict):
        raise FormatError(path, "solver must be an object")
    for key, val in doc.items():
        if key not in _SOLVER_FIELDS:
            raise FormatError(f"{path}.{key}", "unknown solver parameter")
        types, name, valid, rule = _SOLVER_FIELDS[key]
        _check_type(val, types, name, f"{path}.{key}")
        if valid is not None and not valid(val):
            raise FormatError(f"{path}.{key}", f"must be {rule}")
        setattr(params, key, type(getattr(params, key))(val))
    return params


def solver_params_to_json(params: SolverParams) -> dict:
    """The report's echo: every field that $.solver accepts, in that order."""
    return {key: getattr(params, key) for key in _SOLVER_FIELDS}


def result_to_json(result: DecomposeResult) -> dict:
    doc = {"status": result.status}
    doc["certificate"] = (certificate_to_json(result.certificate)
                          if result.certificate else {})
    if result.witness is not None:
        doc["witness"] = kernel_to_json(result.witness.kernel)
        doc["witness_pairing"] = result.witness.pairing
    doc["residual"] = float(result.residual)
    doc["iterations"] = int(result.iterations)
    return doc


def report(body: dict) -> dict:
    """Wrap a result body in the versioned report envelope."""
    doc = {"schema": SCHEMA}
    doc.update(body)
    return doc
