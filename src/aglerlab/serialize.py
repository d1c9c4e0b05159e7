"""JSON schemas for kernels, problems, colligations, tuples, and reports.

Complex numbers are always [re, im] pairs of 64-bit floats.  Emission is
deterministic: insertion-ordered fields, floats printed with 17 significant
digits, and files written atomically (temp + rename).  The *_to_json helpers
build documents for `dumps` and `write_atomic`, with arrays left as float64
ndarrays; json.loads(dumps(doc)) gives the plain JSON values that json.dumps
and the json_to_* readers take.
"""
from __future__ import annotations

import functools
import json
import math
import os
import tempfile
from types import SimpleNamespace

import numpy as np

from . import kernels, opmodel, preorder, realize

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
    """The text of arr.tolist(): nested brackets and '%.17g' % x for each
    element, which equals format(x, '.17g') for every finite double.

    An array of at most _TEMPLATE_MAX elements, empty ones included, is
    printed with one template and one `%` call.  A larger one is printed by
    chunks of elements in ravel (document) order: each element becomes a row
    of NUL-padded little-endian words, four of its text from _element_words
    and then the brackets and comma that follow it, from the number of axes
    its index closes; bytes.translate drops the NULs of each chunk.  The
    first non-finite element in ravel order raises the per-element error."""
    flat = arr.ravel()
    bad = ~np.isfinite(flat)
    if bad.any():
        _format_float(float(flat[bad.argmax()]))
    if flat.size <= _TEMPLATE_MAX:
        template = "%.17g"
        for n in reversed(arr.shape):
            template = "[" + ",".join([template] * n) + "]"
        return template % tuple(flat.tolist())
    seps = _separator_words(arr.ndim)
    periods = np.cumprod(arr.shape[::-1])
    # one growing buffer: a string per chunk, then joined, raised peak RSS by ~2 MB
    text = bytearray(b"[" * arr.ndim)
    for start in range(0, flat.size, _CHUNK):
        x = flat[start:start + _CHUNK]
        words = np.empty((x.size, 4 + seps.shape[1]), "<u8")
        _element_words(x, words)
        # element i closes the axes whose period divides i + 1, the most last
        words[:, 4:] = seps[0]
        for closed, period in enumerate(periods, 1):
            words[(-start - 1) % period::period, 4:] = seps[closed]
        text += words.tobytes().translate(None, b"\0")
    return text.decode("ascii")


# ---------------------------------------------------------------------------
# '%.17g' in numpy
#
# '%.17g' % x prints U, the 17 significant digits of x correctly rounded, with
# exponent k: |x| rounds to U * 10^(k - 16), 10^16 <= U < 10^17.  By the %g
# rules it writes fixed notation for -4 <= k < 17 and d.ddde+XX otherwise,
# drops trailing zeros of the fraction and a '.' with nothing after it, and
# prints a '-' for every negative number and for -0.0.  _element_words builds
# those bytes for each element whose U it can certify, and prints the rest,
# which are rare, with '%.17g' itself.

_TEMPLATE_MAX = 200      # at 200 floats one `%` call and the numpy path both take ~0.1 ms
_CHUNK = 1 << 12         # elements per pass; their temporaries take about 1 MB
_K_MAX = 282             # the tables cover exponents |k| <= _K_MAX
_TIE_MARGIN = 2.0 ** -40  # U is certified unless D is this close to a half-integer
_SPLIT = 134217729.0     # 2^27 + 1: Dekker's splitter for doubles


def _word(text: str) -> int:
    """Up to 8 ASCII bytes as a little-endian word, NUL-padded."""
    return int.from_bytes(text.encode("ascii"), "little")


def _powers_of_ten():
    """10^q as hi + lo for q = 16 - k, k = _K_MAX, ..., -_K_MAX, with hi split
    as hh + hl for Dekker's product.  hi is 10^q rounded to a double and lo
    is 10^q - hi rounded, both by correctly rounded integer arithmetic (int
    to float, and int / int), so |hi + lo - 10^q| <= 2^-106 10^q."""
    hi, lo = [], []
    for q in range(16 - _K_MAX, 17 + _K_MAX):
        if q >= 0:
            hi.append(float(10 ** q))
            lo.append(float(10 ** q - int(hi[-1])))
        else:
            n = 10 ** -q
            hi.append(1 / n)
            a, b = hi[-1].as_integer_ratio()
            lo.append((b - a * n) / (n * b))
    hi = np.array(hi[::-1])
    c = hi * _SPLIT
    hh = c - (c - hi)
    return hi, np.array(lo[::-1]), hh, hi - hh


def _digit_tables():
    """For g < 10^4: its four ASCII digits as the low half of a word, and for
    each of the four groups that follow the leading digit, the place (1 to
    16) of g's last nonzero digit among those 16, or 0 when g is 0."""
    g = np.arange(10 ** 4)
    place = [(g // 10 ** (3 - i)) % 10 for i in range(4)]
    text = sum((48 + d).astype("<u8") << (8 * i) for i, d in enumerate(place))
    last = np.zeros(g.size, np.intp)
    for i, d in enumerate(place):
        last[d > 0] = i + 1
    return text, [np.where(g > 0, 4 * j + last, 0).astype(np.uint8) for j in range(4)]


@functools.cache
def _tables() -> SimpleNamespace:
    """The formatter's constant tables, read and never written.  They are
    built on first use, about 3 ms, so that a process that prints no array
    above _TEMPLATE_MAX elements never builds them."""
    t = SimpleNamespace()
    t.p_hi, t.p_lo, t.p_hh, t.p_hl = _powers_of_ten()  # by k + _K_MAX
    t.digits4, t.last4 = _digit_tables()
    # the first n bytes of a digit word, n = min(m, 8) and max(m - 8, 0) for m digits
    t.keep = np.array([(1 << 8 * min(n, 8)) - 1 for n in range(17)], "<u8")
    t.keep2 = np.array([(1 << 8 * max(n - 8, 0)) - 1 for n in range(17)], "<u8")
    # the word before the digits, by sign, layout, leading digit d and whether a
    # '.' follows d: layout 1 to 4 is k = -1 to -4, '0.' and -k - 1 zeros
    # before d, and layout 0 has d first; t.layout holds 20 * layout by k + _K_MAX
    t.prefix = np.array([_word(sign + ("0." + "0" * (layout - 1) if layout else "")
                               + str(d) + ("." if dot and not layout else ""))
                         for sign in ("", "-") for layout in range(5) for d in range(10)
                         for dot in (False, True)], "<u8")
    t.layout = np.array([20 * -k if -4 <= k < 0 else 0 for k in range(-_K_MAX, _K_MAX + 1)])
    # the exponent word by k + _K_MAX, empty where %g writes fixed notation
    t.exponent = np.array([0 if -4 <= k < 17 else _word("e%+03d" % k)
                           for k in range(-_K_MAX, _K_MAX + 1)], "<u8")
    t.zero = np.array([_word("0"), _word("-0")], "<u8")
    return t


def _separator_words(ndim: int) -> np.ndarray:
    """The words that follow an element, by the number j of axes its index
    closes: ']' * j, ',' and '[' * j inside the array, ']' * ndim at its end."""
    texts = ["]" * j + "," + "[" * j for j in range(ndim)] + ["]" * ndim]
    width = max(1, -(-max(map(len, texts)) // 8))  # a 0-d array gets one NUL word
    return np.array(texts, f"S{8 * width}").view("<u8").reshape(ndim + 1, width)


def _scaled(ax: np.ndarray, k: np.ndarray):
    """(floor, U, certified) for D = ax 10^q, q = 16 - k: U is D rounded to
    an integer where certified, and floor is U less its rounding-up bit.

    With hi + lo = 10^q to 2^-106 10^q, p = fl(ax hi) and e = ax hi - p
    exactly, by Dekker's product (for 1e-280 <= ax <= 1e280 and |k| <= _K_MAX
    its splits and partial products neither overflow nor underflow), and
    r = fl(e + fl(ax lo)).  log10 misses k by one at most, so D < 10^18 < 2^60:
    |e| <= 2^6 and |ax lo| <= 2^-53 D < 2^7, each rounding errs by at most
    2^-46, and so does ax (hi + lo - 10^q).  r is D - p to within 3 2^-46,
    a sixteenth of _TIE_MARGIN, and its fraction r - floor(r) is exact: where
    that is further than _TIE_MARGIN from 1/2, p + r and D round to the same
    integer.  p is an integer for D >= 2^53, and below that floor < 10^16."""
    t, i = _tables(), k + _K_MAX
    hi, hh, hl = t.p_hi.take(i), t.p_hh.take(i), t.p_hl.take(i)
    p = ax * hi
    c = ax * _SPLIT
    ah = c - (c - ax)
    al = ax - ah
    r = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + ax * t.p_lo.take(i)
    whole = np.floor(r)
    frac = r - whole
    floor = p.astype(np.int64) + whole.astype(np.int64)
    return floor, floor + (frac > 0.5), np.abs(frac - 0.5) > _TIE_MARGIN


def _element_words(x: np.ndarray, out: np.ndarray) -> None:
    """out[:, :4] = the text of '%.17g' % x for each finite element, as four
    NUL-padded little-endian words.

    For 1e-280 <= |x| <= 1e280, k is floor(log10 |x|), moved by one where
    log10 missed it, and U comes from _scaled; an exact 10^17 carries into k.
    An element whose U is not certified, or out of that range, is deferred:
    '%.17g' prints the deferred ones in one `%` call."""
    neg = np.signbit(x)
    ax = np.abs(x)
    zero = ax == 0
    fast = (ax >= 1e-280) & (ax <= 1e280)
    ax = np.where(fast, ax, 1.0)
    k = np.floor(np.log10(ax)).astype(np.intp)
    floor, U, ok = _scaled(ax, k)
    miss = np.flatnonzero((floor < 10 ** 16) | (U > 10 ** 17))
    if miss.size:
        k[miss] += np.where(floor[miss] < 10 ** 16, -1, 1)
        floor2, U2, ok2 = _scaled(ax[miss], k[miss])
        ok2 &= (floor2 >= 10 ** 16) & (U2 <= 10 ** 17)
        U[miss] = np.where(ok2, U2, 10 ** 16)
        ok[miss] = ok2
    carry = U == 10 ** 17
    U[carry] = 10 ** 16
    k += carry
    ok &= fast

    t = _tables()
    q8, lower = np.divmod(U, 10 ** 8)  # int32 is the faster type below 2^31
    lead, upper = np.divmod(q8.astype(np.int32), 10 ** 8)
    groups = (*np.divmod(upper, 10 ** 4), *np.divmod(lower.astype(np.int32), 10 ** 4))
    w1 = t.digits4.take(groups[0]) | (t.digits4.take(groups[1]) << 32)
    w2 = t.digits4.take(groups[2]) | (t.digits4.take(groups[3]) << 32)
    m = np.maximum(np.maximum(t.last4[0].take(groups[0]), t.last4[1].take(groups[1])),
                   np.maximum(t.last4[2].take(groups[2]), t.last4[3].take(groups[3])))
    i = k + _K_MAX
    out[:, 0] = t.prefix.take(t.layout.take(i) + neg * 100 + lead * 2 + (m > 0))
    out[:, 1] = w1 & t.keep.take(m)
    out[:, 2] = w2 & t.keep2.take(m)
    out[:, 3] = t.exponent.take(i)

    inner = np.flatnonzero(ok & (k >= 1) & (k <= 16))
    if inner.size:
        out[inner, :4] = _inner_point_words(neg[inner], lead[inner], w1[inner],
                                            w2[inner], m[inner], k[inner])
    rows = np.flatnonzero(zero)
    if rows.size:
        out[rows, 0] = t.zero.take(neg[rows].astype(np.intp))
        out[rows, 1:4] = 0
    rows = np.flatnonzero(~(ok | zero))
    if rows.size:
        texts = ("%.17g," * rows.size % tuple(x[rows].tolist())).split(",")[:-1]
        out[rows, :4] = np.array(texts, "S32").view("<u8").reshape(-1, 4)


def _inner_point_words(neg, lead, w1, w2, m, k) -> np.ndarray:
    """Four words of fixed notation for 1 <= k <= 16, where the '.' falls
    among the digits: the sign, k + 1 integer digits, and the '.' and the
    fraction only if m > k digits follow the leading one."""
    text = np.zeros((k.size, 32), np.uint8)
    text[:, 0] = neg * ord("-")
    text[:, 1] = lead + ord("0")
    digits = np.stack((w1, w2), axis=1).view(np.uint8)
    for kk in np.unique(k):
        rows = np.flatnonzero(k == kk)
        frac = m[rows] - kk
        text[rows, 2:2 + kk] = digits[rows, :kk]
        text[rows, 2 + kk] = np.where(frac > 0, ord("."), 0)
        text[rows, 3 + kk:19] = digits[rows, kk:] * (np.arange(16 - kk) < frac[:, None])
    return text.view("<u8")


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


def points_to_json(sample: kernels.PointSample):
    return array_to_json(sample.points)


def json_to_points(doc, path: str = "$.points") -> kernels.PointSample:
    pts = json_to_array(doc, path)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise FormatError(path, f"points must be N x d, got shape {pts.shape}")
    try:
        return kernels.PointSample(pts)
    except ValueError as exc:
        raise FormatError(path, str(exc)) from None


def kernel_to_json(K: kernels.HermitianKernel) -> dict:
    return {
        "points": points_to_json(K.sample),
        "block_dim": K.block_dim,
        "blocks": array_to_json(K.blocks),
    }


def json_to_kernel(doc, path: str = "$") -> kernels.HermitianKernel:
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
    # parts of at most max/(2 N m) keep K - K*, K + K* and, by Gershgorin, every
    # eigenvalue of the assembled N m x N m matrix finite
    bound = np.finfo(float).max / (2 * N * m)
    big = np.abs(blocks[..., None].view(float)) > bound
    if big.any():
        raise FormatError(path + ".blocks" + "".join(f"[{i}]" for i in np.argwhere(big)[0]),
                          f"too large: the kernel's parts must be at most {bound:.6g}, "
                          "max float / (2 N m)")
    try:
        return kernels.HermitianKernel(sample, blocks)
    except ValueError as exc:
        raise FormatError(f"{path}.blocks", str(exc)) from None


def preordering_to_json(p: preorder.Preordering):
    return [list(lam) for lam in p.sorted()]


# |1 - x conj(y)| < 2 on the polydisk, so every defect factor of an element of
# total degree at most this stays below 2^1023, inside the double range
MAX_DEGREE = 1023


def json_to_preordering(doc, path: str = "$.preordering") -> preorder.Preordering:
    if not isinstance(doc, list) or not all(isinstance(l, list) for l in doc):
        raise FormatError(path, "preordering must be an array of integer arrays")
    for i, lam in enumerate(doc):
        for j, v in enumerate(lam):
            _check_type(v, (int,), "an integer", f"{path}[{i}][{j}]")
            if abs(v) >= 2 ** 63:  # range() and numpy take nothing larger
                raise FormatError(f"{path}[{i}][{j}]", "must be an integer that fits 64 bits")
    try:
        pre = preorder.Preordering([tuple(lam) for lam in doc])
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


def certificate_to_json(cert: realize.AglerCertificate) -> dict:
    return {lambda_key(lam): kernel_to_json(cert.gammas[lam]) for lam in cert.lambdas()}


def json_to_certificate(doc, c: float, path: str = "$.certificate") -> realize.AglerCertificate:
    if not isinstance(doc, dict):
        raise FormatError(path, "certificate must be an object")
    gammas = {}
    for key, val in doc.items():
        lam = parse_lambda_key(key, f"{path}.{key}")
        gammas[lam] = json_to_kernel(val, f"{path}.{key}")
    return realize.AglerCertificate(gammas, c)


def colligation_to_json(col: realize.Colligation) -> dict:
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


def json_to_colligation(doc, path: str = "$") -> realize.Colligation:
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
        return realize.Colligation(mats["A"], mats["B"], mats["C"], mats["D"], tuple(part),
                                   contractive=contractive)
    except ValueError as exc:
        raise FormatError(path, str(exc)) from None


def function_sample_to_json(phi: realize.FunctionSample) -> dict:
    return {"points": points_to_json(phi.sample), "phi": array_to_json(phi.values)}


def json_to_function_sample(doc, path: str = "$") -> realize.FunctionSample:
    for key in ("points", "phi"):
        if key not in doc:
            raise FormatError(f"{path}.{key}", "missing field")
    sample = json_to_points(doc["points"], f"{path}.points")
    vals = json_to_array(doc["phi"], f"{path}.phi")
    if vals.ndim == 1:
        vals = vals[:, None, None]
    if vals.ndim != 3 or vals.shape[0] != sample.n_points:
        raise FormatError(f"{path}.phi", f"expected (N, m, m'), got {vals.shape}")
    return realize.FunctionSample(sample, vals)


def tuple_to_json(T) -> dict:
    return {
        "d": T.d,
        "q": T.q,
        "matrices": [array_to_json(M) for M in T.matrices],
    }


def json_to_tuple(doc, path: str = "$"):
    if not isinstance(doc, dict) or not isinstance(doc.get("matrices"), list):
        raise FormatError(path, "tuple document needs a matrices array")
    mats = [json_to_array(M, f"{path}.matrices[{i}]") for i, M in enumerate(doc["matrices"])]
    try:
        return opmodel.CommutingTuple(mats)
    except ValueError as exc:
        raise FormatError(f"{path}.matrices", str(exc)) from None


_NUMBER = ((int, float), "a number")
# a tolerance relative to the data's scale accepts eigenvalues down to
# -tol * scale; at 1 that test is already vacuous, and up to 1 the product
# cannot overflow
_RELATIVE = (lambda v: v <= 1, "at most 1, a tolerance relative to the data's scale")
# the solver fields: (JSON types, type name, range checks as (check, description))
_SOLVER_FIELDS = {
    "feas_tol": (*_NUMBER, ((lambda v: math.isfinite(_float_or_inf(v)) and v > 0,
                             "finite and positive"), _RELATIVE)),
    "max_iter": ((int,), "an integer", ((lambda v: v >= 0, ">= 0"),)),
    "force_iterative": ((bool,), "a boolean", ()),
}


def _check_type(val, types, name: str, path: str) -> None:
    """JSON type check; a bool is never taken for a number."""
    if not isinstance(val, types) or (bool not in types and isinstance(val, bool)):
        raise FormatError(path, f"must be {name}")


def json_number(doc: dict, key: str, default, relative: bool = False):
    """Top-level doc[key] as a finite float, or default when the field is absent;
    a tolerance, key "tol", must also be >= 0, and a relative one at most 1."""
    if key not in doc:
        return default
    _check_type(doc[key], *_NUMBER, f"$.{key}")
    if not math.isfinite(_float_or_inf(doc[key])):
        raise FormatError(f"$.{key}", "must be a finite number")
    if key == "tol" and doc[key] < 0:
        raise FormatError("$.tol", "must be finite and >= 0")
    valid, rule = _RELATIVE
    if relative and not valid(doc[key]):
        raise FormatError(f"$.{key}", f"must be {rule}")
    return float(doc[key])


def solver_params_from_json(doc, path: str = "$.solver") -> realize.SolverParams:
    """$.solver, each field checked for its JSON type and range; any other key
    is refused."""
    params = realize.SolverParams()
    if doc is None:
        return params
    if not isinstance(doc, dict):
        raise FormatError(path, "solver must be an object")
    for key, val in doc.items():
        if key not in _SOLVER_FIELDS:
            raise FormatError(f"{path}.{key}", "unknown solver parameter")
        types, name, checks = _SOLVER_FIELDS[key]
        _check_type(val, types, name, f"{path}.{key}")
        for valid, rule in checks:
            if not valid(val):
                raise FormatError(f"{path}.{key}", f"must be {rule}")
        setattr(params, key, type(getattr(params, key))(val))
    return params


def solver_params_to_json(params: realize.SolverParams) -> dict:
    """The report's echo: every field that $.solver accepts, in that order."""
    return {key: getattr(params, key) for key in _SOLVER_FIELDS}


def result_to_json(result: realize.DecomposeResult) -> dict:
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
