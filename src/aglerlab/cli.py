"""Batch front end: JSON problems in, machine-readable reports out.

One pipeline: `main` reads the document, a command body checks its fields and
returns (report body, exit code), and `main` emits the report once.  A report
is a function of its document: the flags choose only where the document comes
from and where the report and progress notes go.

Exit codes: 0 success, 2 infeasible with witness, 3 unresolved, 1 usage or
input errors.  The BLAS takes its thread count from its own variable
(OPENBLAS_NUM_THREADS or that BLAS's), set before launch.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import auxfun, kernels, opmodel, pick, preorder, realize, serialize
from ._linalg import spectral_norm
from .serialize import FormatError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_UNRESOLVED = 3
STATUS_EXIT = {"feasible": EXIT_OK, "infeasible": EXIT_INFEASIBLE,
               "unresolved": EXIT_UNRESOLVED}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="input JSON file (default: stdin)")
    common.add_argument("--output", help="output JSON file (default: stdout)")
    common.add_argument("--quiet", action="store_true", help="suppress progress notes")

    parser = argparse.ArgumentParser(
        prog="agler-lab",
        description="Certificates, realizations, and interpolation for "
                    "Schur-Agler classes on finite samples.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        command = sub.add_parser(name, parents=[common], help=help_text)
        if name == "example":
            command.add_argument("name", choices=["parrott", "gkvw", "kv"])
    return parser


def _reject_constant(name: str, text: str):
    """parse_constant hook: NaN, Infinity and -Infinity are not JSON.  The decoder
    does not say where it stands; everything before decoded, so it stands at the
    first such token outside a string."""
    tokens = re.finditer(r'"(?:[^"\\]|\\.)*"|(-?Infinity|NaN)', text)
    pos = next(token.start(1) for token in tokens if token.group(1))
    raise json.JSONDecodeError(f"{name} is not a JSON number", text, pos)


def _read_input(args) -> dict:
    if args.input:
        try:
            with open(args.input) as fh:
                text = fh.read()
        except OSError as exc:  # a missing file, or a directory
            raise ValueError(f"cannot read {args.input}: {exc.strerror}") from None
    else:
        text = sys.stdin.read()
    if not text.strip():
        raise FormatError("$", "empty input document")
    try:
        doc = json.loads(text, parse_constant=lambda name: _reject_constant(name, text))
    except json.JSONDecodeError as exc:
        raise FormatError(f"line {exc.lineno} column {exc.colno}", exc.msg) from None
    if not isinstance(doc, dict):
        raise FormatError("$", "top-level document must be an object")
    return doc


def _required(doc: dict, key: str):
    if key not in doc:
        raise FormatError(f"$.{key}", "missing field")
    return doc[key]


def _preordering(doc: dict, d: int):
    pre = serialize.json_to_preordering(doc.get("preordering"), "$.preordering")
    if pre.d != d:
        raise FormatError("$.preordering", f"dimension {pre.d} != point dimension {d}")
    return pre


def _finite_defects(doc: dict, pre, defect) -> None:
    """Refuse, by its path, the first maximal element lam of the document's
    preordering whose defect(lam) has an entry that is not finite."""
    maxima = preorder.minimal_reduction(pre).elements
    for i, lam in enumerate(doc["preordering"]):
        if tuple(lam) in maxima:
            with np.errstate(over="ignore", invalid="ignore"):
                finite = np.isfinite(defect(tuple(lam))).all()
            if not finite:
                raise FormatError(f"$.preordering[{i}]", "defect is not finite")


def _finite_target(path: str, term) -> None:
    """Refuse, by its path, a field whose term() of the solver's target
    overflows: the solve would run on inf and NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(term()).all()
    if not finite:
        raise FormatError(path, "too large: the solver's target overflows")


def _revalidate(sample, preordering, params, cert, cert_R, witness, witness_R) -> None:
    """Refuse to emit a certificate or witness, if given, failing on its target R."""
    if cert is not None and not realize.validate_certificate_target(
            sample, preordering, cert_R, cert, params.feas_tol)[0]:
        raise ArithmeticError("certificate failed re-validation; refusing to emit")
    if witness is not None and realize.validate_witness_target(
            sample, preordering, witness_R, witness.kernel, params.feas_tol) is None:
        raise ArithmeticError("witness failed re-validation; refusing to emit")


def _fitted(error: float, scale: float, params) -> float:
    """error, the worst miss |a W - b| of a colligation at its nodes, checked
    before it is emitted: above feas_tol * max(1, scale), with scale the
    largest |a|, the colligation is refused."""
    bound = params.feas_tol * max(1.0, scale)
    if not error <= bound:  # a NaN miss is refused too
        raise ArithmeticError(f"colligation misses its data by {error:.3e} > {bound:.3e}; "
                              "refusing to emit")
    return error


def _decided(header: dict, result, sample, preordering, R, params) -> tuple[dict, int]:
    """The decision step: re-validate result on target R before anything is
    written, then the header followed by the result, and the status's exit code."""
    _revalidate(sample, preordering, params, result.certificate, R, result.witness, R)
    return {**header, **serialize.result_to_json(result)}, STATUS_EXIT[result.status]


def _tuple_from(doc):
    """The commuting tuple a document names (built-in) or spells out."""
    if "name" in doc:
        return opmodel.builtin_tuple(doc["name"])
    if "tuple" in doc:
        return serialize.json_to_tuple(doc["tuple"], "$.tuple")
    raise FormatError("$.tuple", "need a tuple or a built-in name")


# ---------------------------------------------------------------------------
# command bodies: (doc, args) -> (report body, exit code)


def cmd_check_kernel(doc, args):
    K = serialize.json_to_kernel(_required(doc, "kernel"), "$.kernel")
    pre = _preordering(doc, K.sample.d)
    _finite_defects(doc, pre, lambda lam: (
        kernels.scalar_schur(K, kernels.defect_factor(K.sample, lam)).blocks))
    rep = kernels.is_admissible(K, pre, serialize.json_number(doc, "tol", 1e-10, relative=True))
    min_eigs = {serialize.lambda_key(lam): v for lam, v in sorted(rep.min_eigs.items())}
    body = {"command": "check-kernel", "admissible": rep.admissible, "min_eigs": min_eigs,
            "worst_eig": rep.worst_eig}
    if rep.worst_lambda is not None:
        body["worst_lambda"] = list(rep.worst_lambda)
    return body, EXIT_OK


def cmd_aux(doc, args):
    sample = serialize.json_to_points(_required(doc, "points"), "$.points")
    lam = _required(doc, "lambda")
    if not isinstance(lam, list) or not all(type(v) is int for v in lam):
        raise FormatError("$.lambda", "must be an array of integers")
    lam = tuple(lam)
    mode = doc.get("mode", "raw")
    body = {"command": "aux", "mode": mode, "lambda": list(lam)}
    if mode == "raw":
        aux = auxfun.aux_function(sample, lam)
        body.update(n=aux.n, sigma=dict(enumerate(serialize.array_to_json(aux.sigmas))),
                    max_norm=float(aux.norms().max()))
    elif mode == "extended":
        ext = auxfun.extend_aux_finite(sample, lam, _preordering(doc, sample.d))
        body.update(n=ext.aux.n,
                    sigma=dict(enumerate(serialize.array_to_json(ext.aux.sigmas))),
                    completion_norm=ext.completion_norm,
                    identity_residual=ext.identity_residual,
                    defect_min_eig=ext.defect_min_eig,
                    boundary_points=list(ext.boundary_points))
    elif mode == "verify":
        K = serialize.json_to_kernel(_required(doc, "kernel"), "$.kernel")
        body["residual"] = auxfun.verify_defect_identity(sample, lam, K)
    else:
        raise FormatError("$.mode", f"unknown mode {mode!r}")
    return body, EXIT_OK


def cmd_decompose(doc, args):
    """decompose, and realize: the decomposition plus the colligation that a
    feasible answer synthesizes and its round-trip error on the sample."""
    phi = serialize.json_to_function_sample(doc, "$")
    pre = _preordering(doc, phi.sample.d)
    c = serialize.json_number(doc, "c", 1.0)
    _finite_target("$.phi", lambda: realize.target_blocks(phi, 0.0))
    _finite_target("$.c", lambda: c * c)
    params = serialize.solver_params_from_json(doc.get("solver"))
    result = realize.agler_decompose(phi, pre, c, params)
    body, code = _decided({"command": args.command, "c": c,
                           "solver": serialize.solver_params_to_json(params)},
                          result, phi.sample, pre, realize.target_blocks(phi, c), params)
    if args.command == "realize" and result.feasible:
        col = realize.lurking_isometry(result.certificate, phi, params.feas_tol)
        W = realize.eval_transfer(col, phi.sample.points)
        body["colligation"] = serialize.colligation_to_json(col)
        body["roundtrip_max_error"] = _fitted(float(np.abs(c * W - phi.values).max()),
                                              abs(c), params)
    return body, code


def cmd_eval(doc, args):
    col = serialize.json_to_colligation(_required(doc, "colligation"), "$.colligation")
    pts = serialize.json_to_array(_required(doc, "points"), "$.points")
    if pts.ndim == 0:
        raise FormatError("$.points", "expected an array of points, got one [re, im] pair")
    W = realize.eval_transfer(col, pts.reshape(len(pts), math.prod(pts.shape[1:])))
    return {"command": "eval", "values": serialize.array_to_json(W),
            "norms": spectral_norm(W)}, EXIT_OK


def cmd_norm(doc, args):
    phi = serialize.json_to_function_sample(doc, "$")
    pre = _preordering(doc, phi.sample.d)
    params = serialize.solver_params_from_json(doc.get("solver"))
    tol = serialize.json_number(doc, "tol", 1e-6)
    c = serialize.json_number(doc, "c", None)
    _finite_target("$.phi", lambda: realize.target_blocks(phi, 0.0))
    if c is not None:
        _finite_target("$.c", lambda: c * c)
    result = realize.schur_agler_norm(phi, pre, tol, params)
    # each end on its own target; c_hi is inf when there is no certificate
    cert_R = None if result.certificate is None else realize.target_blocks(phi, result.c_hi)
    _revalidate(phi.sample, pre, params, result.certificate, cert_R,
                result.witness, realize.target_blocks(phi, result.c_lo))
    body = {"command": "norm", "solver": serialize.solver_params_to_json(params),
            "c_lo": result.c_lo, "c_hi": result.c_hi if math.isfinite(result.c_hi) else None,
            "resolved": result.resolved,
            "sup_norm": phi.sup_norm(),
            "evaluations": [list(e) for e in result.evaluations]}
    if result.certificate is not None:
        body["certificate"] = serialize.certificate_to_json(result.certificate)
    if result.witness is not None:
        body["witness"] = serialize.kernel_to_json(result.witness.kernel)
        body["witness_pairing"] = result.witness.pairing
    code = EXIT_OK if result.resolved else EXIT_UNRESOLVED
    if c is not None:
        at_c = realize.agler_decompose(phi, pre, c, params)
        body["at_c"], code = _decided({}, at_c, phi.sample, pre,
                                      realize.target_blocks(phi, c), params)
        body["at_c"]["c"] = c
    return body, code


def cmd_brehmer(doc, args):
    T = _tuple_from(doc)
    pre = _preordering(doc, T.d)
    _finite_defects(doc, pre, lambda lam: opmodel.hereditary_defect(T, lam))
    rep = opmodel.is_brehmer(T, pre, serialize.json_number(doc, "tol", 1e-10, relative=True))
    return {"command": "brehmer", "is_brehmer": rep.is_brehmer,
            "margins": {serialize.lambda_key(lam): v for lam, v in sorted(rep.margins.items())},
            "norms": T.norms()}, EXIT_OK


def cmd_vn(doc, args):
    col = serialize.json_to_colligation(_required(doc, "colligation"), "$.colligation")
    T = _tuple_from(doc)
    rescaled = False
    if not T.is_strict():
        if not T.is_contractive():
            raise FormatError("$.tuple", "tuple is not contractive")
        T, rescaled = T.scaled(1 - 1e-6), True
    W = opmodel.eval_colligation_at_tuple(col, T)
    norm = spectral_norm(W)
    return {"command": "vn", "norm": norm, "bound_satisfied": norm <= 1 + 1e-9,
            "rescaled": rescaled, "value": serialize.array_to_json(W)}, EXIT_OK


def cmd_pick(doc, args):
    nodes = serialize.json_to_points(_required(doc, "points"), "$.points")
    a, b = (serialize.json_to_array(_required(doc, key), f"$.{key}") for key in ("a", "b"))
    for key, data in (("a", a), ("b", b)):
        if data.shape[:1] != (nodes.n_points,):
            raise FormatError(f"$.{key}", f"need one matrix per node ({nodes.n_points}), "
                                          f"got shape {data.shape}")
    pre = _preordering(doc, nodes.d)
    problem = pick.PickProblem(nodes, a, b, pre)
    _finite_target("$.a", lambda: realize.pick_target(problem.a, np.zeros_like(problem.a)))
    _finite_target("$.b", problem.target_blocks)
    params = serialize.solver_params_from_json(doc.get("solver"))
    result = pick.pick_feasible(problem, params)
    body, code = _decided({"command": "pick",
                           "solver": serialize.solver_params_to_json(params)},
                          result, nodes, pre, problem.target_blocks(), params)
    if result.feasible:
        sol = pick.pick_solve(problem, result.certificate, params.feas_tol)
        body["colligation"] = serialize.colligation_to_json(sol.colligation)
        body["node_residual"] = _fitted(sol.node_residual, float(np.abs(problem.a).max()),
                                        params)
    return body, code


def cmd_example(doc, args):
    T = opmodel.builtin_tuple(args.name)
    comm = max(np.abs(T.matrices[j] @ T.matrices[k] - T.matrices[k] @ T.matrices[j]).max()
               for j in range(T.d) for k in range(T.d))
    body = {"command": "example", "name": args.name, "tuple": serialize.tuple_to_json(T),
            "norms": T.norms(), "commutator_max": float(comm),
            "contractive": T.is_contractive(),
            "commutant_dimension": opmodel.commutant_dimension(T)}
    if args.name == "parrott":
        U = np.diag([1.0, -1.0])
        V = np.array([[0.0, 1.0], [1.0, 0.0]])
        body["anticommutation_residual"] = float(np.abs(U @ V + V @ U).max())
        body["forced_zero_sigma_min"] = opmodel.parrott_forced_zero(U, V)
    return body, EXIT_OK


COMMANDS = {
    "check-kernel": (cmd_check_kernel, "admissibility of a kernel for a preordering"),
    "aux": (cmd_aux, "auxiliary sigma functions: raw, extended, or identity check"),
    "decompose": (cmd_decompose, "Agler decomposition feasibility at fixed c"),
    "realize": (cmd_decompose, "decompose, synthesize a colligation, round-trip check"),
    "eval": (cmd_eval, "evaluate a colligation's transfer function at points"),
    "norm": (cmd_norm, "certified bracket for the decomposition norm"),
    "brehmer": (cmd_brehmer, "hereditary positivity report for a tuple"),
    "vn": (cmd_vn, "evaluate a classical colligation at a commuting tuple"),
    "pick": (cmd_pick, "tangential interpolation: feasibility and synthesis"),
    "example": (cmd_example, "construct and verify a built-in tuple"),
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help, or the usage error
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        doc = {} if args.command == "example" else _read_input(args)
        body, code = COMMANDS[args.command][0](doc, args)
        report = serialize.report(body)
        if args.output:
            try:
                serialize.write_atomic(args.output, report)
            except OSError as exc:  # missing or read-only directory, or the path is a directory
                print(f"error: cannot write {args.output}: {exc.strerror}", file=sys.stderr)
                return EXIT_USAGE
            if not args.quiet:
                print(f"wrote {args.output}", file=sys.stderr)
        else:
            print(serialize.dumps(report))
        return code
    except (ValueError, ArithmeticError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
