"""Batch front end: JSON problems in, machine-readable reports out.

Exit codes: 0 success, 2 infeasible with witness, 3 unresolved, 1 usage or
input errors.  AGLER_LAB_THREADS is applied when the package is imported,
before numpy loads.
"""
from __future__ import annotations

import argparse
import json
import sys

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_UNRESOLVED = 3


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="input JSON file (default: stdin)")
    common.add_argument("--output", help="output JSON file (default: stdout)")
    common.add_argument("--feas-tol", type=float, default=None,
                        help="decomposition residual tolerance (default 1e-8)")
    common.add_argument("--max-iter", type=int, default=None,
                        help="Newton-step cap for the interior-point solver")
    common.add_argument("--seed", type=int, default=0,
                        help="seed echoed in reports; no command is randomized")
    common.add_argument("--quiet", action="store_true", help="suppress progress notes")

    parser = argparse.ArgumentParser(
        prog="agler-lab",
        description="Certificates, realizations, and interpolation for "
                    "Schur-Agler classes on finite samples.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("check-kernel", "admissibility of a kernel for a preordering"),
        ("aux", "auxiliary sigma functions: raw, extended, or identity check"),
        ("decompose", "Agler decomposition feasibility at fixed c"),
        ("realize", "decompose, synthesize a colligation, round-trip check"),
        ("eval", "evaluate a colligation's transfer function at points"),
        ("norm", "certified bracket for the decomposition norm"),
        ("brehmer", "hereditary positivity report for a tuple"),
        ("vn", "evaluate a classical colligation at a commuting tuple"),
        ("pick", "tangential interpolation: feasibility and synthesis"),
    ]:
        sub.add_parser(name, parents=[common], help=help_text)
    ex = sub.add_parser("example", parents=[common],
                        help="construct and verify a built-in tuple")
    ex.add_argument("name", choices=["parrott", "gkvw", "kv"])
    return parser


def _read_input(args) -> dict:
    from .serialize import FormatError
    if args.input:
        try:
            with open(args.input) as fh:
                text = fh.read()
        except OSError as exc:
            raise FormatError("$", f"cannot read {args.input}: {exc}") from None
    else:
        text = sys.stdin.read()
    if not text.strip():
        if args.command == "example":
            return {}
        raise FormatError("$", "empty input document")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"line {exc.lineno} column {exc.colno}", exc.msg) from None
    if not isinstance(doc, dict):
        raise FormatError("$", "top-level document must be an object")
    return doc


def _solver_params(doc: dict, args):
    from .serialize import solver_params_from_json
    params = solver_params_from_json(doc.get("solver"))
    if args.feas_tol is not None:
        params.feas_tol = args.feas_tol
    if args.max_iter is not None:
        params.max_iter = args.max_iter
    return params


def _solver_echo(params, args) -> dict:
    return {"feas_tol": params.feas_tol, "max_iter": params.max_iter, "seed": args.seed,
            "stall_window": params.stall_window, "stall_rtol": params.stall_rtol,
            "force_iterative": params.force_iterative}


def _emit(args, body: dict) -> None:
    from .serialize import dumps, report, write_atomic
    doc = report(body)
    if args.output:
        write_atomic(args.output, doc)
        if not args.quiet:
            print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(dumps(doc))


def _revalidate_result(result, sample, preordering, R, params) -> None:
    """Re-run the soundness checks on target R before anything is written."""
    from .realize import validate_certificate_target, validate_witness_target
    if result.certificate is not None:
        ok, _, _ = validate_certificate_target(sample, preordering, R, result.certificate,
                                               params.feas_tol)
        if not ok:
            raise ArithmeticError("certificate failed re-validation; refusing to emit")
    if result.witness is not None:
        if validate_witness_target(sample, preordering, R, result.witness.kernel,
                                   params.feas_tol) is None:
            raise ArithmeticError("witness failed re-validation; refusing to emit")


def _tuple_from(doc):
    """The commuting tuple a document names (built-in) or spells out."""
    from .opmodel import builtin_tuple
    from .serialize import FormatError, json_to_tuple
    if "name" in doc:
        return builtin_tuple(doc["name"])
    if "tuple" in doc:
        return json_to_tuple(doc["tuple"], "$.tuple")
    raise FormatError("$.tuple", "need a tuple or a built-in name")


def _status_exit(status: str) -> int:
    return {"feasible": EXIT_OK, "infeasible": EXIT_INFEASIBLE,
            "unresolved": EXIT_UNRESOLVED}[status]


# ---------------------------------------------------------------------------
# command bodies


def cmd_check_kernel(doc, args) -> int:
    from .kernels import is_admissible
    from .serialize import (FormatError, json_number, json_to_kernel, json_to_preordering,
                            lambda_key)
    if "kernel" not in doc:
        raise FormatError("$.kernel", "missing field")
    K = json_to_kernel(doc["kernel"], "$.kernel")
    pre = json_to_preordering(doc.get("preordering"), "$.preordering")
    tol = json_number(doc, "tol", 1e-10)
    rep = is_admissible(K, pre, tol)
    body = {
        "command": "check-kernel",
        "admissible": rep.admissible,
        "min_eigs": {lambda_key(lam): v for lam, v in sorted(rep.min_eigs.items())},
        "worst_eig": rep.worst_eig,
    }
    if rep.worst_lambda is not None:
        body["worst_lambda"] = list(rep.worst_lambda)
    _emit(args, body)
    return EXIT_OK


def cmd_aux(doc, args) -> int:
    from .auxfun import aux_function, extend_aux_finite, verify_defect_identity
    from .serialize import (FormatError, array_to_json, json_to_kernel,
                            json_to_points, json_to_preordering)
    sample = json_to_points(doc.get("points"), "$.points")
    if "lambda" not in doc:
        raise FormatError("$.lambda", "missing field")
    lam = tuple(int(v) for v in doc["lambda"])
    mode = doc.get("mode", "raw")
    if mode == "raw":
        aux = aux_function(sample, lam)
        body = {"command": "aux", "mode": "raw", "lambda": list(lam), "n": aux.n,
                "sigma": dict(enumerate(array_to_json(aux.sigmas))),
                "max_norm": float(aux.norms().max())}
    elif mode == "extended":
        pre = json_to_preordering(doc.get("preordering"), "$.preordering")
        ext = extend_aux_finite(sample, lam, pre)
        body = {"command": "aux", "mode": "extended", "lambda": list(lam),
                "n": ext.aux.n,
                "sigma": dict(enumerate(array_to_json(ext.aux.sigmas))),
                "completion_norm": ext.completion_norm,
                "identity_residual": ext.identity_residual,
                "defect_min_eig": ext.defect_min_eig,
                "boundary_points": list(ext.boundary_points)}
    elif mode == "verify":
        K = json_to_kernel(doc["kernel"], "$.kernel") if "kernel" in doc else None
        if K is None:
            raise FormatError("$.kernel", "verify mode needs a kernel")
        res = verify_defect_identity(sample, lam, K)
        body = {"command": "aux", "mode": "verify", "lambda": list(lam),
                "residual": res}
    else:
        raise FormatError("$.mode", f"unknown mode {mode!r}")
    _emit(args, body)
    return EXIT_OK


def cmd_decompose(doc, args) -> int:
    from .realize import agler_decompose, target_blocks
    from .serialize import (json_number, json_to_function_sample, json_to_preordering,
                            result_to_json)
    phi = json_to_function_sample(doc, "$")
    pre = json_to_preordering(doc.get("preordering"), "$.preordering")
    c = json_number(doc, "c", 1.0)
    params = _solver_params(doc, args)
    result = agler_decompose(phi, pre, c, params)
    _revalidate_result(result, phi.sample, pre, target_blocks(phi, c), params)
    body = {"command": "decompose", "c": c, "solver": _solver_echo(params, args)}
    body.update(result_to_json(result))
    _emit(args, body)
    return _status_exit(result.status)


def cmd_realize(doc, args) -> int:
    import numpy as np
    from .realize import agler_decompose, eval_transfer, lurking_isometry, target_blocks
    from .serialize import (colligation_to_json, json_number, json_to_function_sample,
                            json_to_preordering, result_to_json)
    phi = json_to_function_sample(doc, "$")
    pre = json_to_preordering(doc.get("preordering"), "$.preordering")
    c = json_number(doc, "c", 1.0)
    params = _solver_params(doc, args)
    result = agler_decompose(phi, pre, c, params)
    _revalidate_result(result, phi.sample, pre, target_blocks(phi, c), params)
    body = {"command": "realize", "c": c, "solver": _solver_echo(params, args)}
    body.update(result_to_json(result))
    if result.feasible:
        col = lurking_isometry(result.certificate, phi, params.feas_tol)
        W = eval_transfer(col, phi.sample.points)
        body["colligation"] = colligation_to_json(col)
        body["roundtrip_max_error"] = float(np.abs(c * W - phi.values).max())
    _emit(args, body)
    return _status_exit(result.status)


def cmd_eval(doc, args) -> int:
    import math
    import numpy as np
    from .realize import eval_transfer
    from .serialize import FormatError, array_to_json, json_to_array, json_to_colligation
    if "colligation" not in doc:
        raise FormatError("$.colligation", "missing field")
    col = json_to_colligation(doc["colligation"], "$.colligation")
    pts = json_to_array(doc.get("points"), "$.points")
    W = eval_transfer(col, pts.reshape(pts.shape[0], math.prod(pts.shape[1:])))  # row per point
    body = {"command": "eval",
            "values": array_to_json(W),
            "norms": np.linalg.norm(W, 2, axis=(1, 2)).tolist()}
    _emit(args, body)
    return EXIT_OK


def cmd_norm(doc, args) -> int:
    from .realize import agler_decompose, schur_agler_norm, target_blocks
    from .serialize import (certificate_to_json, json_number, json_to_function_sample,
                            json_to_preordering, kernel_to_json, result_to_json)
    phi = json_to_function_sample(doc, "$")
    pre = json_to_preordering(doc.get("preordering"), "$.preordering")
    params = _solver_params(doc, args)
    tol = json_number(doc, "tol", 1e-6)
    c = json_number(doc, "c", None)
    result = schur_agler_norm(phi, pre, tol, params)
    body = {"command": "norm", "solver": _solver_echo(params, args),
            "c_lo": result.c_lo, "c_hi": result.c_hi,
            "resolved": result.resolved,
            "sup_norm": phi.sup_norm(),
            "evaluations": [[c, status] for c, status in result.evaluations]}
    if result.certificate is not None:
        body["certificate"] = certificate_to_json(result.certificate)
    if result.witness is not None:
        body["witness"] = kernel_to_json(result.witness.kernel)
        body["witness_pairing"] = result.witness.pairing
    exit_code = EXIT_OK if result.resolved else EXIT_UNRESOLVED
    if c is not None:
        at_c = agler_decompose(phi, pre, c, params)
        _revalidate_result(at_c, phi.sample, pre, target_blocks(phi, c), params)
        body["at_c"] = result_to_json(at_c)
        body["at_c"]["c"] = c
        exit_code = _status_exit(at_c.status)
    _emit(args, body)
    return exit_code


def cmd_brehmer(doc, args) -> int:
    from .opmodel import is_brehmer
    from .serialize import json_number, json_to_preordering, lambda_key
    T = _tuple_from(doc)
    pre = json_to_preordering(doc.get("preordering"), "$.preordering")
    tol = json_number(doc, "tol", 1e-10)
    rep = is_brehmer(T, pre, tol)
    body = {"command": "brehmer", "is_brehmer": rep.is_brehmer,
            "margins": {lambda_key(lam): v for lam, v in sorted(rep.margins.items())},
            "norms": T.norms()}
    _emit(args, body)
    return EXIT_OK


def cmd_vn(doc, args) -> int:
    import numpy as np
    from .opmodel import eval_colligation_at_tuple
    from .serialize import FormatError, array_to_json, json_to_colligation
    if "colligation" not in doc:
        raise FormatError("$.colligation", "missing field")
    col = json_to_colligation(doc["colligation"], "$.colligation")
    T = _tuple_from(doc)
    rescaled = False
    if not T.is_strict():
        if T.is_contractive():
            T = T.scaled(1 - 1e-6)
            rescaled = True
        else:
            raise FormatError("$.tuple", "tuple is not contractive")
    W = eval_colligation_at_tuple(col, T)
    norm = float(np.linalg.norm(W, 2))
    body = {"command": "vn", "norm": norm, "bound_satisfied": norm <= 1 + 1e-9,
            "rescaled": rescaled, "value": array_to_json(W)}
    _emit(args, body)
    return EXIT_OK


def cmd_pick(doc, args) -> int:
    from .pick import PickProblem, pick_feasible, pick_solve
    from .serialize import (FormatError, colligation_to_json, json_to_array,
                            json_to_points, json_to_preordering, result_to_json)
    nodes = json_to_points(doc.get("points"), "$.points")
    for key in ("a", "b"):
        if key not in doc:
            raise FormatError(f"$.{key}", "missing field")
    a = json_to_array(doc["a"], "$.a")
    b = json_to_array(doc["b"], "$.b")
    pre = json_to_preordering(doc.get("preordering"), "$.preordering")
    problem = PickProblem(nodes, a, b, pre)
    params = _solver_params(doc, args)
    result = pick_feasible(problem, params)
    _revalidate_result(result, nodes, pre, problem.target_blocks(), params)
    body = {"command": "pick", "solver": _solver_echo(params, args)}
    body.update(result_to_json(result))
    if result.feasible:
        sol = pick_solve(problem, result.certificate, params.feas_tol)
        body["colligation"] = colligation_to_json(sol.colligation)
        body["node_residual"] = sol.node_residual
    _emit(args, body)
    return _status_exit(result.status)


def cmd_example(doc, args) -> int:
    import numpy as np
    from .opmodel import builtin_tuple, commutant_dimension, parrott_forced_zero
    from .serialize import tuple_to_json
    name = args.name
    T = builtin_tuple(name)
    scale = max(np.abs(M).max() for M in T.matrices)
    comm = max(np.abs(T.matrices[j] @ T.matrices[k] - T.matrices[k] @ T.matrices[j]).max()
               for j in range(T.d) for k in range(T.d))
    body = {
        "command": "example",
        "name": name,
        "tuple": tuple_to_json(T),
        "norms": T.norms(),
        "commutator_max": float(comm),
        "contractive": T.is_contractive(),
        "commutant_dimension": commutant_dimension(T),
    }
    if name == "parrott":
        U = np.diag([1.0, -1.0])
        V = np.array([[0.0, 1.0], [1.0, 0.0]])
        body["anticommutation_residual"] = float(np.abs(U @ V + V @ U).max())
        body["forced_zero_sigma_min"] = parrott_forced_zero(U, V)
    _emit(args, body)
    return EXIT_OK


COMMANDS = {
    "check-kernel": cmd_check_kernel,
    "aux": cmd_aux,
    "decompose": cmd_decompose,
    "realize": cmd_realize,
    "eval": cmd_eval,
    "norm": cmd_norm,
    "brehmer": cmd_brehmer,
    "vn": cmd_vn,
    "pick": cmd_pick,
    "example": cmd_example,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from .serialize import FormatError
    try:
        doc = _read_input(args) if args.command != "example" else {}
        return COMMANDS[args.command](doc, args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ArithmeticError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
