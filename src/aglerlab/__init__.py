"""Numerical workbench for Schur-Agler classes defined by test functions
and preorderings on finite point samples.

Importing the package runs none of its modules.  Each one is registered
here as a lazy module and runs on its first attribute access, so a command
loads only what it uses; the names below resolve through the module that
defines them.
"""

import importlib.util
import sys

_EXPORTS = {
    "preorder": ("Preordering", "classify", "classical", "maximal_closure",
                 "minimal_reduction", "parity_split", "standard_ample",
                 "standard_nearly_ample"),
    "kernels": ("HermitianKernel", "PointSample", "is_admissible", "is_subordinate",
                "kolmogorov", "psd_check", "schur_product", "szego_kernel"),
    "auxfun": ("AuxFunctionSample", "aux_function", "builtin_domain", "extend_aux_finite",
               "psi_rows", "verify_defect_identity"),
    "realize": ("AglerCertificate", "Colligation", "DecomposeResult", "FunctionSample",
                "SolverParams", "Witness", "agler_decompose", "ample_membership",
                "colligation_certificate", "eval_transfer", "lurking_isometry",
                "schur_agler_norm", "transfer_compose"),
    "opmodel": ("CommutingTuple", "TestPolynomial", "commutant_dimension", "dilation_check",
                "eval_colligation_at_tuple", "eval_polynomial", "gkvw_tuple",
                "hereditary_defect", "is_brehmer", "kv_tuple", "parrott_tuple"),
    "pick": ("PickProblem", "PickSolution", "corona_right_inverse", "pick_feasible",
             "pick_solve"),
    "_linalg": (),
    "sampling": (),
    "serialize": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def _register(module_name: str):
    """A module in sys.modules that runs its code on its first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{module_name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# every module but cli, which `python -m aglerlab.cli` must find unloaded to run it once
for _module in _EXPORTS:
    globals()[_module] = _register(_module)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_HOME))


__all__ = sorted(_HOME)
__version__ = "0.1.0"
