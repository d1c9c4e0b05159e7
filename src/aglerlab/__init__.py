"""Numerical workbench for Schur-Agler classes defined by test functions
and preorderings on finite point samples."""

import os

# BLAS reads its thread count once, when numpy loads: cap it before any submodule import
if os.environ.get("AGLER_LAB_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["AGLER_LAB_THREADS"])

from .preorder import (Preordering, classify, classical, maximal_closure,
                       minimal_reduction, parity_split, standard_ample,
                       standard_nearly_ample)
from .kernels import (HermitianKernel, PointSample, is_admissible, is_subordinate,
                      kolmogorov, psd_check, schur_product, szego_kernel)
from .auxfun import (AuxFunctionSample, aux_function, builtin_domain,
                     extend_aux_finite, psi_rows, verify_defect_identity)
from .realize import (AglerCertificate, Colligation, DecomposeResult, FunctionSample,
                      SolverParams, Witness, agler_decompose, ample_membership,
                      eval_transfer, lurking_isometry, schur_agler_norm,
                      transfer_compose)
from .opmodel import (CommutingTuple, TestPolynomial, commutant_dimension,
                      dilation_check, eval_colligation_at_tuple, eval_polynomial,
                      gkvw_tuple, hereditary_defect, is_brehmer, kv_tuple,
                      parrott_tuple)
from .pick import PickProblem, PickSolution, corona_right_inverse, pick_feasible, pick_solve

__version__ = "0.1.0"
