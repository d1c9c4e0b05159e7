"""Finite-sample norm gap between the ample and nearly ample preorderings.

Globally the two preorderings generate the same algebra norm; on a finite
sample the nearly ample cone is strictly smaller, so its norm can sit above
the ample (Szego) value.  This experiment brackets both finite-sample norms,
each from one solve, on random transfer-function samples for every nearly
ample preordering of the tridisk, and prints the gap na - ample as the
interval [na.c_lo - a.c_hi, na.c_hi - a.c_lo].  A gap is certified when
both ends of both brackets carry objects that pass re-validation: a
certificate at each c_hi and a witness at each c_lo.  Trial 0 of
`--seed 103 --points 4` is the instance of the nearly-ample acceptance
criterion.
"""
import argparse

import numpy as np

from aglerlab.preorder import standard_ample, standard_nearly_ample
from aglerlab.realize import (SolverParams, schur_agler_norm, validate_certificate,
                              validate_witness)
from aglerlab.sampling import random_transfer_sample

TOL = 1e-6  # bracket width at which a norm counts as resolved


def certified(phi, pre, out, feas_tol) -> bool:
    """Both bracket ends re-validate (the lower one needs a witness)."""
    return (out.certificate is not None and out.witness is not None
            and validate_certificate(phi, pre, out.c_hi, out.certificate, feas_tol)[0]
            and validate_witness(phi, pre, out.c_lo, out.witness.kernel,
                                 feas_tol) is not None)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--points", type=int, default=4)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    pre_a = standard_ample(3)
    drops = [(0, 1), (0, 2), (1, 2)]
    params = SolverParams(max_iter=30_000, stall_rtol=1e-9)

    print(f"{'trial':>5} {'drop':>6} {'sup|phi|':>10} {'ample norm':>24} "
          f"{'nearly ample norm':>24} {'gap':>25}")
    for trial in range(args.trials):
        phi, _ = random_transfer_sample(rng, args.points, 3)
        amp = schur_agler_norm(phi, pre_a, tol=TOL, params=params)
        ample_ok = certified(phi, pre_a, amp, params.feas_tol)
        for i, j in drops:
            pre_na = standard_nearly_ample(3, i, j)
            out = schur_agler_norm(phi, pre_na, tol=TOL, params=params)
            ok = ample_ok and certified(phi, pre_na, out, params.feas_tol)
            tag = "" if ok else " (not certified)"
            if not (amp.resolved and out.resolved):
                tag += " (unresolved)"
            print(f"{trial:5d} {f'{i},{j}':>6} {phi.sup_norm():10.6f} "
                  f"[{amp.c_lo:10.8f},{amp.c_hi:10.8f}] [{out.c_lo:10.8f},{out.c_hi:10.8f}] "
                  f"[{out.c_lo - amp.c_hi:11.4e},{out.c_hi - amp.c_lo:11.4e}]{tag}")


if __name__ == "__main__":
    main()
