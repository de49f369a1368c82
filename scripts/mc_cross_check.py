#!/usr/bin/env python3
"""Monte Carlo cross-check: run the continuous and discrete engines and
compare them against the closed forms.

Checks, each reported as a z-score in standard errors:

  * continuous and discrete engine means vs the exact subcritical mean
    1/(1 - 2p), for p < 1/2; the lattice keeps that mean at every delta
  * finite-cascade fraction vs exp(-decay gap) (continuous) and the
    martingale root raised to m (discrete), for p > 1/2

At p = 1/2 neither check applies, and the script refuses to run; it
also refuses the mean checks when either campaign has no standard
error, fewer than 2 finite trials.

The walk mode is not run: it shares the discrete kernel (a stride of k
walk steps from position k is one generation draw, by the Dwass
hitting-time identity), so at equal seeds it returns the discrete
numbers and a discrete-vs-walk distance is zero by construction.

Example:
    python3 scripts/mc_cross_check.py --p 0.3 --m 10 --trials 200000 --seed 7
    python3 scripts/mc_cross_check.py --p 0.6 --m 10 --trials 200000 --seed 7 --workers 4
"""

import argparse
import math
import sys

from cascade_gamma import (
    CascadeError,
    CriticalityError,
    DiscretizationParams,
    DomainError,
    ModelParams,
    SimConfig,
    extinction,
    martingale_alpha,
    moments,
    run_campaign,
)


def zline(label: str, got: float, want: float, se: float) -> bool:
    z = (got - want) / se if se > 0 else math.inf
    flag = "" if abs(z) <= 4.0 else "  <-- exceeds 4 SE"
    print(f"{label:<34} got {got:.6f}  want {want:.6f}  z = {z:+.2f}{flag}")
    return abs(z) > 4.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=float, required=True)
    parser.add_argument("--m", type=int, default=10, help="atoms per unit mass")
    parser.add_argument("--trials", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--cap", type=float, default=1e4,
                        help="censoring threshold on the total mass")
    args = parser.parse_args()
    try:
        return cross_check(args)
    except CascadeError as exc:
        # One line and exit 2, as the command line on parameters it rejects.
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return 2


def cross_check(args: argparse.Namespace) -> int:
    """Run both engines, print each check and return 0 when all pass, else 1."""
    params = ModelParams(args.p)
    lattice = DiscretizationParams(args.p, args.m)
    if not (params.subcritical or args.p > 0.5):
        raise CriticalityError(f"no check applies at p = {args.p!r}: the mean check needs "
                               "p < 1/2 and the finite-fraction check p > 1/2")
    summaries = {
        mode: run_campaign(SimConfig(mode=mode, p=args.p,
                                     m=None if mode == "continuous" else args.m,
                                     trials=args.trials, seed=args.seed, cap=args.cap,
                                     workers=args.workers))
        for mode in ("continuous", "discrete")
    }
    for mode, s in summaries.items():
        if params.subcritical and s.se_mean is None:
            raise DomainError(f"the mean check needs a standard error, which takes 2 finite "
                              f"trials; the {mode} campaign has {s.n_finite}")
    for mode, s in summaries.items():
        se = "n/a" if s.se_mean is None else f"{s.se_mean:.6f}"
        mean = "n/a" if s.mean is None else f"{s.mean:.6f} +- {se}"
        print(f"[{mode:<10}] finite mean = {mean}, "
              f"finite fraction = {s.finite_fraction:.6f}, "
              f"censored = {s.n_censored}")
    print()

    failures = 0

    if params.subcritical:
        want = moments(params).mean
        for mode, s in summaries.items():
            failures += zline(f"{mode} mean vs closed form", s.mean, want, s.se_mean)
    else:
        prob = extinction(params).prob_finite
        alpha_pow_m = martingale_alpha(lattice) ** args.m
        for mode, want in (("continuous", prob), ("discrete", alpha_pow_m)):
            got = summaries[mode].finite_fraction
            se = math.sqrt(want * (1.0 - want) / args.trials)
            failures += zline(f"{mode} finite fraction", got, want, se)

    print()
    print("all checks passed" if failures == 0 else f"{failures} check(s) failed")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
