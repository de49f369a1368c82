#!/usr/bin/env python3
"""Lattice-refinement study: how fast the atomized cascade reaches the
continuum as delta = 1/m shrinks.

Three views, each over a ladder of m values:

  density     sup-norm gap between the rescaled pmf delta^-1 P{T = floor(x m)}
              and the exact density g(x) on an x grid
  offspring   same comparison for a single generation: rescaled negative
              binomial versus the Gamma(2, p) density
  martingale  scaled fixed-point gap (1 - root) * m against the density's
              decay gap (supercritical p only)

Example:
    python3 scripts/convergence_study.py --p 0.3 --ladder 10,20,50,100
    python3 scripts/convergence_study.py --p 0.6 --view martingale --ladder 100,1000,10000
"""

import argparse
import csv
import math
import sys

import numpy as np

from cascade_gamma import (
    CascadeError,
    CriticalityError,
    DiscretizationParams,
    ModelParams,
    density,
    extinction,
    log_gamma,
    martingale_alpha,
    rescaled_density_estimate,
)


def density_gaps(p: float, ladder: list[int], grid: np.ndarray) -> list[dict]:
    params = ModelParams(p)
    exact = density(params, grid)
    rows = []
    for m in ladder:
        lattice = DiscretizationParams(p, m)
        gaps = np.abs(rescaled_density_estimate(lattice, grid) - exact)
        rows.append({
            "m": m,
            "delta": lattice.delta,
            "sup_gap": float(gaps.max()),
            "argmax_x": float(grid[int(gaps.argmax())]),
            "mean_gap": float(gaps.mean()),
        })
    return rows


def offspring_gaps(p: float, ladder: list[int], grid: np.ndarray) -> list[dict]:
    gamma_density = grid * np.exp(-grid / p) / (p * p)
    rows = []
    for m in ladder:
        delta = DiscretizationParams(p, m).delta  # validates m against p
        # N ~ NB(r, q) makes delta N match Gamma(2, p) in mean and variance.
        r, q = 2.0 * p / (p - delta), (p - delta) / p
        n = np.floor(grid / delta + 1e-9)
        log_pmf = (log_gamma(n + r) - log_gamma(r) - log_gamma(n + 1.0)
                   + r * math.log1p(-q) + n * math.log(q))
        gaps = np.abs(np.exp(log_pmf) / delta - gamma_density)
        rows.append({
            "m": m,
            "delta": delta,
            "sup_gap": float(gaps.max()),
            "argmax_x": float(grid[int(gaps.argmax())]),
            "mean_gap": float(gaps.mean()),
        })
    return rows


def martingale_gaps(p: float, ladder: list[int]) -> list[dict]:
    params = ModelParams(p)
    if not params.p > 0.5:
        raise CriticalityError(f"the martingale view needs supercritical p > 1/2, got p = {p!r}")
    target = extinction(params).decay_gap
    rows = []
    for m in ladder:
        lattice = DiscretizationParams(p, m)
        alpha = martingale_alpha(lattice)
        scaled = (1.0 - alpha) * m
        rows.append({
            "m": m,
            "delta": lattice.delta,
            "alpha": alpha,
            "scaled_gap": scaled,
            "error": abs(scaled - target),
        })
    return rows


def emit(rows: list[dict], csv_path: str | None) -> None:
    if not rows:
        return
    header = list(rows[0])
    widths = [max(len(h), 12) for h in header]
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        cells = [
            f"{row[h]:.6e}" if isinstance(row[h], float) else str(row[h])
            for h in header
        ]
        print("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
    if csv_path:
        with open(csv_path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=header, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {csv_path}", file=sys.stderr)


def m_ladder(text: str) -> list[int]:
    """A comma-separated list of m values, at least one, strictly increasing."""
    ladder = [int(v) for v in text.split(",")]
    if any(coarse >= fine for coarse, fine in zip(ladder, ladder[1:])):
        raise ValueError(text)
    return ladder


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=float, required=True, help="offspring scale p > 0")
    parser.add_argument("--view", choices=("density", "offspring", "martingale"),
                        default="density")
    parser.add_argument("--ladder", type=m_ladder, default="10,20,50,100",
                        help="comma-separated m values, coarse to fine (strictly increasing)")
    parser.add_argument("--x-min", type=float, default=1.5, help="grid start (<= --x-max)")
    parser.add_argument("--x-max", type=float, default=20.0, help="grid end")
    parser.add_argument("--points", type=positive_int, default=38, help="grid points (>= 1)")
    parser.add_argument("--csv", default=None, help="also write the table here")
    args = parser.parse_args()
    if args.x_min > args.x_max:
        parser.error(f"--x-min {args.x_min!r} is above --x-max {args.x_max!r}")

    try:
        if args.view == "martingale":
            rows = martingale_gaps(args.p, args.ladder)
        else:
            grid = np.linspace(args.x_min, args.x_max, args.points)
            compute = density_gaps if args.view == "density" else offspring_gaps
            rows = compute(args.p, args.ladder, grid)
    except CascadeError as exc:
        # One line and exit 2, as the command line on parameters it rejects.
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return 2

    emit(rows, args.csv)

    sups = [row.get("sup_gap", row.get("error")) for row in rows]
    monotone = all(a > b for a, b in zip(sups, sups[1:]))
    print(f"monotone refinement: {'yes' if monotone else 'NO'}")
    return 0 if monotone else 1


if __name__ == "__main__":
    sys.exit(main())
