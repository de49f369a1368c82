"""Fixed-input timings of single layer calls, for the traced run.

Each kernel is timed by calling the package's public functions on
inputs that do not depend on the workload or seed, and reported as the
median of several repeats.  Together they cost a few seconds.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Sub- and supercritical laws shared by all three engines, so that the
# walk and discrete chunks compare on the same law.
SIM_LAWS = {"sub": (0.3, 1000.0), "super": (0.6, 200.0)}  # p, cap
SIM_ATOMS = 10


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def run(cg) -> dict[str, tuple[float, str]]:
    """Per-call costs of the layer kernels as (value, unit); cg is the cascade_gamma package."""
    numerics, continuum, discrete, simulate = cg.numerics, cg.continuum, cg.discrete, cg.simulate
    out = {}

    scalars = [0.7, 5.5, 42.0, 1e3, 2.5e5]
    calls = 40 * len(scalars)
    out["numerics.log_gamma.scalar_us"] = (1e6 / calls * _median_time(
        lambda: [numerics.log_gamma(z) for _ in range(40) for z in scalars], 7), "us")
    grid = np.geomspace(1e-3, 1e7, 100_000)
    out["numerics.log_gamma.ns_per_elem"] = (1e9 / grid.size * _median_time(
        lambda: numerics.log_gamma(grid), 7), "ns")

    params = continuum.ModelParams(0.3)

    def one_panel():
        result = numerics.integrate_adaptive(
            lambda x: continuum.density(params, x), numerics.Interval(1.0, 3.0), abs_tol=1.0)
        if result.evaluations != 15:
            raise RuntimeError(f"expected one panel, got {result.evaluations} evaluations")
    out["numerics.gk15_panel_us"] = (1e6 * _median_time(one_panel, 15), "us")

    dparams = discrete.DiscretizationParams(0.5, 10)
    counts = np.arange(10, 100_010)
    out["discrete.cascade_log_pmf.ns_per_row"] = (1e9 / counts.size * _median_time(
        lambda: discrete.cascade_log_pmf(dparams, 10, counts), 7), "ns")
    out["continuum.density_table.ns_per_point"] = (1e9 / 2000 * _median_time(
        lambda: continuum.density_table(params, 1.0, 50.0, 2000), 3), "ns")

    super_params = continuum.ModelParams(0.7)
    out["continuum.extinction.us"] = (1e6 / 200 * _median_time(
        lambda: [continuum.extinction(super_params) for _ in range(200)], 5), "us")
    out["continuum.extinction_gap_root.us"] = (1e6 / 200 * _median_time(
        lambda: [continuum.extinction_gap_root(super_params) for _ in range(200)], 5), "us")

    summaries = []
    for mode in ("continuous", "discrete", "walk"):
        for regime, (p, cap) in SIM_LAWS.items():
            config = simulate.SimConfig(
                mode=mode, p=p, trials=simulate.CHUNK_TRIALS, seed=20130415,
                m=None if mode == "continuous" else SIM_ATOMS, cap=cap, workers=1)
            repeats = 1 if (mode, regime) == ("walk", "super") else 3
            out[f"simulate.chunk.{mode}.{regime}.s"] = (_median_time(
                lambda: summaries.append(simulate.run_campaign(config)), repeats), "s")
    chunk = summaries[0]
    out["simulate.merge_us"] = (1e6 / 100 * _median_time(
        lambda: [chunk.merge(chunk) for _ in range(100)], 5), "us")
    return out
