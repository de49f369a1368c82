"""Seeded job lists for the benchmark workloads.

A job is one `cascade-gamma` argv.  The same (workload, seed) always
gives the same list, and the program only ever sees the argv.

Draws are stratified: each continuous parameter of a job family is
drawn once inside each of n equal strata of its range (in log space
where the range spans decades), and the strata of different
parameters are paired by independent shuffles.  Every seed therefore
gives the same mix of commands, regimes and sizes, with the seed moving
each job inside its stratum and the job order.  This keeps per-seed
medians comparable while still varying every input.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass

WORKLOADS = ("verify", "tables", "sim")

# Trials per simulation chunk when this benchmark was written.  Job sizes
# are fixed here rather than read from the program, so that a later
# change of the chunk size cannot change the job list.
CHUNK = 16384


@dataclass(frozen=True)
class Job:
    """One CLI invocation."""

    argv: tuple[str, ...]

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def options(self) -> dict[str, str]:
        return dict(zip(self.argv[1::2], self.argv[2::2]))


def _num(x: float) -> str:
    """Argv text for a real: 6 significant digits, exactly what the program parses."""
    return format(x, ".6g")


def _strata(rng: random.Random, n: int) -> list[float]:
    """n draws in [0, 1), one in each of n equal strata, in shuffled order."""
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    return u


def _paired_strata(rng: random.Random, n: int, *steps: int) -> list[tuple[float, ...]]:
    """n tuples of stratified draws, in shuffled order.

    Tuple i takes, for each step k, a draw inside stratum i * k mod n
    (each k coprime to n).  The strata of different parameters are
    paired the same way for every seed, so a seed only moves each job
    inside its cell, never to a cheaper or dearer combination.
    """
    cells = [tuple(((i * k) % n + rng.random()) / n for k in steps) for i in range(n)]
    rng.shuffle(cells)
    return cells


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _job(*argv: str) -> Job:
    return Job(tuple(argv))


def _near_critical(rng: random.Random, ks: Sequence[int], sign: int | None = None) -> str:
    """p = 1/2 +- 10^-k with k drawn from ks; repr keeps every digit of it."""
    k = rng.choice(ks)
    sign = sign if sign is not None else rng.choice((-1, 1))
    return repr(0.5 + sign * 10.0 ** -k)


# The verify workload's known-defect regions: p below SMALL_P, and p
# within 10^-K_SAFE of 1/2 (k > K_SAFE in p = 1/2 +- 10^-k).
SMALL_P = 1e-2
K_SAFE = 2


def verify_jobs(rng: random.Random) -> list[Job]:
    """40 small verify / extinction / moments jobs outside the known-defect regions.

    verify jobs are the majority, so the median job is a quadrature job.
    The regions where the program has known defects are run by
    known_defects instead: jobs there fail, and a timed job list
    must not.
    """
    jobs = []
    for u, v in _paired_strata(rng, 24, 1, 7):
        p = _log_uniform(u, SMALL_P, 1e3)
        jobs.append(_job("verify", "--p", _num(p), "--abs-tol", _num(_log_uniform(v, 1e-10, 1e-6))))
    for k in range(1, K_SAFE + 1):
        tol = _log_uniform(rng.random(), 1e-10, 1e-6)
        jobs.append(_job("verify", "--p", _near_critical(rng, [k]), "--abs-tol", _num(tol)))
    for u in _strata(rng, 6):
        jobs.append(_job("extinction", "--p", _num(_log_uniform(u, SMALL_P, 1e3))))
    for sign in (-1, 1):
        jobs.append(_job("extinction", "--p", _near_critical(rng, range(1, K_SAFE + 1), sign)))
    # moments is defined for subcritical p only; --m needs 1/m < p.
    for i, u in enumerate(_strata(rng, 5)):
        p = float(_num(_log_uniform(u, SMALL_P, 0.5)))
        argv = ["moments", "--p", _num(p)]
        if i % 2:
            argv += ["--m", str(math.floor(1.0 / p) + 1 + rng.randrange(50))]
        jobs.append(_job(*argv))
    jobs.append(_job("moments", "--p", _near_critical(rng, range(1, K_SAFE + 1), -1)))
    rng.shuffle(jobs)
    return jobs


def known_defects(workload: str, seed: int) -> list[Job]:
    """The untimed jobs inside a workload's known-defect regions, for one seed.

    Only verify has such regions; it gets 13 jobs.  p is log-uniform on [1e-4, SMALL_P) or 1/2 +- 10^-k with k from
    K_SAFE + 1 to 12.  Today most of these fail: OverflowError below
    p = 1.4e-3, exit 3 up to p = 5e-3 and near 1/2, extinction route
    gaps above 1e-10 near 1/2.  run.py runs them once per verify run,
    untimed, and reports their failures beside the result.
    """
    if workload != "verify":
        return []
    rng = random.Random(f"verify-defects:{seed}")
    near = range(K_SAFE + 1, 13)
    jobs = []
    for u in _strata(rng, 4):
        tol = _log_uniform(rng.random(), 1e-10, 1e-6)
        jobs.append(_job("verify", "--p", _num(_log_uniform(u, 1e-4, SMALL_P)), "--abs-tol", _num(tol)))
    for u in _strata(rng, 4):
        k = near[int(u * len(near))]
        tol = _log_uniform(rng.random(), 1e-10, 1e-6)
        jobs.append(_job("verify", "--p", _near_critical(rng, [k]), "--abs-tol", _num(tol)))
    jobs.append(_job("extinction", "--p", _num(_log_uniform(rng.random(), 1e-4, SMALL_P))))
    for sign in (-1, 1):
        jobs.append(_job("extinction", "--p", _near_critical(rng, near, sign)))
    jobs.append(_job("moments", "--p", _num(_log_uniform(rng.random(), 1e-4, SMALL_P))))
    jobs.append(_job("moments", "--p", _near_critical(rng, near, -1)))
    return jobs


def tables_jobs(rng: random.Random) -> list[Job]:
    """20 density and 20 pmf tables of 10^3 to 10^5 rows.

    Density grids stop at 5000 points because the density is evaluated
    point by point (about 55 us each), so 10^5 points would make one job
    last seconds.  The largest job is always the same size (a 10^5-row
    critical pmf CSV), so peak memory compares across seeds.
    """
    jobs = []
    fmts = ("csv", "json")  # by size stratum, so each format gets every size
    for u, v, w in _paired_strata(rng, 20, 1, 3, 7):
        fmt = fmts[int(w * 20) % 2]
        p = _log_uniform(u, 0.05, 2.0)
        x_max = _log_uniform(v, 10.0, 1e6)  # large-x grids up to 1e6
        steps = round(_log_uniform(w, 1e3, 5e3))
        jobs.append(_job("density", "--p", _num(p), "--x-min", "1", "--x-max", _num(x_max),
                         "--steps", str(steps), "--format", fmt))

    def atoms(p: float) -> int:
        return rng.randint(math.floor(1.0 / p) + 1, 60)

    # Explicit --n-max: sub-, super- and exactly critical p.
    regimes = [(0.1, 0.45)] * 4 + [(0.55, 1.5)] * 4 + [(0.5, 0.5)] * 4
    for (lo, hi), (u, w) in zip(regimes, _paired_strata(rng, 12, 1, 5)):
        fmt = fmts[int(w * 12) % 2]
        p = float(_num(lo + (hi - lo) * u))
        m = atoms(p)
        rows = round(_log_uniform(w, 1e3, 5e4))
        jobs.append(_job("pmf", "--p", _num(p), "--m", str(m), "--n-max", str(m + rows - 1),
                         "--format", fmt))
    m = atoms(0.5)
    jobs.append(_job("pmf", "--p", "0.5", "--m", str(m), "--n-max", str(m + 100_000 - 1),
                     "--format", "csv"))
    # Automatic --n-max (stops at the tail bound): p kept where that is
    # at most a few 10^4 rows.
    regimes = [(0.1, 0.4)] * 4 + [(0.6, 1.5)] * 3
    for i, ((lo, hi), u) in enumerate(zip(regimes, _strata(rng, 7))):
        p = float(_num(lo + (hi - lo) * u))
        jobs.append(_job("pmf", "--p", _num(p), "--m", str(min(atoms(p), 40)),
                         "--format", fmts[i % 2]))
    rng.shuffle(jobs)
    return jobs


def sim_jobs(rng: random.Random) -> list[Job]:
    """20 campaigns, each run at --workers 1 and at --workers 2.

    Twelve of the 40 jobs are supercritical walk campaigns, the slowest
    kind, so the tail job (ten beyond it) is one of them.  Walks run a
    full chunk and a quarter one, so --workers 2 uses the pool.  One
    stratum draw u sets p, the cap and the chunk count of a campaign
    together, so the cost order of the campaigns is the same for every
    seed.
    """
    groups = [  # mode, regime, campaigns, size in chunks from low to high u
        ("continuous", "sub", 3, (1, 2, 3)), ("continuous", "super", 3, (1, 2, 3)),
        ("discrete", "sub", 3, (1, 2, 3)), ("discrete", "super", 3, (1, 2, 3)),
        ("walk", "sub", 2, (1.25, 1.25)), ("walk", "super", 6, (1.25,) * 6),
    ]
    pairs = []
    for mode, regime, count, chunks in groups:
        for u in _strata(rng, count):
            if regime == "sub":
                p, cap = 0.1 + 0.3 * u, _log_uniform(u, 200.0, 1000.0)
            else:
                p, cap = 0.6 + 0.4 * u, _log_uniform(u, 12.0, 30.0)
            p = float(_num(p))
            trials = round(chunks[int(u * count)] * CHUNK)
            argv = ["simulate", "--mode", mode, "--p", _num(p), "--trials", str(trials),
                    "--seed", str(rng.getrandbits(63))]
            if mode == "continuous":
                argv += ["--cap", _num(cap)]
            else:
                m = rng.randint(max(5, math.floor(1.0 / p) + 1), 10)
                if (mode, regime) == ("walk", "super"):
                    # A censored walk runs cap * m steps: 150 atoms makes
                    # every supercritical walk cost about the same.
                    cap = 150.0 / m
                argv += ["--cap", _num(cap), "--m", str(m)]
            pairs.append([_job(*argv, "--workers", w) for w in ("1", "2")])
    # Each workers-1 / workers-2 pair stays adjacent, so both see the
    # same machine state; the pairs are shuffled.
    rng.shuffle(pairs)
    return [job for pair in pairs for job in pair]


_GENERATORS = {"verify": verify_jobs, "tables": tables_jobs, "sim": sim_jobs}


def generate(workload: str, seed: int) -> list[Job]:
    """The job list of a workload for a seed; identical for identical arguments."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
