"""Per-job output checks.

Each check returns None when the output is right, or a one-line reason
why the job counts as failed.  Expected values come from closed forms
evaluated here with the standard library, never from the package under
test: g(x) through math.lgamma, the decay gap and the atom extinction
probability by bisection, the subcritical moments from their formulas.
"""

from __future__ import annotations

import json
import math
import re

from workloads import CHUNK, Job

ROUTE_GAP_TOL = 1e-10  # the program's own tolerance between its two extinction routes
SIGMAS = 5.0           # statistical margin of the simulation checks, in standard errors
SAMPLED_ROWS = 5       # evenly spaced table rows recomputed independently per job
LOG_FLOOR = math.log(1e-250)  # values below this may underflow in the program
REL_TOL = 1e-6         # on recomputed table values; the program's log kernels lose
                       # about 1e-14 * x to cancellation, below this up to x = 1e7


# ---------------------------------------------------------------- closed forms

def log_density(p: float, x: float) -> float:
    """ln g(x) of the total mass, from its closed form."""
    if x == 1.0:
        return -math.inf
    return ((2.0 * x - 1.0) * math.log(x - 1.0) - (1.0 / p + 2.0 * math.log(p)) * x
            + 1.0 / p - math.log(x) - math.lgamma(2.0 * x))


def tail_constants(p: float) -> tuple[float, float]:
    """(ln C, a) of the asymptote g(x) ~ C exp(-a x) x^(-3/2)."""
    log_c = 1.0 / p - 2.0 + math.log(2.0) - math.log(2.0 * math.sqrt(math.pi))
    return log_c, (1.0 - 2.0 * p) / p + 2.0 * math.log(2.0 * p)


def asymptotic_tail_mass(p: float, x: float) -> float:
    """Mass of C exp(-a t) t^(-3/2) on [x, inf) in closed form."""
    log_c, a = tail_constants(p)
    c = math.exp(log_c)
    if a <= 0.0:
        return 2.0 * c / math.sqrt(x)
    return c * (2.0 * math.exp(-a * x) / math.sqrt(x)
                - 2.0 * math.sqrt(math.pi * a) * math.erfc(math.sqrt(a * x)))


def _geometric_bisect(f, lo: float, hi: float) -> float:
    """Sign change of f on [lo, hi] (f(lo) > 0 > f(hi)), bisected in log space."""
    for _ in range(2000):
        mid = math.sqrt(lo * hi)
        if not lo < mid < hi:
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def continuum_finite_mass(p: float) -> float:
    """exp(-x*) with x* the positive root of x = 2 ln(1 + p x); 1 for p <= 1/2."""
    if p <= 0.5:
        return 1.0

    def balance(x: float) -> float:
        return 2.0 * math.log1p(p * x) - x

    hi = 1.0
    while balance(hi) > 0.0:
        hi *= 2.0
    return math.exp(-_geometric_bisect(balance, 1e-300, hi))


def atomized_finite_mass(p: float, m: int) -> float:
    """alpha^m, alpha the smallest fixed point of the NB(r*, q*) generating function.

    Bisects for beta = 1 - alpha, through log1p, so that alpha near 1
    keeps its digits.
    """
    if p <= 0.5:
        return 1.0
    delta = 1.0 / m
    r = 2.0 * delta * p / (p - delta)
    odds = (p - delta) / delta  # q* / (1 - q*)

    def gap(beta: float) -> float:  # < 0 between 0 and the root, > 0 beyond
        return -r * math.log1p(odds * beta) - math.log1p(-beta)

    beta = _geometric_bisect(lambda b: -gap(b), 1e-300, 1.0 - 1e-16)
    return math.exp(m * math.log1p(-beta))


def log_cascade_pmf(p: float, m: int, n: int) -> float:
    """ln P{T = n} of the atomized total count from m founders."""
    delta = 1.0 / m
    r = 2.0 * delta * p / (p - delta)
    log_one_minus_q = math.log(delta / p)
    log_q = math.log((p - delta) / p)
    if n == m:
        return m * r * log_one_minus_q
    return (math.log(m) - math.log(n) + math.lgamma(n * (1.0 + r) - m) - math.lgamma(n * r)
            - math.lgamma(n - m + 1.0) + r * n * log_one_minus_q + (n - m) * log_q)


# ---------------------------------------------------------------- helpers

def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)


def _close_or_tiny(got: float, want: float) -> bool:
    """Relative agreement, except where both values sit at the underflow floor."""
    if want < 1e-280:
        return got < 1e-250
    return _close(got, want, REL_TOL)


def _sample_indices(count: int) -> list[int]:
    if count <= SAMPLED_ROWS:
        return list(range(count))
    return sorted({round(i * (count - 1) / (SAMPLED_ROWS - 1)) for i in range(SAMPLED_ROWS)})


def _rows_to_check(*log_columns: list[float]) -> list[int]:
    """Evenly spaced rows, plus each column's largest row and its last row above LOG_FLOOR.

    On a long grid of a fast-decaying law every evenly spaced row but
    the first can sit at the underflow floor, where any tiny value
    passes; the extra rows are always well above it.
    """
    rows = set(_sample_indices(len(log_columns[0])))
    for logs in log_columns:
        rows.add(max(range(len(logs)), key=logs.__getitem__))
        above = [i for i, value in enumerate(logs) if value > LOG_FLOOR]
        if above:
            rows.add(above[-1])
    return sorted(rows)


def _csv_parts(text: str) -> tuple[dict[str, str], list[list[str]]]:
    """('key = value' comment lines, data rows without the header)."""
    notes, rows = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, sep, value = line[2:].partition(" = ")
            if sep:
                notes[key] = value
        elif line:
            rows.append(line.split(","))
    return notes, rows[1:]


# ---------------------------------------------------------------- per-command checks

def _check_verify(job: Job, text: str):
    payload = json.loads(text)
    if payload.get("passed") is not True:
        return f"verify reported passed = {payload.get('passed')!r}"
    return None


def _check_extinction(job: Job, text: str):
    payload = json.loads(text)
    if not payload["route_gap"] <= ROUTE_GAP_TOL:
        return f"extinction route_gap {payload['route_gap']:.3g} > {ROUTE_GAP_TOL:g}"
    return None


def _check_moments(job: Job, text: str):
    payload = json.loads(text)
    p = float(job.options["--p"])
    mean, variance = 1.0 / (1.0 - 2.0 * p), 2.0 * p * p / (1.0 - 2.0 * p) ** 3
    if not (_close(payload["mean"], mean, 1e-9) and _close(payload["variance"], variance, 1e-9)):
        return "moments differ from 1/(1-2p) and 2p^2/(1-2p)^3"
    if "--m" in job.options:
        delta = 1.0 / int(job.options["--m"])
        if not _close(payload["per_atom"]["mean"], delta * mean, 1e-9):
            return "per-atom mean differs from delta/(1-2p)"
    return None


def _check_density(job: Job, text: str):
    opts = job.options
    p, steps = float(opts["--p"]), int(opts["--steps"])
    if opts["--format"] == "csv":
        _, rows = _csv_parts(text)
        table = [(float(x), float(d), float(a)) for x, d, a in rows]
    else:
        payload = json.loads(text)
        table = list(zip(payload["x"], payload["density"], payload["asymptotic"]))
    if len(table) != steps:
        return f"density has {len(table)} rows, expected {steps}"
    log_c, a = tail_constants(p)
    log_d = [log_density(p, x) for x, _, _ in table]
    log_asym = [log_c - a * x - 1.5 * math.log(x) for x, _, _ in table]
    for i in _rows_to_check(log_d, log_asym):
        x, d, asym = table[i]
        if not _close_or_tiny(d, math.exp(log_d[i])):
            return f"density at x = {x!r} is {d!r}"
        if not _close_or_tiny(asym, math.exp(log_asym[i])):
            return f"asymptote at x = {x!r} is {asym!r}"
    return None


def _check_pmf(job: Job, text: str):
    opts = job.options
    p, m = float(opts["--p"]), int(opts["--m"])
    if opts["--format"] == "csv":
        notes, rows = _csv_parts(text)
        probs = [float(row[1]) for row in rows]
        first = int(rows[0][0]) if rows else m
        tail, mass = float(notes["tail-bound"]), float(notes["cumulative-mass"])
    else:
        payload = json.loads(text)
        probs, first = payload["pmf"], payload["n_start"]
        tail, mass = payload["tail_bound"], payload["cumulative_mass"]
    if first != m:
        return f"pmf starts at n = {first}, expected {m}"
    if "--n-max" in opts and len(probs) != int(opts["--n-max"]) - m + 1:
        return f"pmf has {len(probs)} rows, expected n-max - m + 1"
    if not _close(math.fsum(probs), mass, 1e-9):
        return "pmf rows do not add up to the reported cumulative mass"
    target = atomized_finite_mass(p, m)
    if mass + tail < target * (1.0 - 1e-9):
        return f"pmf mass {mass!r} + tail bound {tail!r} falls short of alpha^m = {target!r}"
    if not probs:
        return "pmf has no rows"
    log_probs = [log_cascade_pmf(p, m, m + i) for i in range(len(probs))]
    for i in _rows_to_check(log_probs):
        want = math.exp(log_probs[i])
        if not _close_or_tiny(probs[i], want):
            return f"pmf at n = {m + i} is {probs[i]!r}, expected {want!r}"
    return None


def _check_simulate(job: Job, text: str):
    opts = job.options
    payload = json.loads(text)
    mode, p, cap = opts["--mode"], float(opts["--p"]), float(opts["--cap"])
    trials = int(opts["--trials"])
    if payload["trials"] != trials or payload["n_finite"] + payload["n_censored"] != trials:
        return "simulate lost trials"
    n = payload["n_finite"]
    if p < 0.5:
        mean = 1.0 / (1.0 - 2.0 * p)
        se = math.sqrt(2.0 * p * p / (1.0 - 2.0 * p) ** 3 / n)
        if abs(payload["mean"] - mean) > SIGMAS * se:
            return f"{mode} mean {payload['mean']!r} is more than {SIGMAS:g} se from 1/(1-2p) = {mean!r}"
        return None
    target = continuum_finite_mass(p) if mode == "continuous" else atomized_finite_mass(p, int(opts["--m"]))
    se = math.sqrt(target * (1.0 - target) / trials)
    # Finite cascades heavier than the cap are censored too; allow twice
    # the asymptotic mass beyond the cap below the target.
    beyond_cap = 2.0 * asymptotic_tail_mass(p, cap)
    got = payload["finite_fraction"]
    if not target - beyond_cap - SIGMAS * se <= got <= target + SIGMAS * se:
        return f"{mode} finite fraction {got!r} outside the margin of {target!r}"
    return None


_CHECKS = {
    "verify": _check_verify,
    "extinction": _check_extinction,
    "moments": _check_moments,
    "density": _check_density,
    "pmf": _check_pmf,
    "simulate": _check_simulate,
}


def check(job: Job, code, text: str, error: str | None):
    """Reason the job failed, or None.  code is None when cli.main raised."""
    if error is not None:
        return f"uncaught {error}"
    if code != 0:
        return f"exit code {code}"
    try:
        return _CHECKS[job.command](job, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable {job.command} output: {type(exc).__name__}: {exc}"


_WORKERS_FIELD = re.compile(rb'"workers": \d+')


def normalize_campaign(data: bytes) -> bytes:
    """A simulate payload with its echo of --workers masked.

    That echo is the one field allowed to differ between --workers 1
    and --workers 2; every other byte must match.
    """
    return _WORKERS_FIELD.sub(b'"workers": *', data)


def work_units(job: Job, text: str) -> int:
    """Useful work in a successful job: rows for tables, trials for campaigns, else 1."""
    if job.command == "simulate":
        return int(job.options["--trials"])
    if job.command == "density":
        return int(job.options["--steps"])
    if job.command == "pmf":
        if job.options["--format"] == "csv":
            return len(_csv_parts(text)[1])
        return len(json.loads(text)["pmf"])
    return 1


def chunks(job: Job) -> int:
    return -(-int(job.options["--trials"]) // CHUNK)
