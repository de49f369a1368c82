"""Discrete-generation view of the cascade with atoms of mass delta = 1/m.

Splitting the unit of population into m atoms turns each generation
into a negative binomial count: an atom's offspring block Gamma(2 delta, p)
is matched in mean and variance by delta times a NB(r*, q*) count with

    r* = 2 delta p / (p - delta),    q* = (p - delta) / p,

so the per-atom offspring count keeps mean 2p exactly at every delta
and delta -> 0 recovers the continuum law.  The total number of atoms
ever born, starting from m_start of them, has the explicit pmf

    P{T = n} = (m/n) G(n (1 + r*) - m) / (G(n r*) G(n - m + 1))
               (1 - q*)^(r* n) q*^(n - m),   n >= m,

with G the gamma function.  This module evaluates that pmf in log
space, tabulates it with a certified geometric tail bound, carries the
exact finite-delta moments, and finds the per-atom extinction
probability as the smallest fixed point of the offspring generating
function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .continuum import TABLE_ROW_CAP, ModelParams, Moments
from .errors import CriticalityError, DomainError
from .numerics import Interval

__all__ = [
    "DiscretizationParams",
    "CascadePmf",
    "DiscreteMoments",
    "nb_log_pmf",
    "gamma_density_limit_check",
    "cascade_log_pmf",
    "cascade_pmf_table",
    "discrete_moments",
    "martingale_alpha",
    "rescaled_density_estimate",
]

_GRID_NUDGE = 1e-9  # guards floor() at grid points that are exact multiples


@dataclass(frozen=True)
class DiscretizationParams:
    """Atom count m per unit of population; requires delta = 1/m < p.

    Also requires q* < 1 in doubles, which fails once delta/p is of
    order 1e-16: at q* = 1 the NB count has no law to sample or tabulate.
    """

    p: float
    m: int
    delta: float = field(init=False)
    r_star: float = field(init=False)
    q_star: float = field(init=False)

    def __post_init__(self):
        model = ModelParams(self.p)  # validates p
        object.__setattr__(self, "p", model.p)
        if isinstance(self.m, bool) or not isinstance(self.m, (int, np.integer)):
            raise DomainError(f"m must be an integer, got {self.m!r}")
        m = int(self.m)
        if m < 1:
            raise DomainError(f"m must be >= 1, got {m}")
        delta = 1.0 / m
        if not delta < self.p:
            raise DomainError(
                f"need delta = 1/m < p, got m = {m} with p = {self.p!r}"
            )
        q_star = (self.p - delta) / self.p
        if q_star == 1.0:
            raise DomainError(
                f"q* = (p - delta)/p rounds to 1 at m = {m} with p = {self.p!r}"
            )
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "r_star", 2.0 * delta * self.p / (self.p - delta))
        object.__setattr__(self, "q_star", q_star)


@dataclass(frozen=True)
class CascadePmf:
    """Cascade-size pmf table over consecutive counts n = m_start, m_start+1, ...

    tail_bound dominates the mass beyond the last tabulated count
    (geometric-ratio argument); truncated marks tables whose bound is
    still above 1e-10, whether they stopped at the row cap or at n_max.
    """

    params: DiscretizationParams
    m_start: int
    probabilities: np.ndarray
    tail_bound: float
    truncated: bool

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise DomainError("probabilities must be a nonempty 1-d array")
        if np.any(probs < 0.0) or not np.all(np.isfinite(probs)):
            raise DomainError("probabilities must be finite and nonnegative")
        total = float(probs.sum())
        if total > 1.0 + 1e-9:
            raise DomainError(f"pmf mass exceeds one: {total!r}")
        if not (math.isfinite(self.tail_bound) and self.tail_bound >= 0.0):
            raise DomainError(f"tail_bound must be >= 0, got {self.tail_bound!r}")
        object.__setattr__(self, "probabilities", probs)

    @property
    def n_values(self) -> np.ndarray:
        return np.arange(self.m_start, self.m_start + self.probabilities.size)

    @property
    def total_mass(self) -> float:
        return float(self.probabilities.sum())

    def __len__(self) -> int:
        return self.probabilities.size


@dataclass(frozen=True)
class DiscreteMoments:
    """Exact cascade-size moments at finite delta, scaled to mass units."""

    per_atom: Moments
    total: Moments


def _validate_counts(n, minimum: int, name: str) -> np.ndarray:
    arr = np.asarray(n)
    if arr.dtype == object or not np.issubdtype(arr.dtype, np.integer):
        if np.issubdtype(arr.dtype, np.floating) and np.all(arr == np.floor(arr)):
            arr = arr.astype(np.int64)
        else:
            raise DomainError(f"{name} must be integer-valued, got dtype {arr.dtype}")
    if arr.size and int(arr.min()) < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {int(arr.min())}")
    return arr.astype(np.int64)


def nb_log_pmf(n, r: float, q: float):
    """log P{N = n} for the negative binomial b(n; r, q).

    b(n; r, q) = G(n + r) / (n! G(r)) (1 - q)^r q^n with r > 0 and
    0 < q < 1.  Accepts a scalar count or an array of counts.
    """
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"r must be positive, got {r!r}")
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie in (0, 1), got {q!r}")
    counts = _validate_counts(n, 0, "n").reshape(-1)
    nf = counts.astype(np.float64)
    out = (
        numerics.log_gamma(nf + r)
        - numerics.log_gamma(r)
        - numerics.log_gamma(nf + 1.0)
        + r * math.log1p(-q)
        + nf * math.log(q)
    )
    # n = 0 contributes no q^n factor; log(q) * 0 is already 0, but the
    # log-gamma pair at n = 0 cancels exactly only in exact arithmetic,
    # so set the atom directly.
    out[counts == 0] = r * math.log1p(-q)
    return float(out[0]) if np.ndim(n) == 0 else out.reshape(np.shape(n))


def gamma_density_limit_check(theta: float, delta: float, x: float) -> tuple[float, float]:
    """Compare the rescaled NB pmf with the Gamma(2, theta) density at x.

    The count N ~ NB(r, q) with r = 2 theta / (theta - delta) and
    q = (theta - delta) / theta makes delta N match Gamma(2, theta) in
    mean and variance exactly; delta -> 0 is the law itself.  Returns
    (delta^{-1} P{N = floor(x / delta)}, continuum density at x); the
    gap shrinks linearly in delta.
    """
    theta, delta, x = float(theta), float(delta), float(x)
    if not (math.isfinite(theta) and theta > 0.0):
        raise DomainError(f"theta must be positive, got {theta!r}")
    if not (math.isfinite(delta) and 0.0 < delta < theta):
        raise DomainError(f"delta must lie in (0, theta), got {delta!r}")
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"x must be positive, got {x!r}")
    r = 2.0 * theta / (theta - delta)
    q = (theta - delta) / theta
    n = int(math.floor(x / delta + _GRID_NUDGE))
    discrete = math.exp(nb_log_pmf(n, r, q)) / delta
    continuum = x * math.exp(-x / theta) / (theta * theta)
    return discrete, continuum


def cascade_log_pmf(params: DiscretizationParams, m_start: int, n):
    """log P{T = n}: total atoms ever born from m_start initial atoms.

    Returns -inf for n < m_start (the total counts the founders).  The
    n = m_start atom, where both offspring-count gamma factors cancel,
    is m_start r* log(1 - q*) and falls out of the same expression.
    Accepts a scalar count or an array.
    """
    if isinstance(m_start, bool) or not isinstance(m_start, (int, np.integer)):
        raise DomainError(f"m_start must be an integer, got {m_start!r}")
    m_start = int(m_start)
    if m_start < 1:
        raise DomainError(f"m_start must be >= 1, got {m_start}")
    counts = _validate_counts(n, 0, "n").reshape(-1)
    nf = np.maximum(counts, m_start).astype(np.float64)
    r, q = params.r_star, params.q_star
    out = (
        math.log(m_start)
        - np.log(nf)
        + numerics.log_gamma(nf * (1.0 + r) - m_start)
        - numerics.log_gamma(nf * r)
        - numerics.log_gamma(nf - m_start + 1.0)
        + r * nf * math.log1p(-q)
        + (nf - m_start) * math.log(q)
    )
    # Founders-only cascade: the gamma pair cancels identically.
    out[counts == m_start] = m_start * r * math.log1p(-q)
    out[counts < m_start] = -math.inf
    return float(out[0]) if np.ndim(n) == 0 else out.reshape(np.shape(n))


def _log_tail_ratio_limit(params: DiscretizationParams) -> float:
    """log of the limiting pmf ratio P{T = n+1} / P{T = n} as n grows.

    Equals log q* + r* log(1 - q*) + (1 + r*) log(1 + r*) - r* log r*;
    strictly negative off criticality and exactly zero at p = 1/2.
    """
    r, q = params.r_star, params.q_star
    return (
        math.log(q)
        + r * math.log1p(-q)
        + (1.0 + r) * math.log1p(r)
        - r * math.log(r)
    )


_TABLE_BLOCK = 4096
_TABLE_TAIL_MASS = 1e-10


def cascade_pmf_table(
    params: DiscretizationParams,
    m_start: int,
    n_max: int | None = None,
    # perfbench/tracer.py reads this default and len() of the table to count cap hits.
    max_rows: int = TABLE_ROW_CAP,
) -> CascadePmf:
    """Tabulate P{T = n} for n = m_start .. n_last, at most max_rows rows.

    With n_max given the table runs exactly to n_max, and an n_max that
    asks for more than max_rows rows is a DomainError.  Otherwise it
    grows in blocks until the certified bound on the untabulated mass,
    last pmf value times rho / (1 - rho) with rho the larger of the
    observed and limiting ratios, drops below 1e-10 or max_rows is
    reached.  truncated reports whether the bound still exceeded 1e-10
    when tabulation stopped (always the case at criticality, where the
    ratio tends to one and the tail is a power law); a bound that does
    not exist, as for a one-row table, is reported as 1 - mass.
    """
    if max_rows < 2:
        raise DomainError(f"max_rows must be >= 2, got {max_rows!r}")
    rows = max_rows
    if n_max is not None:
        if isinstance(n_max, bool) or not isinstance(n_max, (int, np.integer)):
            raise DomainError(f"n_max must be an integer, got {n_max!r}")
        rows = int(n_max) - m_start + 1
        if rows < 1:
            raise DomainError(f"n_max must be >= m_start = {m_start}, got {n_max}")
        if rows > max_rows:
            raise DomainError(f"n_max = {n_max} asks for {rows} rows, over the cap of {max_rows}")

    rho_limit = math.exp(min(_log_tail_ratio_limit(params), 0.0))

    def tail_bound(log_prev: float, log_last: float) -> float:
        rho = max(math.exp(min(log_last - log_prev, 0.0)), rho_limit)
        return math.inf if rho >= 1.0 else math.exp(log_last) * rho / (1.0 - rho)

    blocks: list[np.ndarray] = []
    last_two = (-math.inf, -math.inf)
    n_next, n_end = m_start, m_start + rows
    block = _TABLE_BLOCK
    while n_next < n_end:
        ns = np.arange(n_next, min(n_next + block, n_end), dtype=np.int64)
        logs = cascade_log_pmf(params, m_start, ns)
        blocks.append(np.exp(logs))
        last_two = (last_two + tuple(logs[-2:].tolist()))[-2:]
        bound = tail_bound(*last_two)
        n_next += ns.size
        block = min(block * 2, 65536)
        if n_max is None and bound <= _TABLE_TAIL_MASS:
            break

    probs = np.concatenate(blocks)
    truncated = not bound <= _TABLE_TAIL_MASS
    if math.isinf(bound):
        # Report something conservative yet finite: all unseen mass.
        bound = max(0.0, 1.0 - float(probs.sum()))
    return CascadePmf(params, m_start, probs, bound, truncated)


def discrete_moments(params: DiscretizationParams) -> DiscreteMoments:
    """Exact finite-delta moments of the cascade size in mass units.

    Per founding atom the mass delta T_1 has mean delta / (1 - 2p) and
    variance 2 delta p^2 / (1 - 2p)^3; the mass-one start is a sum of
    m independent copies, so its moments reproduce the continuum mean
    1 / (1 - 2p) and variance 2 p^2 / (1 - 2p)^3 exactly at every
    delta.  Subcritical only.
    """
    p = params.p
    if not p < 0.5:
        raise CriticalityError(f"discrete moments require p < 0.5, got p = {p!r}")
    shortfall = 1.0 - 2.0 * p
    per_atom = Moments(
        mean=params.delta / shortfall,
        variance=2.0 * params.delta * p * p / shortfall**3,
    )
    total = Moments(
        mean=1.0 / shortfall,
        variance=2.0 * p * p / shortfall**3,
    )
    return DiscreteMoments(per_atom=per_atom, total=total)


def martingale_alpha(params: DiscretizationParams) -> float:
    """Smallest fixed point in (0, 1] of the offspring generating function.

    alpha = ((1 - q*) / (1 - q* alpha))^{r*} is the extinction
    probability of a single atom's line.  At or below criticality the
    only root is 1; above it the interior root is found by a bracketed
    solve for t = ln alpha of

        t + r* log1p(-odds expm1(t)) = 0,   odds = q*/(1 - q*) = (p - delta)/delta,

    on [-745, -1e-300]: alpha = exp(t) keeps its relative precision both
    near criticality (t = -8e-10 at p = 0.5000001, m = 1000) and far above
    it (alpha = 1e-16 at p = 1e8, m = 1).
    """
    if params.p <= 0.5:
        return 1.0
    r = params.r_star
    odds = (params.p - params.delta) / params.delta

    def fixed_point_gap(t: float) -> float:
        return t + r * math.log1p(-odds * math.expm1(t))

    t = numerics.solve_bracketed(fixed_point_gap, Interval(-745.0, -1e-300))
    return math.exp(t)


def rescaled_density_estimate(params: DiscretizationParams, x):
    """delta^{-1} P{T = floor(x/delta)} from a mass-one start.

    Converges to the continuum density at x as delta -> 0; the floor
    is nudged so grid points that are exact multiples of delta land on
    their own atom, and x below 1, the founders' mass, gives 0.  A
    scalar x gives a float and an array an array of its shape, through
    one cascade_log_pmf call.
    """
    xs = np.asarray(x, dtype=np.float64)
    bad = ~((xs > 0.0) & (xs * params.m < 2.0**62))  # counts stay in int64
    if bad.any():
        raise DomainError(f"x must lie in (0, 2**62 delta), got {float(xs[bad][0])!r}")
    n = np.floor(xs * params.m + _GRID_NUDGE).astype(np.int64)
    out = params.m * np.exp(cascade_log_pmf(params, params.m, n))
    return float(out) if np.ndim(x) == 0 else out
