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
space, tabulates it with a certified geometric tail bound, gives the
exact moments of one atom's cascade at finite delta (m of them make
the continuum moments), and finds the per-atom extinction probability
as the smallest fixed point of the offspring generating function.
"""

from __future__ import annotations

import math
import operator

from . import numerics
from ._lazy import np
from ._record import Record
from .continuum import _CRITICAL_P, TABLE_ROW_CAP, ModelParams, Moments
from .errors import CriticalityError, DomainError, ToleranceError
from .numerics import Interval

__all__ = [
    "DiscretizationParams",
    "CascadePmf",
    "cascade_log_pmf",
    "cascade_pmf_table",
    "discrete_moments",
    "martingale_alpha",
    "rescaled_density_estimate",
]

_GRID_NUDGE = 1e-9  # guards floor() at grid points that are exact multiples


def _integer(value, name: str) -> int:
    """value as an int; DomainError for a bool or anything not integral.

    operator.index takes Python and numpy integers and refuses floats,
    without numpy having to be loaded to ask.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise DomainError(f"{name} must be an integer, got {value!r}")


class DiscretizationParams(Record):
    """Atom count m per unit of population; requires delta = 1/m < p.

    Also requires delta to be a positive double, which fails once m
    rounds to 2**1024 or more, and q* < 1 in doubles, which fails once
    delta/p is of order 1e-16: at q* = 1 the NB count has no law to
    sample or tabulate.
    """

    __slots__ = ("p", "m", "delta", "r_star", "q_star")

    def __init__(self, p: float, m: int):
        p = ModelParams(p).p  # validates p
        m = _integer(m, "m")
        if m < 1:
            raise DomainError(f"m must be >= 1, got {m}")
        try:
            delta = 1.0 / m
        except OverflowError:
            raise DomainError(f"need delta = 1/m to be a positive double, got m = {m}") from None
        if not delta < p:
            raise DomainError(
                f"need delta = 1/m < p, got m = {m} with p = {p!r}"
            )
        q_star = (p - delta) / p
        if q_star == 1.0:
            raise DomainError(
                f"q* = (p - delta)/p rounds to 1 at m = {m} with p = {p!r}"
            )
        super().__init__(p, m, delta, 2.0 * delta * p / (p - delta), q_star)


class CascadePmf(Record):
    """Cascade-size pmf table over consecutive counts n = m, m+1, ... from m founders.

    m is that of the DiscretizationParams the table was made from, which
    the table does not keep.  tail_bound dominates the mass beyond the
    last tabulated count (geometric-ratio argument); truncated marks
    tables whose bound is still above 1e-10, whether they stopped at the
    row cap or at n_max.
    """

    __slots__ = ("probabilities", "tail_bound")

    def __init__(self, probabilities: np.ndarray, tail_bound: float):
        probs = np.asarray(probabilities, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise DomainError("probabilities must be a nonempty 1-d array")
        if np.any(probs < 0.0) or not np.all(np.isfinite(probs)):
            raise DomainError("probabilities must be finite and nonnegative")
        if not (math.isfinite(tail_bound) and tail_bound >= 0.0):
            raise DomainError(f"tail_bound must be >= 0, got {tail_bound!r}")
        super().__init__(probs, tail_bound)

    @property
    def truncated(self) -> bool:
        return not self.tail_bound <= _TABLE_TAIL_MASS

    @property
    def total_mass(self) -> float:
        return float(self.probabilities.sum())

    def __len__(self) -> int:
        return self.probabilities.size


def _validate_counts(n) -> np.ndarray:
    """The counts n >= 0, of an integer dtype (as _integer takes no float), as int64."""
    arr = np.asarray(n)
    if not np.issubdtype(arr.dtype, np.integer):
        raise DomainError(f"n must be of an integer dtype, got dtype {arr.dtype}")
    if arr.size and int(arr.min()) < 0:
        raise DomainError(f"n must be >= 0, got {int(arr.min())}")
    return arr.astype(np.int64)


def cascade_log_pmf(params: DiscretizationParams, m_start: int, n):
    """log P{T = n}: total atoms ever born from m_start initial atoms.

    Returns -inf for n < m_start (the total counts the founders).  The
    n = m_start atom, where both offspring-count gamma factors cancel,
    is m_start r* log(1 - q*) and falls out of the same expression.
    Accepts a scalar count or an array.

    Accuracy: within 1e-11 of max(1, |ln P|) of the exact pmf at the
    given double p and delta = 1/m exactly, for m_start = m <= 1000,
    p in [0.2, 0.45] or [0.55, 2] with p m >= 1.01, and n - m <= 10^4;
    tests/test_discrete.py checks this against 60-digit mpmath.  Out
    there the terms, each of size n ln n, cancel further and the error
    grows: just above p = 1/m (7e-9 at p m - 1 = 5e-7), at far rows near
    p = 1/2, at huge p and at huge m.
    """
    m_start = _integer(m_start, "m_start")
    if m_start < 1:
        raise DomainError(f"m_start must be >= 1, got {m_start}")
    counts = _validate_counts(n).reshape(-1)
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
_EPS = 2.0**-52
_TABLE_TAIL_MASS = 1e-10


def cascade_pmf_table(
    params: DiscretizationParams,
    n_max: int | None = None,
    # perfbench/tracer.py reads this default and len() of the table to count cap hits.
    max_rows: int = TABLE_ROW_CAP,
) -> CascadePmf:
    """Tabulate P{T = n} from m = params.m founders for n = m .. n_last, at most max_rows rows.

    With n_max given the table runs exactly to n_max, and an n_max that
    asks for more than max_rows rows is a DomainError, as is a last
    count n_max, or m + max_rows - 1, above 2**63 - 1.  Otherwise it
    grows in blocks until the certified bound on the untabulated mass,
    last pmf value times rho / (1 - rho) with rho the larger of the
    observed and limiting ratios, drops below 1e-10 or max_rows is
    reached.  A bound that does not exist, as for a one-row table, is
    reported as 1 - mass.  A bound above 1e-10 marks the table truncated,
    as always at criticality, where the ratio tends to one.

    The table then checks itself against alpha^m, the chance that the
    cascade is finite, which martingale_alpha finds without the pmf
    formula.  It raises ToleranceError unless mass - tol <= alpha^m
    <= mass + tail_bound + tol, and at once for a row whose log is above
    0 (a row above one, whose exp() could overflow).  tol =
    8 eps (rows + m) is the table's own rounding: each row's log forms a
    count n (1 + r*) - m from terms of at least m, at a few eps m, and
    the sum adds eps per row.  Measured misses stay below 3 eps (rows + m)
    up to m = 2e5 where r* < 1; where r* is large, as for p just above
    1/m, the formula cancels far more.
    """
    if max_rows < 2:
        raise DomainError(f"max_rows must be >= 2, got {max_rows!r}")
    m = params.m
    rows = max_rows
    if n_max is not None:
        rows = _integer(n_max, "n_max") - m + 1
        if rows < 1:
            raise DomainError(f"n_max must be >= m = {m}, got {n_max}")
        if rows > max_rows:
            raise DomainError(f"n_max = {n_max} asks for {rows} rows, over the cap of {max_rows}")
    if m + rows > 2**63:
        raise DomainError(f"the table's last count {m + rows - 1} exceeds 2**63 - 1")

    rho_limit = math.exp(min(_log_tail_ratio_limit(params), 0.0))

    def tail_bound(log_prev: float, log_last: float) -> float:
        rho = max(math.exp(min(log_last - log_prev, 0.0)), rho_limit)
        return math.inf if rho >= 1.0 else math.exp(log_last) * rho / (1.0 - rho)

    blocks: list[np.ndarray] = []
    last_two = (-math.inf, -math.inf)
    n_next, n_end = m, m + rows
    block = _TABLE_BLOCK
    while n_next < n_end:
        ns = np.arange(n_next, min(n_next + block, n_end), dtype=np.int64)
        logs = cascade_log_pmf(params, m, ns)
        if logs.max() > 0.0:  # tested before exp(), which may overflow there
            row = int(np.argmax(logs))
            raise ToleranceError(f"pmf table misses alpha^{m} <= 1: row n = {n_next + row} "
                                 f"has log-probability {float(logs[row])!r} > 0")
        blocks.append(np.exp(logs))
        last_two = (last_two + tuple(logs[-2:].tolist()))[-2:]
        bound = tail_bound(*last_two)
        n_next += ns.size
        block = min(block * 2, 65536)
        if n_max is None and bound <= _TABLE_TAIL_MASS:
            break

    probs = np.concatenate(blocks)
    mass = float(probs.sum())
    if math.isinf(bound):
        # Report something conservative yet finite: all unseen mass.
        bound = max(0.0, 1.0 - mass)
    table = CascadePmf(probs, bound)
    alpha_m = martingale_alpha(params) ** m
    tol = 8.0 * _EPS * (probs.size + m)
    if not mass - tol <= alpha_m <= mass + bound + tol:
        raise ToleranceError(f"pmf table misses alpha^{m}: mass = {mass!r}, "
                             f"tail bound = {bound!r}, alpha^{m} = {alpha_m!r}")
    return table


def discrete_moments(params: DiscretizationParams) -> Moments:
    """Exact moments of the mass delta T_1 of one founding atom's cascade.

    Its mean is delta / (1 - 2p) and its variance 2 delta p^2 / (1 - 2p)^3.
    The mass-one start is a sum of m independent copies, so its moments
    are m times these: the continuum mean 1 / (1 - 2p) and variance
    2 p^2 / (1 - 2p)^3 of continuum.moments, exactly at every delta.
    Subcritical only.
    """
    p = params.p
    if not p < _CRITICAL_P:
        raise CriticalityError(f"discrete moments require p < {_CRITICAL_P}, got p = {p!r}")
    shortfall = 1.0 - 2.0 * p
    return Moments(mean=params.delta / shortfall,
                   variance=2.0 * params.delta * p * p / shortfall**3)


def martingale_alpha(params: DiscretizationParams) -> float:
    """Smallest fixed point in (0, 1] of the offspring generating function.

    alpha = ((1 - q*) / (1 - q* alpha))^{r*} is the extinction
    probability of a single atom's line.  At or below criticality the
    only root is 1; above it the interior root is found by a bracketed
    solve for t = ln alpha of

        t + r* log1p(x) = t - 2p expm1(t) L(x) = 0,
        x = -odds expm1(t),   odds = q*/(1 - q*) = (p - delta)/delta,

    with L(x) = log1p(x)/x and L(0) = 1, on [-745, -1e-300].  r* odds is
    exactly 2p, which the second form uses as such: as a rounded product
    it lost the sign of the gap at t = -1e-300 just above p = 1/2, where
    x is subnormal and 2p - 1 is 2e-14.  alpha = exp(t) keeps its
    relative precision both near criticality (t = -8e-10 at p = 0.5000001,
    m = 1000) and far above it (alpha = 1e-16 at p = 1e8, m = 1).
    """
    if params.p <= _CRITICAL_P:
        return 1.0
    odds = (params.p - params.delta) / params.delta
    two_p = 2.0 * params.p

    def fixed_point_gap(t: float) -> float:
        shrink = math.expm1(t)
        x = -odds * shrink
        return t - two_p * shrink * (math.log1p(x) / x if x else 1.0)

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
