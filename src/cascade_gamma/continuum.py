"""Closed-form results for the continuum cascade-size distribution.

The model: a population starts at size 1 and generation n+1 is drawn as
Gamma(2 X_n, p) given generation size X_n.  The total cascade size
Z = sum of all generations has, on the event that the cascade dies out,
the exact density

    g(x) = (x - 1)^(2x - 1) exp(-(1/p + 2 ln p) x + 1/p) / (x Gamma(2x)),

supported on x >= 1 with g(1) = 0.  This module evaluates g in log
space, its large-x exponential-power-law asymptote, the subcritical
mean and variance, the probability that the cascade is finite, and a
quadrature self-check that the density mass equals that probability.

The terms of size x ln x in ln g cancel analytically.  With the
Stirling remainder S(z) = ln G(z) - (z - 1/2) ln z + z - ln(2 pi)/2
(numerics.stirling_remainder), ln g is evaluated as

    ln g(x) = (ln C - a) - a (x - 1) - (3/2) ln x
              + [2 - (2x - 1) log1p(1 / (x - 1))] - S(2x),

where C e^(-a x) x^(-3/2) is the large-x asymptote, ln C - a =
-2 ln(2p) - ln(pi)/2, and the bracket, equal to 2 + (2x - 1) ln(1 - 1/x),
is O(1/x^2).  The decay rate a, of order (2p - 1)^2 near criticality,
comes without cancellation from _tail_constants.  Accuracy contract:
log_density is within 1e-13 of max(1, |ln g|) of the exact value for
1 < x <= 1e13 and 1e-4 <= p <= 1e4, p = 1/2 +- 10^-k included
(checked against 50-digit mpmath in tests/test_continuum.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import CriticalityError, DomainError
from .numerics import Interval, QuadratureResult

__all__ = [
    "ModelParams",
    "Moments",
    "ExtinctionReport",
    "NormalizationCheck",
    "DensityTable",
    "log_density",
    "density",
    "asymptotic_log_density",
    "moments",
    "numeric_moments",
    "extinction",
    "extinction_gap_root",
    "verify_normalization",
    "density_table",
]

_HALF_LOG_PI = 0.5 * math.log(math.pi)
_CRITICAL_P = 0.5
_MOMENTS_ABS_TOL = 1e-8
# The most rows a density or pmf table may have, checked before anything
# is allocated.
TABLE_ROW_CAP = 2_000_000


@dataclass(frozen=True)
class ModelParams:
    """Offspring scale p > 0 for Gamma(2, p) generations.

    The shape is fixed at k = 2: each unit of current population
    contributes a Gamma(2, p) block to the next generation, so the
    per-unit offspring mean is 2p and criticality sits at p = 1/2.
    """

    p: float
    k: int = 2

    def __post_init__(self):
        if self.k != 2:
            raise DomainError(f"only the shape k = 2 model is implemented, got k = {self.k!r}")
        try:
            p = float(self.p)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"p must be a positive real, got {self.p!r}") from exc
        if not (math.isfinite(p) and p > 0.0):
            raise DomainError(f"p must be a positive real, got {self.p!r}")
        object.__setattr__(self, "p", p)

    @property
    def subcritical(self) -> bool:
        return self.p < _CRITICAL_P


@dataclass(frozen=True)
class Moments:
    mean: float
    variance: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.variance)):
            raise DomainError(f"moments must be finite, got {self!r}")
        if self.variance < 0.0:
            raise DomainError(f"variance must be nonnegative, got {self.variance!r}")


@dataclass(frozen=True)
class ExtinctionReport:
    """Probability that the cascade is finite.

    decay_gap is the nonnegative root x* of x = 2 ln(1 + p x); the
    finite-cascade probability is exp(-x*).  Subcritical and critical
    cascades die out surely, so there decay_gap = 0 and prob_finite = 1.
    """

    p: float
    decay_gap: float

    def __post_init__(self):
        if not self.decay_gap >= 0.0:
            raise DomainError(f"decay_gap must be >= 0, got {self.decay_gap!r}")

    @property
    def log_prob_finite(self) -> float:
        """-decay_gap, written as 0.0 - decay_gap so that a zero gap gives +0.0."""
        return 0.0 - self.decay_gap

    @property
    def prob_finite(self) -> float:
        """exp(-decay_gap); 0 where that underflows (p above about 1e153)."""
        return math.exp(-self.decay_gap)


@dataclass(frozen=True)
class NormalizationCheck:
    """Outcome of integrating the density over its support.

    integral is the quadrature over the whole support [1, inf); no
    cutoff or tail term enters it.  x_max is the largest abscissa at
    which that quadrature evaluated the density.
    """

    integral: float
    x_max: float
    quadrature: QuadratureResult


@dataclass(frozen=True)
class DensityTable:
    params: ModelParams
    x: np.ndarray
    density: np.ndarray
    asymptotic: np.ndarray

    def __post_init__(self):
        if not (len(self.x) == len(self.density) == len(self.asymptotic)):
            raise DomainError("table columns must share one length")
        if np.any(np.diff(self.x) <= 0.0):
            raise DomainError("abscissas must be strictly increasing")
        for column in (self.density, self.asymptotic):
            if np.any(~np.isfinite(column)) or np.any(column < 0.0):
                raise DomainError("density columns must be finite and nonnegative")


def _on_support(x, message: str) -> np.ndarray:
    """x as a float64 array; DomainError names the first element off [1, inf)."""
    xs = np.asarray(x, dtype=np.float64)
    if xs.size and not (xs.min() >= 1.0 and xs.max() < math.inf):
        inside = np.isfinite(xs) & (xs >= 1.0)
        raise DomainError(f"{message} x >= 1, got {float(xs[~inside][0])!r}")
    return xs


def _like(out, x):
    """out as a float for a scalar x, else as the array of x's shape."""
    return float(out) if np.ndim(x) == 0 else out


def log_density(params: ModelParams, x):
    """ln g(x) for x >= 1; -inf at x = 1 where the density vanishes.

    Accepts a scalar, which gives a float, or an array, which gives an
    array of the same shape computed elementwise by the same formula.
    Evaluated in the rearranged form of the module docstring, whose
    terms carry no x ln x to cancel: the error stays within 1e-13 of
    max(1, |ln g|) for x up to 1e13 and every p, 1/2 +- 10^-k included.
    """
    xs = _on_support(x, "density is supported on")
    return _like(_log_density(_tail_constants(params), xs, xs - 1.0), x)


def _log_density(constants: tuple[float, float], x: np.ndarray, excess: np.ndarray) -> np.ndarray:
    """ln g at x, with the excess x - 1 passed on its own.

    constants is (ln C - a, a) from _tail_constants.  Near x = 1 the
    density only sees the excess, which x itself rounds away once it is
    below the spacing of doubles there (2.2e-16).
    """
    log_c_minus_a, a = constants
    two_x = 2.0 * x
    # log1p(1 / 0) = inf at x = 1.  Where p is subnormal, a = inf meets an
    # excess of 0 (nan) and 1 / excess overflows; _gk15 and DensityTable
    # reject the values that are not finite.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return (
            (log_c_minus_a + 2.0)
            - a * excess
            - 1.5 * np.log(x)
            - (two_x - 1.0) * np.log1p(1.0 / excess)
            - numerics.stirling_remainder(two_x)
        )


def density(params: ModelParams, x):
    """g(x) for x >= 1, as exp(log_density); a scalar or an array, like log_density."""
    return _like(np.exp(log_density(params, x)), x)


# Below this |v|, with v = (2p - 1)/(2p + 1), the decay rate comes from
# its series: seven terms leave under 1e-16 relative at the cut, and
# above it the closed form loses about 2e-16 / |v| <= 2e-15 relative.
_DECAY_SERIES_CUT = 0.1


def _tail_constants(params: ModelParams) -> tuple[float, float]:
    """(ln C - a, a) of the asymptote g(x) ~ C exp(-a x) x^(-3/2).

    ln C - a x is used as (ln C - a) - a (x - 1), where ln C - a =
    -2 ln(2p) - ln(pi)/2: at small p the 1/p in ln C never meets the 1/p
    in a.  The decay rate a = (1 - 2p)/p + 2 ln(2p) is of order
    (2p - 1)^2 near criticality.  With v = (2p - 1)/(2p + 1) it is
    4 [v^2 / (1 + v) + atanh(v) - v] with atanh(v) = ln(2p)/2.  Its only
    cancellation, in atanh(v) - v = v^3/3 + v^5/5 + ..., the series
    avoids for small v.
    """
    p = params.p
    if math.isinf(4.0 * p):  # p above about 4.5e307: a is 2 ln(2p) - 2 to the last bit
        log_two_p = math.log(2.0) + math.log(p)
        return -2.0 * log_two_p - _HALF_LOG_PI, 2.0 * log_two_p - 2.0
    log_two_p = math.log(2.0 * p)
    v = (2.0 * p - 1.0) / (2.0 * p + 1.0)
    if abs(v) < _DECAY_SERIES_CUT:
        atanh_excess = v**3 * sum(v ** (2 * j) / (2 * j + 3) for j in range(7))
    else:
        atanh_excess = 0.5 * log_two_p - v
    a = 4.0 * (v * v * (2.0 * p + 1.0) / (4.0 * p) + atanh_excess)
    return -2.0 * log_two_p - _HALF_LOG_PI, a


def asymptotic_log_density(params: ModelParams, x):
    """Large-x approximation ln C - a x - (3/2) ln x; a scalar or an array.

    The decay rate a = (1 - 2p)/p + 2 ln(2p) is strictly positive away
    from criticality and vanishes exactly at p = 1/2, where the density
    degenerates to the pure power law C x^(-3/2).
    """
    xs = _on_support(x, "asymptote is evaluated on")
    log_c_minus_a, a = _tail_constants(params)
    return _like(log_c_minus_a - a * (xs - 1.0) - 1.5 * np.log(xs), x)


def moments(params: ModelParams) -> Moments:
    """Exact subcritical mean 1/(1 - 2p) and variance 2 p^2 / (1 - 2p)^3."""
    if not params.subcritical:
        raise CriticalityError(
            f"cascade moments require p < {_CRITICAL_P} (offspring mean below one), got p = {params.p!r}"
        )
    shortfall = 1.0 - 2.0 * params.p
    return Moments(mean=1.0 / shortfall, variance=2.0 * params.p**2 / shortfall**3)


def extinction(params: ModelParams) -> ExtinctionReport:
    """Finite-cascade probability via the lower Lambert W branch.

    For p > 1/2 the root of x = 2 ln(1 + p x) is
    x* = -(2 W_{-1}(-exp(-1/(2p)) / (2p)) + 1/p); at or below
    criticality the cascade is finite with probability one.
    """
    p = params.p
    if p <= _CRITICAL_P:
        return ExtinctionReport(p=p, decay_gap=0.0)
    # -exp(-1/(2p)) / (2p) without forming 2p, which overflows above 9e307.
    # Above about 2e307 it is subnormal, yet never below 2.7e-309.
    argument = -0.5 * math.exp(-0.5 / p) / p
    # W_{-1} <= -1 and 1/p < 2, so the gap is positive.
    return ExtinctionReport(p=p, decay_gap=-(2.0 * numerics.lambert_w_m1(argument) + 1.0 / p))


def extinction_gap_root(params: ModelParams) -> float:
    """The same decay gap found by solving x = 2 ln(1 + p x) directly.

    Independent of the Lambert route above; the two are cross-checked
    in the verification suite.  Returns 0 at or below criticality.
    The bracket [2^-1000, 2048] serves every p > 1/2: at its low end
    p x is exact and log1p(p x) = p x, so the balance is (2p - 1) x > 0,
    and at its high end it is 2 ln(1 + 2048 p) - 2048 < 2 ln(2^1035) - 2048 < 0.
    """
    p = params.p
    if p <= _CRITICAL_P:
        return 0.0

    def gap_balance(x: float) -> float:
        px = p * x
        if math.isinf(px):  # only above p of about 4e304
            return 2.0 * (math.log(p) + math.log(x)) - x
        return 2.0 * math.log1p(px) - x

    return numerics.solve_bracketed(gap_balance, Interval(2.0**-1000, 2048.0))


def _support_excess(params: ModelParams, v):
    """x - 1 = s (v^-2 - 1) with s = min(p, 1/2): maps v in (0, 1] onto x in [1, inf)."""
    return min(params.p, _CRITICAL_P) * (1.0 / (v * v) - 1.0)


def _support_integrand(params: ModelParams, constants: tuple[float, float], k: int,
                       v: np.ndarray) -> np.ndarray:
    """x^k g(x) |dx/dv| at x = 1 + _support_excess(v), where |dx/dv| = 2 s v^-3.

    constants is _tail_constants(params), computed once per quadrature.

    The x^(-3/2) tail becomes a bounded integrand in v, about
    2 C s^(-1/2) exp(-a s / v^2) near v = 0 for every p, and the peak
    near x = 1 + p sits at v of order one however small p is.  The
    density gets the excess itself, which keeps that peak resolved
    below p = 1e-16.  The factors are summed as logs and exponentiated
    once, so a density that underflows never meets a v^-3 that
    overflows (no 0 * inf = nan).
    """
    excess = _support_excess(params, v)
    x = 1.0 + excess
    log_jacobian = math.log(2.0 * min(params.p, _CRITICAL_P)) - 3.0 * np.log(v)
    log_terms = _log_density(constants, x, excess) + log_jacobian
    if k:
        log_terms += k * np.log(x)
    return np.exp(log_terms)


def _support_breaks(params: ModelParams, a: float) -> list[float]:
    """The points sqrt(a s) 2^j, j = -6 ... 6, that lie in (0, 1), ascending; a is the decay rate.

    Empty where sqrt(a s) >= 1 (p above about 3.2): there the cutoff
    lies beyond v = 1, and the graded panels would only add nodes.
    """
    cutoff = math.sqrt(a * min(params.p, _CRITICAL_P))
    if cutoff >= 1.0:
        return []
    edges = (cutoff * 2.0**j for j in range(-6, 7))
    return [edge for edge in edges if 0.0 < edge < 1.0]


def _support_moment(params: ModelParams, k: int, abs_tol: float) -> tuple[QuadratureResult, float]:
    """The integral of x^k g(x) over [1, inf), as one quadrature on v in (0, 1].

    The quadrature starts from panels graded towards the e^(-a x)
    cutoff, which sits at v of about sqrt(a s): its seed edges are
    _support_breaks, the points sqrt(a s) 2^j that lie in (0, 1).  Near
    criticality the cutoff is at v of order |2p - 1|, where a single
    panel on (0, 1] never places a node: it would integrate the flat
    critical tail down to v = 0 and report a small error estimate for a
    result off by about 2 |2p - 1|.

    Also returns the largest x at which the quadrature evaluated g,
    finite because no Kronrod node sits on v = 0.
    """
    constants = _tail_constants(params)
    smallest_v = 1.0

    def integrand(v: np.ndarray) -> np.ndarray:
        nonlocal smallest_v
        smallest_v = min(smallest_v, float(v[0]))  # nodes ascend
        return _support_integrand(params, constants, k, v)

    quadrature = numerics.integrate_adaptive(
        integrand, Interval(0.0, 1.0), abs_tol=abs_tol, breaks=_support_breaks(params, constants[1]))
    return quadrature, 1.0 + _support_excess(params, smallest_v)


def numeric_moments(params: ModelParams) -> Moments:
    """Mean and variance by integrating the density; subcritical only.

    A quadrature cross-check for the closed forms in moments(): the
    first and second moments are each integrated over the whole support
    [1, inf) to 1e-8 / 4 absolute (see _support_integrand), with no
    cutoff and no tail term.
    """
    if not params.subcritical:
        raise CriticalityError(
            f"numeric moments require p < {_CRITICAL_P}, got p = {params.p!r}"
        )
    first, _ = _support_moment(params, 1, _MOMENTS_ABS_TOL * 0.25)
    second, _ = _support_moment(params, 2, _MOMENTS_ABS_TOL * 0.25)
    mean = first.value
    return Moments(mean=mean, variance=second.value - mean * mean)


def verify_normalization(params: ModelParams, abs_tol: float) -> NormalizationCheck:
    """Integrate the density over its support to check the finite-cascade mass.

    Subcritically and at p = 1/2 the density integrates to one;
    supercritically to exp(-decay_gap); the caller compares the integral
    with extinction(params).prob_finite.  One quadrature covers the whole
    support [1, inf) for every p, the critical power-law tail included
    (see _support_integrand): there is no cutoff and no tail term.
    x_max is the largest abscissa at which the density was evaluated.
    Quadrature failures propagate as ToleranceError.
    """
    if not (math.isfinite(abs_tol) and abs_tol > 0.0):
        raise DomainError(f"abs_tol must be positive and finite, got {abs_tol!r}")
    quadrature, x_max = _support_moment(params, 0, abs_tol * 0.5)
    return NormalizationCheck(integral=quadrature.value, x_max=x_max, quadrature=quadrature)


def density_table(params: ModelParams, x_min: float, x_max: float, steps: int) -> DensityTable:
    """Evaluate density and asymptote on a uniform grid (both endpoints included)."""
    x_min, x_max = float(x_min), float(x_max)
    if not (math.isfinite(x_min) and x_min >= 1.0):
        raise DomainError(f"x_min must be >= 1, got {x_min!r}")
    if not (math.isfinite(x_max) and x_max > x_min):
        raise DomainError(f"x_max must exceed x_min, got {x_max!r}")
    steps = int(steps)
    if steps < 2:
        raise DomainError(f"steps must be >= 2, got {steps!r}")
    if steps > TABLE_ROW_CAP:
        raise DomainError(f"steps = {steps} is over the cap of {TABLE_ROW_CAP}")
    grid = np.linspace(x_min, x_max, steps)
    return DensityTable(
        params=params,
        x=grid,
        density=density(params, grid),
        asymptotic=np.exp(asymptotic_log_density(params, grid)),
    )
