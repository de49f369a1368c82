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
(numerics._remainder), ln g is evaluated as

    ln g(x) = (ln C - a) - a (x - 1) - (3/2) ln x
              + [2 - (2x - 1) log1p(1 / (x - 1))] - S(2x),

where C e^(-a x) x^(-3/2) is the large-x asymptote, ln C - a =
-2 ln(2p) - ln(pi)/2, and the bracket, equal to 2 + (2x - 1) ln(1 - 1/x),
is O(1/x^2).  The decay rate a, of order (2p - 1)^2 near criticality,
comes without cancellation from _tail_constants.  Accuracy contract:
log_density is within 1e-13 of max(1, |ln g|) of the exact value for
1 < x <= 1e13 and 1e-4 <= p <= 1e4, p = 1/2 +- 10^-k included
(checked against 50-digit mpmath in tests/test_continuum.py), and finite
up to the largest double, where tests check it at 700 digits.
"""

from __future__ import annotations

import math
import sys

from ._lazy import np
from ._record import Record
from .errors import CriticalityError, DomainError

# numerics is imported where it is called, so moments leaves it unloaded;
# calls go through the module, where perfbench's tracer wraps them.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .numerics import QuadratureResult

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
    "extinction",
    "extinction_gap_root",
    "verify_normalization",
    "density_table",
]

_HALF_LOG_PI = 0.5 * math.log(math.pi)
_DBL_MAX = sys.float_info.max
_CRITICAL_P = 0.5
# The most rows a density or pmf table may have, checked before anything
# is allocated.
TABLE_ROW_CAP = 2_000_000


class ModelParams(Record):
    """Offspring scale p > 0 for Gamma(2, p) generations.

    The shape is fixed at k = 2, so it is no field: each unit of current
    population contributes a Gamma(2, p) block to the next generation,
    the per-unit offspring mean is 2p and criticality sits at p = 1/2.
    """

    __slots__ = ("p",)

    def __init__(self, p: float):
        try:
            value = float(p)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"p must be a positive real, got {p!r}") from exc
        if not (math.isfinite(value) and value > 0.0):
            raise DomainError(f"p must be a positive real, got {p!r}")
        super().__init__(value)

    @property
    def subcritical(self) -> bool:
        return self.p < _CRITICAL_P


class Moments(Record):
    __slots__ = ("mean", "variance")

    def __init__(self, mean: float, variance: float):
        super().__init__(mean, variance)
        if not (math.isfinite(mean) and math.isfinite(variance)):
            raise DomainError(f"moments must be finite, got {self!r}")
        if variance < 0.0:
            raise DomainError(f"variance must be nonnegative, got {variance!r}")


class ExtinctionReport(Record):
    """Probability that the cascade is finite, at the p of the caller's params.

    decay_gap is the nonnegative root x* of x = 2 ln(1 + p x); the
    finite-cascade probability is exp(-x*).  Subcritical and critical
    cascades die out surely, so there decay_gap = 0 and prob_finite = 1.
    """

    __slots__ = ("decay_gap",)

    def __init__(self, decay_gap: float):
        if not decay_gap >= 0.0:
            raise DomainError(f"decay_gap must be >= 0, got {decay_gap!r}")
        super().__init__(decay_gap)

    @property
    def log_prob_finite(self) -> float:
        """-decay_gap, written as 0.0 - decay_gap so that a zero gap gives +0.0."""
        return 0.0 - self.decay_gap

    @property
    def prob_finite(self) -> float:
        """exp(-decay_gap); 0 where that underflows (p above about 1e153)."""
        return math.exp(-self.decay_gap)


class NormalizationCheck(Record):
    """Outcome of integrating the density over its support.

    quadrature covers the whole support [1, inf), and its value is the
    integral; no cutoff or tail term enters it.  x_max is the largest
    abscissa at which that quadrature evaluated the density.
    """

    __slots__ = ("x_max", "quadrature")

    def __init__(self, x_max: float, quadrature: QuadratureResult):
        super().__init__(x_max, quadrature)


class DensityTable(Record):
    __slots__ = ("x", "density", "asymptotic")

    def __init__(self, x: np.ndarray, density: np.ndarray, asymptotic: np.ndarray):
        if not (len(x) == len(density) == len(asymptotic)):
            raise DomainError("table columns must share one length")
        if np.any(np.diff(x) <= 0.0):
            raise DomainError("abscissas must be strictly increasing")
        for column in (density, asymptotic):
            if np.any(~np.isfinite(column)) or np.any(column < 0.0):
                raise DomainError("density columns must be finite and nonnegative")
        super().__init__(x, density, asymptotic)


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
    from . import numerics

    log_c_minus_a, a = constants
    # log1p(1 / 0) = inf at x = 1.  Where p is subnormal, a = inf meets an
    # excess of 0 (nan) and 1 / excess overflows; _gk15 and DensityTable
    # reject the values that are not finite.  2x overflows from x = 2^1023
    # on, so the bracket scales by 2 last, which rounds as (2x - 1) does,
    # and S(2x), below 1e-307 there, is taken at DBL_MAX.  x >= 1 is
    # finite, so the Stirling kernel takes 2x flat and unchecked.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return (
            (log_c_minus_a + 2.0)
            - a * excess
            - 1.5 * np.log(x)
            - 2.0 * ((x - 0.5) * np.log1p(1.0 / excess))
            - numerics._remainder(np.minimum(2.0 * x, _DBL_MAX).reshape(-1)).reshape(x.shape)
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
    with np.errstate(invalid="ignore"):  # a = inf at a subnormal p; at x = 1 the term is 0
        decay = np.where(xs > 1.0, a * (xs - 1.0), 0.0)
    return _like(log_c_minus_a - decay - 1.5 * np.log(xs), x)


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
    x* = -(2 W_{-1}(-exp(-1/(2p)) / (2p)) + 1/p).  That argument is
    -exp(-1 - a/2) with a the decay rate of _tail_constants, so
    W_{-1} = -e^r with r = numerics.lambert_w_m1(a/2), and
    x* = 2 (expm1(r) + (p - 1/2)/p): two terms >= 0, nothing cancels.
    At or below criticality the cascade is finite with probability one.
    """
    from . import numerics

    p = params.p
    if p <= _CRITICAL_P:
        return ExtinctionReport(decay_gap=0.0)
    r = numerics.lambert_w_m1(0.5 * _tail_constants(params)[1])
    return ExtinctionReport(decay_gap=2.0 * (math.expm1(r) + (p - 0.5) / p))


def extinction_gap_root(params: ModelParams) -> float:
    """The same decay gap found by solving x = 2 ln(1 + p x) directly.

    Independent of the Lambert route above; the two are cross-checked
    in the verification suite.  Returns 0 at or below criticality.
    The bracket [2^-1000, 2048] serves every p > 1/2: at its low end
    p x is exact and log1p(p x) = p x, so the balance is (2p - 1) x > 0,
    and at its high end it is 2 ln(1 + 2048 p) - 2048 < 2 ln(2^1035) - 2048 < 0.
    """
    from . import numerics

    p = params.p
    if p <= _CRITICAL_P:
        return 0.0

    def gap_balance(x: float) -> float:
        px = p * x
        if math.isinf(px):  # only above p of about 4e304
            return 2.0 * (math.log(p) + math.log(x)) - x
        return 2.0 * math.log1p(px) - x

    return numerics.solve_bracketed(gap_balance, numerics.Interval(2.0**-1000, 2048.0))


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


# The seed edges towards v = 1, 1 - 2^-k for k = 1 ... 6; k = 6 is used
# at a finer tolerance only.
_TOP_EDGES = tuple(1.0 - 2.0**-k for k in range(1, 7))
# Quadrature tolerances below _FINE_TOL get finer seed panels, and those
# below _FINER_TOL finer still; see _support_breaks.
_FINE_TOL = 1e-7
_FINER_TOL = 1e-8
# At a fine tolerance each cutoff octave that starts at or above this v is
# split at its geometric midpoint.
_SPLIT_FROM = 0.03
_SQRT2 = math.sqrt(2.0)


def _support_breaks(params: ModelParams, a: float, abs_tol: float) -> list[float]:
    """The seed edges of the support quadrature, strictly ascending in (0, 1).

    a is the decay rate and abs_tol the quadrature's tolerance.  Octaves
    towards both places where a panel converges slowly:

    - the e^(-a x) cutoff at v of about c = sqrt(a s): the points c 2^j,
      j >= -3, that lie in (0, 1).  Below c/8 the cutoff factor
      e^(-a (x - 1)) = e^(c^2 - (c/v)^2) is under e^(c^2 - 64).  There
      are none where c >= 1 (p above about 3.2), since the cutoff then
      lies beyond v = 1, and none at p = 1/2, where a = 0;
    - v = 1, that is x = 1, where the density's factor
      (x - 1)^(2x - 1) = (x - 1) exp(2 (x - 1) ln(x - 1)) is not
      analytic: the points 1 - 2^-k, k = 1 ... 5, that lie above the
      last of those, so the two never meet (at p = 1e-300 the last
      cutoff point is one ulp below 1).

    A round of integrate_adaptive costs far more than a node, so the
    quadrature starts from more panels than the integrand needs, and most
    verify quadratures end in their first call.  A tight tolerance needs
    narrower panels than those octaves, so the edges depend on abs_tol:

    - below _FINE_TOL (1e-7), each cutoff octave that starts at or above
      v = 0.03 is split at its geometric midpoint, and the points
      1 - 2^-k above v = 1/2 are kept below the last cutoff point too.
      That point can lie just below v = 1, and the half-octave under it
      then spans most of the way to the edge that is not analytic;
    - below _FINER_TOL (1e-8), where c < 1, the octaves towards v = 1 run
      one further, to 1 - 2^-6; where 1 <= c < 2, the points c/4 and c/2
      are placed, since [0, 1/2] is one panel there otherwise.

    Each of the 260 verify quadratures of the benchmark's seeds 1-10 then
    ends in its first call, against 196 when the edges did not depend on
    abs_tol.
    """
    cutoff = math.sqrt(a * min(params.p, _CRITICAL_P))
    if cutoff < 1.0:
        # cutoff = m 2^e with m in [1/2, 1), so cutoff 2^j < 1 up to j = -e.
        graded = (math.ldexp(cutoff, j) for j in range(-3, 1 - math.frexp(cutoff)[1]))
        edges = [edge for edge in graded if edge > 0.0]
    elif cutoff < 2.0 and abs_tol < _FINER_TOL:
        edges = [0.25 * cutoff, 0.5 * cutoff]
    else:
        edges = []
    top = edges[-1] if edges else 0.0
    if abs_tol >= _FINE_TOL:
        return edges + [edge for edge in _TOP_EDGES[:5] if edge > top]
    if cutoff < 1.0:
        edges += [edge * _SQRT2 for edge in edges if edge >= _SPLIT_FROM and edge * _SQRT2 < 1.0]
    octaves = 6 if abs_tol < _FINER_TOL and cutoff < 1.0 else 5
    # The two sets now interleave, and a cutoff point can equal a point 1 - 2^-k.
    return sorted(set(edges).union(edge for edge in _TOP_EDGES[:octaves] if edge > min(top, 0.5)))


def _support_moment(params: ModelParams, k: int, abs_tol: float) -> tuple[QuadratureResult, float]:
    """The integral of x^k g(x) over [1, inf), as one quadrature on v in (0, 1].

    The quadrature starts from panels graded towards the e^(-a x)
    cutoff, which sits at v of about sqrt(a s), and towards v = 1: its
    seed edges are _support_breaks, which gets abs_tol, since a tighter
    tolerance needs narrower seed panels to end in the first integrand
    call.  Near criticality the cutoff is at v
    of order |2p - 1|, where a single panel on (0, 1] never places a
    node: it would integrate the flat critical tail down to v = 0 and
    report a small error estimate for a result off by about 2 |2p - 1|.
    The cutoff octaves run on up to v = 1: past the last one the cutoff
    factor still differs from 1 by about a s / v^2, a deficit that a
    panel reaching far beyond it can miss.

    Also returns the largest x at which the quadrature evaluated g,
    finite because no Kronrod node sits on v = 0.
    """
    from . import numerics

    constants = _tail_constants(params)
    smallest_v = 1.0

    def integrand(v: np.ndarray) -> np.ndarray:
        nonlocal smallest_v
        smallest_v = min(smallest_v, float(v[0]))  # nodes ascend
        return _support_integrand(params, constants, k, v)

    quadrature = numerics.integrate_adaptive(
        integrand, numerics.Interval(0.0, 1.0), abs_tol=abs_tol,
        breaks=_support_breaks(params, constants[1], abs_tol))
    return quadrature, 1.0 + _support_excess(params, smallest_v)


# The smallest p at which verify_normalization is right.  Below it the
# nodes nearest v = 1 map to an excess p (v^-2 - 1) under the normal
# range of doubles, where 1 / excess overflows and the density reads 0:
# at p = 1e-306 the integral came out 1.5e-5 short, at 1e-310 it was 0.
# Measured right from 1e-305 to 1e-302 at abs_tol 1e-3 to 1e-12.
_VERIFY_MIN_P = 1e-305


def verify_normalization(params: ModelParams, abs_tol: float) -> NormalizationCheck:
    """Integrate the density over its support to check the finite-cascade mass.

    Subcritically and at p = 1/2 the density integrates to one;
    supercritically to exp(-decay_gap); the caller compares the integral
    with extinction(params).prob_finite.  One quadrature covers the whole
    support [1, inf) for every p, the critical power-law tail included
    (see _support_integrand): there is no cutoff and no tail term.
    x_max is the largest abscissa at which the density was evaluated.
    Quadrature failures propagate as ToleranceError, and p below 1e-305,
    where the integral would be wrong, is a DomainError.

    The quadrature runs at half of abs_tol, whose size also sets its seed
    panels (see _support_breaks), so that nearly every check ends in one
    integrand call.  Half of the smallest double rounds to 0, which the
    quadrature refuses; there it runs at that smallest double instead.
    """
    if not (math.isfinite(abs_tol) and abs_tol > 0.0):
        raise DomainError(f"abs_tol must be positive and finite, got {abs_tol!r}")
    if params.p < _VERIFY_MIN_P:
        raise DomainError(
            f"the normalization check requires p >= {_VERIFY_MIN_P!r}, got p = {params.p!r}: "
            "below that the density near x = 1 is lost to underflow")
    quadrature, x_max = _support_moment(params, 0, max(0.5 * abs_tol, math.ulp(0.0)))
    return NormalizationCheck(x_max=x_max, quadrature=quadrature)


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
    # linspace may overflow at its last point, which it then sets to x_max.
    # Below p of about 2.8e-155, ln C - a passes ln(DBL_MAX), and the
    # asymptote overflows near x = 1; the density itself stays finite.
    with np.errstate(over="ignore"):
        grid = np.linspace(x_min, x_max, steps)
        asymptotic = np.exp(asymptotic_log_density(params, grid))
    if np.any(np.diff(grid) <= 0.0):
        raise DomainError(f"x_min = {x_min!r}, x_max = {x_max!r} and steps = {steps} repeat "
                          "a grid point; take fewer steps or a wider range")
    over = np.isinf(asymptotic)
    if over.any():
        raise DomainError(f"the asymptote exceeds the largest double at x = {float(grid[over][0])!r} "
                          f"for p = {params.p!r}")
    return DensityTable(x=grid, density=density(params, grid), asymptotic=asymptotic)
