"""Special functions and numerical routines used across the package.

Everything here is self-contained and deterministic: a Stirling-series
log-gamma and its remainder, the lower real branch of the Lambert W
function as ln(-W_{-1}) from the argument's log distance to the branch
point, by Newton steps, a root solver that bisects a sign-changing
bracket down to adjacent doubles, and an adaptive Gauss-Kronrod
quadrature.  These are the only numerical kernels the analytical
modules rely on, so their accuracy contracts are tested directly (see
tests/test_numerics.py).

Both gamma kernels rest on the Stirling remainder

    S(z) = ln G(z) - (z - 1/2) ln z + z - ln(2 pi)/2,

summed from its series for z >= 8.  The elements below 8 are lifted
once by ln G(z) = ln G(z + 8) - ln(z (z+1) ... (z+7)), so the cost is a
fixed number of numpy calls plus work on that subset only.  Contracts:
S (_remainder) to 1e-15 absolute for z >= 8 (1e-14 of max(1, |S|)
below), log_gamma to 1e-13 of max(1, |ln G|) for every positive double
up to 1e8.  Callers that need ln G(z) only inside a difference of
terms of size z ln z, as the cascade density does, use S and cancel
those terms analytically (Loader 2000, "Fast and Accurate Computation
of Binomial Probabilities"), through _remainder on a bounded array.

log_gamma, _remainder and the quadrature work on arrays: the
gamma kernels map an ndarray elementwise, and integrate_adaptive works
in rounds (the design of quadgk: Shampine 2008, "Vectorized adaptive
quadrature in MATLAB").  It calls its integrand once with the nodes of
all its seed panels, then once per round with the nodes of every panel
that round refines, each time as one ascending float64 array, and
keeps the panels' ends, values and error estimates in float64 arrays
from the seed call to the result.  The root solvers stay scalar, since
each of their steps depends on the one before.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence

from ._lazy import np
from ._record import Record
from .errors import DomainError, NoSignChangeError, ToleranceError

__all__ = [
    "Interval",
    "QuadratureResult",
    "log_gamma",
    "lambert_w_m1",
    "solve_bracketed",
    "integrate_adaptive",
]


class Interval(Record):
    """A finite closed interval [lo, hi] with lo < hi."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        low, high = float(lo), float(hi)
        if not (math.isfinite(low) and math.isfinite(high)):
            raise DomainError(f"interval endpoints must be finite, got [{lo}, {hi}]")
        if not low < high:
            raise DomainError(f"interval requires lo < hi, got [{low}, {high}]")
        super().__init__(low, high)


class QuadratureResult(Record):
    """Value of an integral together with its error estimate and cost."""

    __slots__ = ("value", "abs_error_estimate", "evaluations")

    def __init__(self, value: float, abs_error_estimate: float, evaluations: int):
        if not math.isfinite(value):
            raise DomainError(f"integral value must be finite, got {value!r}")
        if not abs_error_estimate >= 0.0:
            raise DomainError(f"error estimate must be >= 0, got {abs_error_estimate!r}")
        if evaluations < 1:
            raise DomainError(f"evaluations must be >= 1, got {evaluations!r}")
        super().__init__(value, abs_error_estimate, evaluations)


# Stirling series coefficients: B_{2k} / (2k (2k-1)), k = 1..7.  Above 8
# the first omitted term is below 1e-15, which keeps the overall error
# within the 1e-13 contract.
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_STIRLING_SHIFT = 8.0


def _stirling_series(w: np.ndarray) -> np.ndarray:
    """The Stirling remainder S(w) from its series, accurate for w >= 8."""
    inv = 1.0 / w
    inv_sq = inv * inv
    series = _STIRLING[-1] * inv_sq + _STIRLING[-2]
    for c in _STIRLING[-3::-1]:
        series = series * inv_sq + c
    return series * inv


def _remainder(z: np.ndarray) -> np.ndarray:
    """S(z) on a flat array of positive finite doubles, which it does not check.

    The elements below 8 are gathered once, lifted to w = z + 8 and
    scattered back, so the series runs once on the whole array; from
    ln G(z) = ln G(w) - ln(z (z+1) ... (z+7)) they then take
    S(z) = S(w) + (w - 1/2) ln w - (z - 1/2) ln z - 8 - ln(z (z+1) ... (z+7)).
    The product is u (u+6) (u+10) (u+12) with u = z (z+7).  The number
    of numpy calls is fixed, and the extra work covers only that subset.
    """
    low = (z < _STIRLING_SHIFT).nonzero()[0]  # np.flatnonzero, without its wrapper
    if not low.size:
        return _stirling_series(z)
    zl = z[low]
    wl = zl + _STIRLING_SHIFT
    w = z.copy()
    w[low] = wl
    out = _stirling_series(w)
    u = zl * (zl + 7.0)
    log_rising = np.log(u * (u + 6.0) * (u + 10.0) * (u + 12.0))
    out[low] += (wl - 0.5) * np.log(wl) - (zl - 0.5) * np.log(zl) - log_rising - _STIRLING_SHIFT
    return out


def log_gamma(z):
    """Natural log of the gamma function for real z > 0.

    Accepts a scalar or an ndarray and returns the matching shape.
    Computed as (z - 1/2) ln z - z + ln(2 pi)/2 + S(z) with the Stirling
    remainder S of _remainder: one array pass with a fixed
    number of numpy calls, whatever the size of z or how many of its
    elements lie below 8.  Error stays below 1e-13 relative to
    max(1, |ln G|) for every positive double from 5e-324 up to 1e8, and
    beyond while the result is finite.
    """
    work = np.asarray(z, dtype=np.float64).reshape(-1)
    if work.size and not (work.min() > 0.0 and work.max() < math.inf):
        bad = work[~((work > 0.0) & (work < math.inf))][0]
        raise DomainError(f"log_gamma requires z > 0 and finite, got {float(bad)!r}")
    out = (work - 0.5) * np.log(work) - work + _HALF_LOG_TWO_PI + _remainder(work)
    return float(out[0]) if np.ndim(z) == 0 else out.reshape(np.shape(z))


# e^r - 1 - r below r = 1 as r^2 sum_k r^k / (k + 2)!, all terms positive;
# the first one left out, r^17 / 19!, is under 2e-17 of the sum.
_EXCESS_SERIES = tuple(1.0 / math.factorial(k + 2) for k in range(17))[::-1]


def _expm1_excess(r: float) -> float:
    """e^r - 1 - r for r >= 0, with no cancellation below r = 1."""
    if r >= 1.0:
        return math.expm1(r) - r
    series = 0.0
    for c in _EXCESS_SERIES:
        series = series * r + c
    return r * (r * series)


def lambert_w_m1(h: float) -> float:
    """r = ln(-W_{-1}(-e^(-1 - h))) >= 0 for h >= 0, so that W_{-1} = -e^r.

    h is the argument's distance below the branch point -1/e in log
    scale, and r the root of expm1(r) - r = h.  Newton steps on it start
    from log1p(h + sqrt(2 h)), right of the root as 1 + s + s^2/2 <= e^s;
    the left side is convex and increasing, so each step lands right of
    the root, shorter than the last.  They stop when a step no longer
    shrinks, so there is no tolerance and no budget.
    """
    h = float(h)
    if not 0.0 <= h < math.inf:
        raise DomainError(f"lambert_w_m1 requires a finite h >= 0, got {h!r}")
    if h == 0.0:  # the branch point, where W_{-1} = -1
        return 0.0
    r = math.log1p(h + math.sqrt(2.0) * math.sqrt(h))  # 2 h overflows above 9e307
    step = math.inf
    while abs(next_step := (_expm1_excess(r) - h) / math.expm1(r)) < abs(step):
        step = next_step
        r -= step
    return r


def solve_bracketed(f: Callable[[float], float], bracket: Interval) -> float:
    """Bisection to the last bit on a sign-changing bracket.

    Halves the bracket until f is exactly 0 at a midpoint or no double
    lies strictly between its ends, then returns the end with the
    smaller |f| (lo on a tie).  That takes at most about 2100 steps on
    any finite bracket, so there is no tolerance and no budget.  Raises
    DomainError when f is not finite at an end and NoSignChangeError
    when f(lo) and f(hi) share a sign.
    """
    lo, hi = bracket.lo, bracket.hi
    f_lo, f_hi = float(f(lo)), float(f(hi))
    if not (math.isfinite(f_lo) and math.isfinite(f_hi)):
        raise DomainError(f"f must be finite at the bracket endpoints, got f(lo)={f_lo!r}, f(hi)={f_hi!r}")
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise NoSignChangeError(f"no sign change on [{lo!r}, {hi!r}]: f(lo)={f_lo!r}, f(hi)={f_hi!r}")
    while True:
        mid = 0.5 * lo + 0.5 * hi  # hi - lo and lo + hi may overflow
        if not lo < mid < hi:
            return lo if abs(f_lo) <= abs(f_hi) else hi
        f_mid = float(f(mid))
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid


# Gauss-Kronrod 7-15 nodes and weights on [-1, 1]; positive abscissae only,
# ordered outermost first with the centre node last.  Odd indices are the
# embedded 7-point Gauss nodes, so the Gauss weights are zero at even ones.
_GK_NODES = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_GK_WEIGHTS_K = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_GK_WEIGHT_K_CENTRE = 0.209482141084727828012999174891714
_GK_WEIGHTS_G = (
    0.0,
    0.129484966168869693270611432679082,
    0.0,
    0.279705391489276667901467771423780,
    0.0,
    0.381830050505118944950369775488975,
    0.0,
)
_GK_WEIGHT_G_CENTRE = 0.417959183673469387755102040816327


def _symmetric_weights(outer, centre) -> np.ndarray:
    """Weights aligned with the ascending nodes from the outermost-first half table."""
    return np.array(outer + (centre,) + outer[::-1], dtype=np.float64)


@functools.cache
def _gk_tables() -> tuple[np.ndarray, np.ndarray]:
    """The 15 nodes in ascending order, and the Kronrod weights and their
    difference from the Gauss weights as the rows of one array: one
    product gives the value and the error.  Built on first use, so that
    importing the module leaves numpy unloaded.

    The node at -v is placed as centre + half * (-v), which rounds
    exactly as centre - half * v.
    """
    abscissae = np.array(tuple(-v for v in _GK_NODES) + (0.0,) + _GK_NODES[::-1])
    kronrod = _symmetric_weights(_GK_WEIGHTS_K, _GK_WEIGHT_K_CENTRE)
    weights = np.array([kronrod, kronrod - _symmetric_weights(_GK_WEIGHTS_G, _GK_WEIGHT_G_CENTRE)])
    return abscissae, weights


_EPS = 2.220446049250313e-16
_MAX_PANELS = 10_000


def _gk15(f: Callable[[np.ndarray], np.ndarray], lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """The 15-point Kronrod values and error estimates of panels [lo, hi], from one call of f.

    lo and hi are float64 arrays that hold disjoint panels in ascending
    order, so f gets the nodes of every panel concatenated in ascending
    order.  Each panel sums its own 15 weighted values, so it gets the
    same bits as a call on its nodes alone.  The first panel with a
    value that is not finite raises DomainError naming its first bad node.
    """
    abscissae, weights = _gk_tables()
    half = 0.5 * (hi - lo)
    nodes = ((0.5 * (lo + hi))[:, None] + half[:, None] * abscissae).reshape(-1)
    values = np.asarray(f(nodes), dtype=np.float64).reshape(-1, 15)
    # einsum sums each panel's row on its own, in an order that does not
    # depend on the other rows; a matrix product need not.
    sums = np.einsum("ij,kj->ki", values, weights)
    # Every Kronrod weight is positive, so a value that is not finite
    # makes the Kronrod sum not finite; the elementwise check runs only then.
    if not all(map(math.isfinite, sums[0].tolist())):
        i = int(np.argmin(np.isfinite(sums[0])))
        finite = np.isfinite(values[i])
        if finite.all():
            raise DomainError(f"integrand sum overflows on [{float(lo[i])!r}, {float(hi[i])!r}]")
        bad = int(np.argmin(finite))
        raise DomainError(
            f"integrand returned {float(values[i, bad])!r} at node {float(nodes[15 * i + bad])!r}")
    value, diff = sums * half
    # Honest floor: a panel can never certify better than a few ulps.
    return value, np.maximum(np.abs(diff), 50.0 * _EPS * np.abs(value))


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray], interval: Interval, abs_tol: float,
    breaks: Sequence[float] = (),
) -> QuadratureResult:
    """Adaptive Gauss-Kronrod (7, 15) quadrature over a finite interval.

    The width hi - lo must be a finite double too, or DomainError is
    raised; Interval itself takes wider ones, which solve_bracketed bisects.

    The integrand takes an ascending float64 array of abscissae and
    returns an array of the same shape.  Every value must be finite, or
    DomainError is raised; it names the first bad node of the leftmost
    panel that has one.

    The seed panels run from interval.lo through the strictly ascending
    breaks, which must lie inside the interval, to interval.hi.  The
    first call of f takes the nodes of all of them.  Then, while the
    summed error estimate exceeds abs_tol, each round cuts every panel
    whose estimate exceeds its share abs_tol * width / (hi - lo), and at
    least the worst one, into 4 by two levels of midpoints, and calls f
    once with the nodes of all the new panels, which take the cut
    panel's place in the float64 arrays of ends, values and error
    estimates.  So a quadrature costs one call plus one per round, and
    15 evaluations per seed panel plus 60 per panel cut.

    A round that would take the count past _MAX_PANELS cuts only the
    worst of its panels that fit, the leftmost on a tie.  Raises
    ToleranceError, carrying the QuadratureResult of the panels so far,
    when not one more panel fits or a panel to cut has no room for its
    quarter points.  Deterministic for a given integrand.

    The error estimate is that of each panel's own Gauss and Kronrod
    sums, so a seed panel that spans many periods of an oscillating
    integrand can pass while wrong: for exp(-3x)·cos(20x) over
    [2.466, 6.411] at abs_tol 1.34e-7, the one 15-node panel estimates
    4.5e-9 and is off by 401·abs_tol.  The package's integrands do not
    oscillate.
    """
    if not (math.isfinite(abs_tol) and abs_tol > 0.0):
        raise DomainError(f"abs_tol must be positive and finite, got {abs_tol!r}")
    if interval.hi - interval.lo == math.inf:
        raise DomainError(f"interval width must be finite, got [{interval.lo!r}, {interval.hi!r}]")
    edges = np.array([interval.lo, *map(float, breaks), interval.hi])
    lo, hi = edges[:-1], edges[1:]
    if not (lo < hi).all():
        raise DomainError(f"breaks must ascend strictly inside [{interval.lo!r}, {interval.hi!r}]")
    value, err = _gk15(f, lo, hi)
    evaluations = 15 * lo.size
    share = abs_tol / (interval.hi - interval.lo)

    while (error := math.fsum(err.tolist())) > abs_tol:
        cut = err > share * (hi - lo)
        if not cut.any():
            cut[err.argmax()] = True  # the leftmost of equal maxima
        room = (_MAX_PANELS - lo.size) // 3  # cuts that keep the count within the limit
        if room <= 0:
            raise ToleranceError(f"quadrature error estimate {error:.3e} exceeds abs_tol {abs_tol:.3e} "
                                 f"after {lo.size} panels",
                                 result=QuadratureResult(math.fsum(value.tolist()), error, evaluations))
        cut_at = cut.nonzero()[0]
        if cut_at.size > room:  # the last round cuts only the worst that fit, leftmost first on a tie
            cut[cut_at[np.argsort(-err[cut_at], kind="stable")[room:]]] = False
        # Row i holds the 5 edges of the 4 quarters of the i-th cut panel.
        a, b = lo[cut], hi[cut]
        mid = 0.5 * (a + b)
        quarters = np.stack([a, 0.5 * (a + mid), mid, 0.5 * (mid + b), b], axis=1)
        new_lo, new_hi = quarters[:, :-1].reshape(-1), quarters[:, 1:].reshape(-1)
        if not (new_lo < new_hi).all():
            i = int((new_lo < new_hi).argmin()) // 4
            raise ToleranceError(f"panel [{float(a[i])!r}, {float(b[i])!r}] cannot be split further",
                                 result=QuadratureResult(math.fsum(value.tolist()), error, evaluations))
        evaluations += 15 * new_lo.size
        new_value, new_err = _gk15(f, new_lo, new_hi)
        # Each cut panel gives way to its 4 quarters: repeat it 4 times, then overwrite the copies.
        counts = 1 + 3 * cut
        fresh = np.repeat(cut, counts)
        lo, hi, value, err = (np.repeat(old, counts) for old in (lo, hi, value, err))
        lo[fresh], hi[fresh], value[fresh], err[fresh] = new_lo, new_hi, new_value, new_err

    return QuadratureResult(math.fsum(value.tolist()), error, evaluations)
