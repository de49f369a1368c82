"""Special functions and numerical routines used across the package.

Everything here is self-contained and deterministic: a Stirling-series
log-gamma and its remainder, the lower real branch of the Lambert W
function, a root solver that bisects a sign-changing bracket down to
adjacent doubles, and an adaptive Gauss-Kronrod quadrature.  These are
the only numerical kernels the analytical modules rely on, so their
accuracy contracts are tested directly (see tests/test_numerics.py).

Both gamma kernels rest on the Stirling remainder

    S(z) = ln G(z) - (z - 1/2) ln z + z - ln(2 pi)/2,

summed from its series for z >= 8.  The elements below 8 are lifted
once by ln G(z) = ln G(z + 8) - ln(z (z+1) ... (z+7)), so the cost is a
fixed number of numpy calls plus work on that subset only.  Contracts:
stirling_remainder to 1e-15 absolute for z >= 8 (1e-14 of max(1, |S|)
below), log_gamma to 1e-13 of max(1, |ln G|) for every positive double
up to 1e8.  Callers that need ln G(z) only inside a difference of
terms of size z ln z, as the cascade density does, use S and cancel
those terms analytically (Loader 2000, "Fast and Accurate Computation
of Binomial Probabilities").

log_gamma, stirling_remainder and the quadrature work on arrays: the
gamma kernels map an ndarray elementwise, and integrate_adaptive calls
its integrand with the 15 nodes of its first panel, then once per split
with the 30 nodes of both halves, as one ascending float64 array.  The
root solvers stay scalar, since each of their steps depends on the one
before.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, NoSignChangeError, ToleranceError

__all__ = [
    "Interval",
    "QuadratureResult",
    "log_gamma",
    "stirling_remainder",
    "lambert_w_m1",
    "solve_bracketed",
    "integrate_adaptive",
]


@dataclass(frozen=True)
class Interval:
    """A finite closed interval [lo, hi] with lo < hi."""

    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = float(self.lo), float(self.hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError(f"interval endpoints must be finite, got [{self.lo}, {self.hi}]")
        if not lo < hi:
            raise DomainError(f"interval requires lo < hi, got [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


@dataclass(frozen=True)
class QuadratureResult:
    """Value of an integral together with its error estimate and cost."""

    value: float
    abs_error_estimate: float
    evaluations: int

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DomainError(f"integral value must be finite, got {self.value!r}")
        if not self.abs_error_estimate >= 0.0:
            raise DomainError(f"error estimate must be >= 0, got {self.abs_error_estimate!r}")
        if self.evaluations < 1:
            raise DomainError(f"evaluations must be >= 1, got {self.evaluations!r}")


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


def _positive(z, name: str) -> np.ndarray:
    """z flattened to float64; DomainError names the first element not finite and > 0."""
    work = np.asarray(z, dtype=np.float64).reshape(-1)
    if work.size and not (work.min() > 0.0 and work.max() < math.inf):
        bad = work[~((work > 0.0) & (work < math.inf))][0]
        raise DomainError(f"{name} requires z > 0 and finite, got {bad!r}")
    return work


def _shaped(out: np.ndarray, z):
    """out as a float for a scalar z, else in the shape of z."""
    return float(out[0]) if np.ndim(z) == 0 else out.reshape(np.shape(z))


def _stirling_series(w: np.ndarray) -> np.ndarray:
    """The Stirling remainder S(w) from its series, accurate for w >= 8."""
    inv = 1.0 / w
    inv_sq = inv * inv
    series = _STIRLING[-1] * inv_sq + _STIRLING[-2]
    for c in _STIRLING[-3::-1]:
        series = series * inv_sq + c
    return series * inv


def _remainder(z: np.ndarray) -> np.ndarray:
    """S(z) on a flat array of positive finite doubles.

    The elements below 8 are gathered once, lifted to w = z + 8 and
    scattered back, so the series runs once on the whole array; from
    ln G(z) = ln G(w) - ln(z (z+1) ... (z+7)) they then take
    S(z) = S(w) + (w - 1/2) ln w - (z - 1/2) ln z - 8 - ln(z (z+1) ... (z+7)).
    The product is u (u+6) (u+10) (u+12) with u = z (z+7).  The number
    of numpy calls is fixed, and the extra work covers only that subset.
    """
    low = np.flatnonzero(z < _STIRLING_SHIFT)
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


def stirling_remainder(z):
    """S(z) = ln G(z) - (z - 1/2) ln z + z - ln(2 pi)/2 for real z > 0.

    Accepts a scalar or an ndarray and returns the matching shape.  For
    z >= 8 S is its series, about 1/(12 z), with no term of size z ln z
    to cancel: absolute error below 1e-15.  Below 8 it comes through the
    lift described in _remainder, with absolute error below 1e-14 times
    max(1, |S(z)|).
    """
    return _shaped(_remainder(_positive(z, "stirling_remainder")), z)


def log_gamma(z):
    """Natural log of the gamma function for real z > 0.

    Accepts a scalar or an ndarray and returns the matching shape.
    Computed as (z - 1/2) ln z - z + ln(2 pi)/2 + S(z) with the Stirling
    remainder S of stirling_remainder: one array pass with a fixed
    number of numpy calls, whatever the size of z or how many of its
    elements lie below 8.  Error stays below 1e-13 relative to
    max(1, |ln G|) for every positive double from 5e-324 up to 1e8, and
    beyond while the result is finite.
    """
    work = _positive(z, "log_gamma")
    return _shaped((work - 0.5) * np.log(work) - work + _HALF_LOG_TWO_PI + _remainder(work), z)


_BRANCH_SERIES_CUT = 0.05  # on t = 1 + e x; well inside the series radius
_SMALLEST_NORMAL = 2.2250738585072014e-308


def lambert_w_m1(x: float) -> float:
    """Lower real branch W_{-1}(x) for x in [-1/e, 0).

    Solves w e^w = x with w <= -1.  Near the branch point the expansion
    in p = -sqrt(2 (1 + e x)) seeds the iteration; away from it the
    classic ln(-x) - ln(-ln(-x)) starter is used.  Halley steps polish
    to |w e^w - x| <= 1e-13 |x|.

    Below the smallest normal double, x keeps too few digits for that:
    there w solves w + ln(-w) = ln(-x) instead.
    """
    x = float(x)
    if not math.isfinite(x) or x >= 0.0:
        raise DomainError(f"lambert_w_m1 requires -1/e <= x < 0, got {x!r}")
    if -x < _SMALLEST_NORMAL:
        return _lambert_w_m1_of_log(math.log(-x))
    t = 1.0 + math.e * x
    if t < 0.0:
        if t < -1e-12:
            raise DomainError(f"lambert_w_m1 requires x >= -1/e, got {x!r}")
        t = 0.0
    if t == 0.0:
        return -1.0

    if t < _BRANCH_SERIES_CUT:
        q = -math.sqrt(2.0 * t)
        w = -1.0 + q * (1.0 + q * (-1.0 / 3.0 + q * (11.0 / 72.0 + q * (-43.0 / 540.0))))
    else:
        log_neg_x = math.log(-x)  # < -1 on this branch, so -log_neg_x > 1
        w = log_neg_x - math.log(-log_neg_x)
    if w > -1.0:
        w = -1.0

    tol = 1e-13 * abs(x)
    for _ in range(100):
        ew = math.exp(w)
        residual = w * ew - x
        if abs(residual) <= tol:
            return w
        if w + 1.0 == 0.0:
            # Derivative vanishes at the branch point; nudge below it.
            w = -1.0 - 1e-8
            continue
        d1 = ew * (w + 1.0)
        denom = d1 - residual * (w + 2.0) / (2.0 * (w + 1.0))
        if denom == 0.0:
            denom = d1
        w -= residual / denom
        if w > -1.0:
            w = -1.0
    ew = math.exp(w)
    if abs(w * ew - x) <= tol:
        return w
    raise ConvergenceError(f"lambert_w_m1 failed to converge for x = {x!r}")


def _lambert_w_m1_of_log(log_neg_x: float) -> float:
    """W_{-1}(x) from ln(-x) << -1, by Newton steps on w + ln(-w) = ln(-x)."""
    w = log_neg_x - math.log(-log_neg_x)
    for _ in range(50):
        step = (w + math.log(-w) - log_neg_x) / (1.0 + 1.0 / w)
        w -= step
        if abs(step) <= 1e-15 * abs(w):
            return w
    raise ConvergenceError(f"lambert_w_m1 failed to converge for ln(-x) = {log_neg_x!r}")


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
    """Weights aligned with _GK_ABSCISSAE from the outermost-first half table."""
    return np.array(outer + (centre,) + outer[::-1], dtype=np.float64)


# The 15 nodes in ascending order.  The node at -v is placed as
# centre + half * (-v), which rounds exactly as centre - half * v.
_GK_ABSCISSAE = np.array(tuple(-v for v in _GK_NODES) + (0.0,) + _GK_NODES[::-1])
_GK_KRONROD = _symmetric_weights(_GK_WEIGHTS_K, _GK_WEIGHT_K_CENTRE)
_GK_GAUSS = _symmetric_weights(_GK_WEIGHTS_G, _GK_WEIGHT_G_CENTRE)
_EPS = 2.220446049250313e-16
_MAX_PANELS = 10_000


def _gk15(f: Callable[[np.ndarray], np.ndarray], *edges: float) -> list[tuple[float, float]]:
    """The 15-point Kronrod panels [e0, e1], [e1, e2], ... from one call of f.

    f gets the nodes of every panel concatenated in ascending order.
    Each panel takes its own 15-entry Kronrod and Gauss dot products on
    its slice of the values, so it gets the same bits as a call on its
    nodes alone.  Returns [(value, error_estimate), ...], one pair per
    panel; panels are checked left first for values that are not finite.
    """
    spans = [(0.5 * (lo + hi), 0.5 * (hi - lo)) for lo, hi in zip(edges, edges[1:])]
    nodes = np.concatenate([centre + half * _GK_ABSCISSAE for centre, half in spans])
    values = np.asarray(f(nodes), dtype=np.float64)
    panels = []
    for i, (_, half) in enumerate(spans):
        panel = values[15 * i:15 * i + 15]
        res_k = float(_GK_KRONROD.dot(panel))
        # Every Kronrod weight is positive, so a value that is not finite
        # makes res_k not finite; the elementwise check runs only then.
        if not math.isfinite(res_k):
            finite = np.isfinite(panel)
            if finite.all():
                raise DomainError(f"integrand sum overflows on [{edges[i]!r}, {edges[i + 1]!r}]")
            bad = int(np.argmin(finite))
            raise DomainError(
                f"integrand returned {float(panel[bad])!r} at node {float(nodes[15 * i + bad])!r}")
        res_g = float(_GK_GAUSS.dot(panel))
        value = res_k * half
        err = abs((res_k - res_g) * half)
        # Honest floor: a panel can never certify better than a few ulps.
        panels.append((value, max(err, 50.0 * _EPS * abs(value))))
    return panels


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray], interval: Interval, abs_tol: float
) -> QuadratureResult:
    """Adaptive Gauss-Kronrod (7, 15) quadrature over a finite interval.

    The integrand takes an ascending float64 array of abscissae and
    returns an array of the same shape.  The first panel calls it with
    its 15 nodes and each split once with the 30 nodes of both halves,
    so the cost is (evaluations / 15 + 1) / 2 calls.  Every value must be finite, or
    DomainError is raised; it names the first bad node of the leftmost
    panel that has one.

    Splits the panel with the largest error estimate until the summed
    estimate drops below abs_tol.  Raises ToleranceError (carrying the
    best QuadratureResult so far) if _MAX_PANELS panels are reached first.
    Deterministic for a given integrand: ties are broken by insertion
    order.
    """
    if not (math.isfinite(abs_tol) and abs_tol > 0.0):
        raise DomainError(f"abs_tol must be positive and finite, got {abs_tol!r}")

    [(value, err)] = _gk15(f, interval.lo, interval.hi)
    evaluations = 15
    counter = 1
    # heap entries: (-err, insertion_counter, lo, hi, value, err)
    heap = [(-err, 0, interval.lo, interval.hi, value, err)]
    total_err = err

    while total_err > abs_tol:
        if len(heap) >= _MAX_PANELS:
            result = _collect(heap, evaluations)
            raise ToleranceError(
                f"quadrature error estimate {result.abs_error_estimate:.3e} exceeds "
                f"abs_tol {abs_tol:.3e} after {len(heap)} panels",
                result=result,
            )
        entry = heapq.heappop(heap)
        _, _, lo, hi, _, worst_err = entry
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            # Panel too narrow to split further; tolerance unreachable.
            result = _collect(heap + [entry], evaluations)
            raise ToleranceError(
                f"panel [{lo!r}, {hi!r}] cannot be split further", result=result
            )
        (v1, e1), (v2, e2) = _gk15(f, lo, mid, hi)
        evaluations += 30
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, counter + 1, mid, hi, v2, e2))
        counter += 2
        total_err += e1 + e2 - worst_err

    return _collect(heap, evaluations)


def _collect(heap, evaluations: int) -> QuadratureResult:
    """Sum panel contributions in insertion order (deterministic)."""
    panels = sorted(heap, key=lambda item: item[1])
    value = math.fsum(item[4] for item in panels)
    err = math.fsum(item[5] for item in panels)
    return QuadratureResult(value=value, abs_error_estimate=err, evaluations=evaluations)
