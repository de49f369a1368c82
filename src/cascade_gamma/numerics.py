"""Special functions and numerical routines used across the package.

Everything here is self-contained and deterministic: a Stirling-series
log-gamma and its remainder, the lower real branch of the Lambert W
function by Newton steps, a root solver that bisects a sign-changing
bracket down to adjacent doubles, and an adaptive Gauss-Kronrod
quadrature.  These are the only numerical kernels the analytical
modules rely on, so their accuracy contracts are tested directly (see
tests/test_numerics.py).

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
gamma kernels map an ndarray elementwise, and integrate_adaptive works
in rounds (the design of quadgk: Shampine 2008, "Vectorized adaptive
quadrature in MATLAB").  It calls its integrand once with the nodes of
all its seed panels, then once per round with the nodes of every panel
that round refines, each time as one ascending float64 array.  The
root solvers stay scalar, since each of their steps depends on the one
before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NoSignChangeError, ToleranceError

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


def lambert_w_m1(x: float) -> float:
    """Lower real branch W_{-1}(x) for x in [-1/e, 0).

    Newton steps on w + ln(-w) = ln(-x), the log of w e^w = x, which
    keeps every digit of a subnormal x.  They start from the branch-point
    series in q = -sqrt(2 (1 + e x)) or from ln(-x) - ln(-ln(-x)) and stop
    when a step no longer shrinks, so there is no tolerance and no budget:
    w + ln(-w) is concave and increasing on w < -1, so every step after
    the first lands at or left of the root.  1 + e x down to -1e-12 counts
    as the branch point, where W_{-1} = -1 exactly.
    """
    x = float(x)
    if not math.isfinite(x) or x >= 0.0:
        raise DomainError(f"lambert_w_m1 requires -1/e <= x < 0, got {x!r}")
    t = 1.0 + math.e * x
    if t < -1e-12:
        raise DomainError(f"lambert_w_m1 requires x >= -1/e, got {x!r}")
    if t <= 0.0:
        return -1.0

    log_neg_x = math.log(-x)  # <= -1 on the domain
    if t < _BRANCH_SERIES_CUT:
        q = -math.sqrt(2.0 * t)
        w = -1.0 + q * (1.0 + q * (-1.0 / 3.0 + q * (11.0 / 72.0 + q * (-43.0 / 540.0))))
    else:
        w = log_neg_x - math.log(-log_neg_x)
    step = math.inf
    while abs(next_step := w * (w + math.log(-w) - log_neg_x) / (w + 1.0)) < abs(step):
        step = next_step
        w -= step
    return w


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
# The Kronrod weights, then their difference from the Gauss weights, as
# the rows of one array: one product gives the value and the error.
_GK_WEIGHTS = np.array([_symmetric_weights(_GK_WEIGHTS_K, _GK_WEIGHT_K_CENTRE),
                        _symmetric_weights(_GK_WEIGHTS_K, _GK_WEIGHT_K_CENTRE)
                        - _symmetric_weights(_GK_WEIGHTS_G, _GK_WEIGHT_G_CENTRE)])
_EPS = 2.220446049250313e-16
_MAX_PANELS = 10_000


def _gk15(f: Callable[[np.ndarray], np.ndarray], pairs) -> list[tuple[float, float, float, float]]:
    """The 15-point Kronrod panels of pairs from one call of f.

    pairs holds disjoint (lo, hi) panels in ascending order, so f gets
    the nodes of every panel concatenated in ascending order.  Each
    panel sums its own 15 weighted values, so it gets the same bits as a
    call on its nodes alone.  Returns one (lo, hi, value, error
    estimate) row per panel; the first panel with a value that is not
    finite raises DomainError naming its first bad node.
    """
    lo, hi = np.array(pairs, dtype=np.float64).T
    half = 0.5 * (hi - lo)
    nodes = ((0.5 * (lo + hi))[:, None] + half[:, None] * _GK_ABSCISSAE).reshape(-1)
    values = np.asarray(f(nodes), dtype=np.float64).reshape(-1, 15)
    # einsum sums each panel's row on its own, in an order that does not
    # depend on the other rows; a matrix product need not.
    sums = np.einsum("ij,kj->ki", values, _GK_WEIGHTS)
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
    err = np.maximum(np.abs(diff), 50.0 * _EPS * np.abs(value))
    return list(zip(lo.tolist(), hi.tolist(), value.tolist(), err.tolist()))


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray], interval: Interval, abs_tol: float,
    breaks: Sequence[float] = (),
) -> QuadratureResult:
    """Adaptive Gauss-Kronrod (7, 15) quadrature over a finite interval.

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
    once with the nodes of all the new panels.  So a quadrature costs
    one call plus one per round, and 15 evaluations per seed panel plus
    60 per panel cut.

    A round that would take the count past _MAX_PANELS cuts only the
    worst of its panels that fit.  Raises ToleranceError, carrying the
    QuadratureResult of the panels so far, when not one more panel fits
    or a panel to cut has no room for its quarter points.  Deterministic
    for a given integrand.
    """
    if not (math.isfinite(abs_tol) and abs_tol > 0.0):
        raise DomainError(f"abs_tol must be positive and finite, got {abs_tol!r}")
    edges = [interval.lo, *map(float, breaks), interval.hi]
    if not all(a < b for a, b in zip(edges, edges[1:])):
        raise DomainError(f"breaks must ascend strictly inside [{interval.lo!r}, {interval.hi!r}]")
    # One (lo, hi, value, error estimate) per panel, ascending.
    panels = _gk15(f, list(zip(edges, edges[1:])))
    evaluations = 15 * len(panels)
    share = abs_tol / (interval.hi - interval.lo)

    while math.fsum(q[3] for q in panels) > abs_tol:
        cut = [q[3] > share * (q[1] - q[0]) for q in panels]
        if not any(cut):
            cut[max(range(len(panels)), key=lambda i: panels[i][3])] = True
        room = (_MAX_PANELS - len(panels)) // 3  # cuts that keep the count within the limit
        if room <= 0:
            result = _collect(panels, evaluations)
            raise ToleranceError(
                f"quadrature error estimate {result.abs_error_estimate:.3e} exceeds "
                f"abs_tol {abs_tol:.3e} after {len(panels)} panels",
                result=result,
            )
        if sum(cut) > room:  # the last round cuts only the worst that fit
            worst = set(sorted((i for i, c in enumerate(cut) if c), key=lambda i: -panels[i][3])[:room])
            cut = [i in worst for i in range(len(panels))]
        # The (lo, hi) of the 4 quarters of each cut panel, left to right.
        pairs = []
        for (lo, hi, _, _), cut_q in zip(panels, cut):
            if cut_q:
                mid = 0.5 * (lo + hi)
                quarters = (lo, 0.5 * (lo + mid), mid, 0.5 * (mid + hi), hi)
                if not all(a < b for a, b in zip(quarters, quarters[1:])):
                    raise ToleranceError(f"panel [{lo!r}, {hi!r}] cannot be split further",
                                         result=_collect(panels, evaluations))
                pairs += zip(quarters, quarters[1:])
        evaluations += 15 * len(pairs)
        new = iter(_gk15(f, pairs))  # each cut panel gives way to its 4 quarters, in place
        panels = [q for old, cut_q in zip(panels, cut)
                  for q in ((next(new), next(new), next(new), next(new)) if cut_q else (old,))]

    return _collect(panels, evaluations)


def _collect(panels: list, evaluations: int) -> QuadratureResult:
    """The panels' values and error estimates, each summed exactly rounded."""
    return QuadratureResult(value=math.fsum(q[2] for q in panels),
                            abs_error_estimate=math.fsum(q[3] for q in panels),
                            evaluations=evaluations)
