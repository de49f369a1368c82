"""Unit tests for the continuum cascade-size distribution.

Closed-form oracles (density values, decay gaps, finite-cascade
probabilities) were frozen from 50-digit mpmath evaluations and plain
bisection before the library was written.
"""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cascade_gamma import (
    CriticalityError,
    DensityTable,
    DomainError,
    ExtinctionReport,
    Interval,
    ModelParams,
    Moments,
    QuadratureResult,
    ToleranceError,
    asymptotic_log_density,
    density,
    density_table,
    extinction,
    extinction_gap_root,
    log_density,
    moments,
    numerics,
    verify_normalization,
)
from cascade_gamma.continuum import (
    _FINE_TOL,
    _FINER_TOL,
    _support_breaks,
    _support_integrand,
    _support_moment,
    _tail_constants,
)

# ln g(2) at p = 0.4, mpmath evaluation of the exact formula.
LOG_G_2_P04 = -1.3197437222913800
# g(5) at p = 0.3, same route.
G_5_P03 = 0.039627917072981558

# Decay gap x* (root of x = 2 ln(1 + p x)) and finite-cascade
# probability e^{-x*}, frozen from 200-step bisection on [1e-12, 64].
EXTINCTION_ORACLES = {
    0.55: (0.3753714530236413, 0.68703403051955501),
    0.6: (0.7083985245782692, 0.49243218436184857),
    0.75: (1.5253771217006780, 0.21753900271533729),
    1.0: (2.5128624172523394, 0.081035948246301587),
    2.0: (4.6733259645261078, 0.0093411494718175203),
}


# -------------------------------------------------------------- parameters


def test_model_params_validation():
    params = ModelParams(0.3)
    assert params.p == 0.3
    assert params.subcritical
    assert not ModelParams(0.5).subcritical
    with pytest.raises(DomainError):
        ModelParams(0.0)
    with pytest.raises(DomainError):
        ModelParams(-0.1)
    with pytest.raises(DomainError):
        ModelParams(math.inf)
    with pytest.raises(DomainError):
        ModelParams(math.nan)


def test_moments_type_validation():
    Moments(mean=1.0, variance=0.0)
    with pytest.raises(DomainError):
        Moments(mean=1.0, variance=-1e-12)


def test_extinction_report_validation():
    report = ExtinctionReport(decay_gap=0.7)
    assert report.log_prob_finite == -0.7
    assert report.prob_finite == math.exp(-0.7)
    for gap in (-0.1, -5e-324, math.nan):
        with pytest.raises(DomainError):
            ExtinctionReport(decay_gap=gap)
    # prob_finite is 0 only where exp(-gap) underflows.
    assert ExtinctionReport(decay_gap=1396.0).prob_finite == 0.0
    # A gap of 0 has the log +0.0, which the CLI writes as 0.0, not -0.0.
    for p in (0.3, 0.5):
        assert math.copysign(1.0, extinction(ModelParams(p)).log_prob_finite) == 1.0
    assert extinction(ModelParams(math.nextafter(0.5, 1.0))).decay_gap > 0.0


# ----------------------------------------------------------------- density


def test_log_density_vanishes_at_one():
    assert log_density(ModelParams(0.4), 1.0) == -math.inf
    assert density(ModelParams(0.4), 1.0) == 0.0


def test_log_density_oracle_p04():
    assert log_density(ModelParams(0.4), 2.0) == pytest.approx(LOG_G_2_P04, rel=1e-13)
    # Same number written as a plain density: g(2) ~ 0.267.
    assert density(ModelParams(0.4), 2.0) == pytest.approx(0.26720377156217056, rel=1e-13)


def test_density_oracle_p03():
    assert density(ModelParams(0.3), 5.0) == pytest.approx(G_5_P03, rel=1e-13)


def test_log_density_matches_asymptote_far_out():
    params = ModelParams(0.3)
    exact = log_density(params, 1000.0)
    asym = asymptotic_log_density(params, 1000.0)
    assert math.isfinite(exact)
    assert abs(exact - asym) <= 1e-3 * abs(exact)


def test_density_domain_errors():
    params = ModelParams(0.4)
    for bad in (0.0, 0.999, -3.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            log_density(params, bad)


@pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.7, 3.0])
@pytest.mark.parametrize("fn", [log_density, density, asymptotic_log_density])
def test_array_calls_equal_scalar_calls_bit_for_bit(fn, p):
    params = ModelParams(p)
    grid = np.concatenate([[1.0, 1.0 + 1e-12], np.geomspace(1.001, 1e7, 37), [1e7]]).reshape(4, 10)
    got = fn(params, grid)
    assert isinstance(got, np.ndarray) and got.shape == grid.shape and got.dtype == np.float64
    scalar = [fn(params, float(x)) for x in grid.ravel()]
    assert all(type(v) is float for v in scalar)
    assert np.array_equal(got.ravel(), np.array(scalar))


@pytest.mark.parametrize("fn", [log_density, density, asymptotic_log_density])
@pytest.mark.parametrize("bad", [0.999, -3.0, math.nan, math.inf, -math.inf])
def test_array_domain_error_on_any_bad_element(fn, bad):
    grid = np.array([[1.0, 2.0], [5.0, 1e7]])
    grid[1, 0] = bad
    with pytest.raises(DomainError, match="x >= 1"):
        fn(ModelParams(0.4), grid)


def test_density_tail_is_monotone_subcritical():
    params = ModelParams(0.25)
    values = [density(params, x) for x in np.linspace(3.0, 60.0, 200)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-15


_NEAR_CRITICAL = [0.5 + sign * 10.0**-k for k in range(1, 13) for sign in (1, -1)]


def _mp_log_density(p: float, x: float, digits: int = 50):
    """ln g(x) from the paper's formula, at 50 digits unless told otherwise."""
    import mpmath

    with mpmath.workdps(digits):
        pm, xm = mpmath.mpf(p), mpmath.mpf(x)
        return float(
            (2 * xm - 1) * mpmath.log(xm - 1) - (1 / pm + 2 * mpmath.log(pm)) * xm + 1 / pm
            - mpmath.log(xm) - mpmath.loggamma(2 * xm)
        )


@settings(max_examples=300, deadline=None)
@given(
    p=st.one_of(
        st.floats(min_value=-4.0, max_value=4.0).map(lambda e: 10.0**e),
        st.sampled_from(_NEAR_CRITICAL),
    ),
    x=st.floats(min_value=math.log1p(1e-6), max_value=math.log(1e13)).map(math.exp),
)
def test_log_density_against_mpmath(p, x):
    # The rearranged kernel has no x ln x terms to cancel, so the error
    # stays at round-off of ln g itself, near p = 1/2 and x = 1e13 too.
    x = max(x, 1.0 + 1e-6)
    expected = _mp_log_density(p, x)
    assert abs(log_density(ModelParams(p), x) - expected) <= 1e-13 * max(1.0, abs(expected))


@pytest.mark.parametrize("p", [0.3, 0.5, 0.5 + 1e-12, 0.7])
def test_log_density_up_to_the_largest_double(p):
    # 2x overflows from x = 2^1023 on, inside the support.  At p = 1/2
    # terms of size x ln x = 1e311 cancel to ln g = -1065, so the exact
    # value takes 700 digits, not 50.
    xs = [1e13, 8.9e307, 9e307, 1e308, 1.7976931348623157e308]
    params = ModelParams(p)
    for x, value in zip(xs, log_density(params, np.array(xs))):
        expected = _mp_log_density(p, x, digits=700)
        assert abs(log_density(params, x) - expected) <= 2e-15 * abs(expected)
        assert value == log_density(params, x)


@pytest.mark.parametrize("p", _NEAR_CRITICAL)
def test_decay_rate_near_criticality(p):
    # a = (1 - 2p)/p + 2 ln(2p) is of order (2p - 1)^2 = 4e-24 at k = 12.
    import mpmath

    with mpmath.workdps(50):
        pm = mpmath.mpf(p)
        expected = float((1 - 2 * pm) / pm + 2 * mpmath.log(2 * pm))
    assert abs(_tail_constants(ModelParams(p))[1] - expected) <= 1e-14 * expected


def test_log_space_identity_over_wide_range():
    params = ModelParams(0.3)
    for x in np.geomspace(1.0 + 1e-9, 1e6, 50):
        lg = log_density(params, float(x))
        assert math.isfinite(lg)
        value = density(params, float(x))
        assert math.isfinite(value) and value >= 0.0


# -------------------------------------------------------------- asymptotics


def test_asymptote_is_pure_power_law_at_criticality():
    # Decay rate (1 - 2p)/p + 2 ln 2p vanishes identically at p = 1/2,
    # leaving ln C - 1.5 ln x with C = 1/sqrt(pi).
    params = ModelParams(0.5)
    expected = -0.5 * math.log(math.pi) - 1.5 * math.log(100.0)
    assert asymptotic_log_density(params, 100.0) == pytest.approx(expected, rel=1e-15)
    slope = (
        asymptotic_log_density(params, math.e * 100.0)
        - asymptotic_log_density(params, 100.0)
    )
    assert slope == pytest.approx(-1.5, abs=1e-12)


def test_asymptote_close_at_large_x():
    params = ModelParams(0.3)
    gap = abs(log_density(params, 1e4) - asymptotic_log_density(params, 1e4))
    assert gap <= 1e-3


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_asymptote_gap_decreases_geometrically(p):
    params = ModelParams(p)
    grid = np.geomspace(1e3, 1e6, 13)
    gaps = [abs(log_density(params, float(x)) - asymptotic_log_density(params, float(x))) for x in grid]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= gaps[0]
    assert gaps[-1] <= 1e-6


def test_asymptote_domain_error():
    with pytest.raises(DomainError):
        asymptotic_log_density(ModelParams(0.5), 0.5)


# ------------------------------------------------------------------ moments


def test_moments_closed_forms():
    got = moments(ModelParams(0.25))
    assert got.mean == pytest.approx(2.0, rel=1e-15)
    assert got.variance == pytest.approx(1.0, rel=1e-15)
    got = moments(ModelParams(0.4))
    assert got.mean == pytest.approx(5.0, rel=1e-13)
    assert got.variance == pytest.approx(40.0, rel=1e-13)


def test_moments_small_p_limit():
    got = moments(ModelParams(1e-8))
    assert got.mean == pytest.approx(1.0, abs=1e-7)
    assert got.variance <= 1e-15


@pytest.mark.parametrize("p", [0.5, 0.7, 2.0])
def test_moments_reject_critical_and_supercritical(p):
    with pytest.raises(CriticalityError):
        moments(ModelParams(p))


def numeric_moments(params):
    """Mean and variance from the quadrature of x g(x) and x^2 g(x) over [1, inf).

    Each moment is integrated to 2.5e-9 max(1, E[Z^k]), a tolerance
    taken from the closed forms: near criticality the moments grow as
    (1 - 2p)^-k, beyond the reach of any fixed absolute tolerance.
    """
    closed = moments(params)
    first, _ = _support_moment(params, 1, 2.5e-9 * max(1.0, closed.mean))
    second, _ = _support_moment(params, 2, 2.5e-9 * max(1.0, closed.variance + closed.mean**2))
    return Moments(mean=first.value, variance=second.value - first.value**2)


@pytest.mark.parametrize("p", [0.1, 0.2, 0.3])
def test_numeric_moments_match_closed_forms(p):
    params = ModelParams(p)
    closed = moments(params)
    quad = numeric_moments(params)
    assert abs(quad.mean - closed.mean) <= 1e-4 * closed.mean
    assert abs(quad.variance - closed.variance) <= 1e-4 * closed.variance


@pytest.mark.parametrize("p", [1e-4, 1e-3, 1e-2, 0.45])
def test_numeric_moments_over_the_whole_support(p):
    # At tiny p the density is a spike of width ~p just above x = 1 and
    # its tail constant C = e^{1/p - ...} overflows a float.
    params = ModelParams(p)
    closed = moments(params)
    quad = numeric_moments(params)
    assert abs(quad.mean - closed.mean) <= 1e-9 * closed.mean
    assert abs(quad.variance - closed.variance) <= 1e-7


@pytest.mark.parametrize("p", [0.495, 0.499, 0.4999999])
def test_numeric_moments_near_criticality(p):
    # Each moment is integrated to 2.5e-9 of its own size; an absolute
    # tolerance failed here, as the moments grow as (1 - 2p)^-k.
    params = ModelParams(p)
    closed = moments(params)
    quad = numeric_moments(params)
    assert quad.mean == pytest.approx(closed.mean, rel=1e-12)
    assert quad.variance == pytest.approx(closed.variance, rel=1e-12)


# --------------------------------------------------------------- extinction


def test_extinction_subcritical_and_critical_are_certain():
    for p in (0.1, 0.3, 0.5):
        report = extinction(ModelParams(p))
        assert report.decay_gap == 0.0
        assert report.log_prob_finite == 0.0
        assert report.prob_finite == 1.0


@pytest.mark.parametrize("p,expected", sorted(EXTINCTION_ORACLES.items()))
def test_extinction_oracles(p, expected):
    gap, prob = expected
    report = extinction(ModelParams(p))
    assert report.decay_gap == pytest.approx(gap, rel=1e-12)
    assert report.prob_finite == pytest.approx(prob, rel=1e-12)
    assert report.log_prob_finite == -report.decay_gap


@pytest.mark.parametrize("p", [0.51, 0.55, 0.6, 0.75, 1.0, 2.0])
def test_extinction_routes_agree(p):
    params = ModelParams(p)
    lambert_gap = extinction(params).decay_gap
    root_gap = extinction_gap_root(params)
    assert abs(lambert_gap - root_gap) <= 1e-10


def _mp_decay_gap(p: float) -> float:
    """x* = -(2 W_{-1}(-exp(-1/(2p)) / (2p)) + 1/p) in 50-digit mpmath."""
    import mpmath

    with mpmath.workdps(50):
        pm = mpmath.mpf(p)
        w = mpmath.lambertw(-mpmath.exp(-1 / (2 * pm)) / (2 * pm), -1)
        return -(2 * w.real + 1 / pm)


@pytest.mark.parametrize(
    "p", [0.51, 0.7, 2.0, 1e3, 1e100] + [0.5 + 10.0**-k for k in (3, 6, 9, 12, 13, 15)]
)
def test_extinction_gap_root_against_mpmath(p):
    # Near p = 1/2 the balance 2 log1p(p x) - x is exactly 0 in floats on
    # a band of x about 1e-15 / (2p - 1) wide relative to the root.
    expected = _mp_decay_gap(p)
    got = extinction_gap_root(ModelParams(p))
    assert abs(got - expected) <= max(1e-14, 1e-15 / (2.0 * p - 1.0)) * expected


def test_extinction_against_mpmath():
    # p = 1/2 + u with u log-uniform on [1e-4, 1.5], 1/2 + 10^-k down to
    # the double just above 1/2, and huge p up to the largest double.
    # The Lambert route never forms its argument -e^(-1/(2p)) / (2p),
    # whose rounding alone would cost about 1e-16 / (2p - 1)^2 of the gap.
    us = np.exp(np.random.default_rng(2013).uniform(math.log(1e-4), math.log(1.5), 400))
    near = [0.5 + 10.0**-k for k in range(1, 16)] + [math.nextafter(0.5, 1.0)]
    misses = []
    for p in [0.5 + float(u) for u in us] + near + [1e3, 1e100, 1e300, 1.7976931348623157e308]:
        expected = _mp_decay_gap(p)
        got = extinction(ModelParams(p)).decay_gap
        if not abs(got - expected) <= 1e-15 * expected:
            misses.append((p, float(abs(got - expected) / expected)))
    assert not misses, misses


@pytest.mark.parametrize("p", [math.nextafter(0.5, 1.0), 0.6, 1e300, 1.7976931348623157e308])
def test_extinction_gap_root_bracket_changes_sign(monkeypatch, p):
    # One fixed bracket serves every p > 1/2: the balance is positive at
    # its low end 2^-1000 even at the double just above 1/2.
    import cascade_gamma.numerics as numerics

    seen = []
    solve = numerics.solve_bracketed

    def spy(f, bracket):
        seen.append((f(bracket.lo), f(bracket.hi)))
        return solve(f, bracket)

    monkeypatch.setattr(numerics, "solve_bracketed", spy)
    extinction_gap_root(ModelParams(p))
    [(at_lo, at_hi)] = seen
    assert at_lo > 0.0 > at_hi


def test_extinction_gap_root_is_zero_up_to_criticality():
    assert extinction_gap_root(ModelParams(0.3)) == 0.0
    assert extinction_gap_root(ModelParams(0.5)) == 0.0


def test_extinction_dichotomy_over_grid():
    for p in np.linspace(0.05, 2.0, 40):
        prob = extinction(ModelParams(float(p))).prob_finite
        if p <= 0.5:
            assert prob == 1.0
        else:
            assert prob < 1.0


def test_extinction_probability_strictly_decreasing_in_p():
    grid = np.linspace(0.51, 3.0, 50)
    probs = [extinction(ModelParams(float(p))).prob_finite for p in grid]
    assert all(a > b for a, b in zip(probs, probs[1:]))


@settings(max_examples=150, deadline=None)
@given(st.floats(min_value=0.500001, max_value=10.0))
def test_extinction_gap_solves_its_equation(p):
    gap = extinction(ModelParams(p)).decay_gap
    assert gap > 0.0
    residual = 2.0 * math.log1p(p * gap) - gap
    assert abs(residual) <= 1e-9 * max(1.0, gap)


# ------------------------------------------------------------ normalization


@pytest.mark.parametrize("p,target", [(0.1, 1.0), (0.3, 1.0), (0.6, 0.49243218436184857)])
def test_verify_normalization(p, target):
    params = ModelParams(p)
    check = verify_normalization(params, abs_tol=1e-8)
    assert extinction(params).prob_finite == pytest.approx(target, rel=1e-12)
    assert abs(check.quadrature.value - target) <= 1e-6
    assert check.quadrature.abs_error_estimate <= 1e-8


def test_verify_normalization_critical_power_tail():
    # At p = 1/2 the tail is a pure power law C x^(-3/2), which the change
    # of variable turns into a bounded integrand near v = 0.
    params = ModelParams(0.5)
    check = verify_normalization(params, abs_tol=1e-7)
    assert extinction(params).prob_finite == 1.0
    assert abs(check.quadrature.value - 1.0) <= 1e-6


# Tiny p (narrow peak, overflowing tail constant), both sides of
# criticality, and 1/2 +- 10^-k up to k = 12.  The quadrature's seed
# panels are graded towards the e^{-ax} cutoff at v ~ 10^-k, in octaves
# all the way to v = 1: with no seeds the residual at k = 6 and 7 was up
# to 4e3 times abs_tol, and with seeds only up to 2^6 times the cutoff it
# was 3.5 times abs_tol at k = 8.  Every point is checked against both
# extinction routes, the Lambert route's prob_finite being the one the
# CLI compares with.
NORMALIZATION_GRID = [
    1e-4, 2e-4, 5e-4, 1e-3, 3e-3, 1e-2, 0.05, 0.1, 0.3, 0.45, 0.49, 0.5, 0.6,
    1.0, 3.0, 10.0, 100.0, 1e3, 1e4,
] + [0.5 + sign * 10.0**-k for k in range(1, 13) for sign in (1, -1)]


@pytest.mark.parametrize("abs_tol", [1e-6, 1e-10])
@pytest.mark.parametrize("p", NORMALIZATION_GRID)
def test_verify_normalization_over_the_whole_support(p, abs_tol):
    params = ModelParams(p)
    check = verify_normalization(params, abs_tol=abs_tol)
    assert abs(check.quadrature.value - math.exp(-extinction_gap_root(params))) <= abs_tol
    assert abs(check.quadrature.value - extinction(params).prob_finite) <= abs_tol
    assert math.isfinite(check.x_max) and check.x_max > 1.0


@pytest.mark.parametrize("run", [
    pytest.param(lambda: verify_normalization(ModelParams(0.3), 1e-16), id="verify-1e-16"),
    pytest.param(lambda: numerics.integrate_adaptive(
        lambda x: np.exp(-x), Interval(0.0, 50.0), abs_tol=1e-18), id="max-panels"),
])
def test_failing_quadratures_fail_fast(monkeypatch, run):
    # A tolerance below the panels' rounding floor is met by no number of
    # panels.  Each round cuts every panel over its share, so the count
    # grows about 4-fold a round and reaches the panel limit in a few calls.
    # The last round cuts only the worst panels that fit, so the failure
    # comes at the limit, not one round short of it.
    calls = []
    integrate = numerics.integrate_adaptive

    def counted(f, *args, **kwargs):
        return integrate(lambda x: calls.append(x.size) or f(x), *args, **kwargs)

    monkeypatch.setattr(numerics, "integrate_adaptive", counted)
    with pytest.raises(ToleranceError) as info:
        run()
    assert isinstance(info.value.result, QuadratureResult)
    assert len(calls) <= 12
    panels = int(re.search(r"after (\d+) panels", str(info.value)).group(1))
    assert numerics._MAX_PANELS - 3 < panels <= numerics._MAX_PANELS


# Tolerances on both sides of each threshold at which the seed edges change.
_EDGE_TOLERANCES = [math.nextafter(threshold, toward) for threshold in (_FINE_TOL, _FINER_TOL)
                    for toward in (0.0, threshold, math.inf)]


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.floats(min_value=-305.0, max_value=300.0).map(lambda e: 10.0**e),
        st.builds(lambda k, sign: 0.5 + sign * 10.0**-k, st.integers(1, 15), st.sampled_from((-1, 1))),
    ),
    st.one_of(st.floats(min_value=5e-324, max_value=sys.float_info.max), st.sampled_from(_EDGE_TOLERANCES)),
)
@example(1e-300, 1e-12)
@example(1e-300, 1.0)
@example(3.0, 1e-9)
def test_support_breaks_ascend_strictly_inside_the_unit_interval(p, abs_tol):
    # The octaves towards the cutoff and those towards v = 1 must not
    # meet: at p = 1e-300 the last cutoff point is one ulp below 1.  At a
    # tolerance under _FINE_TOL the two sets interleave, and the split
    # cutoff octaves must stay below 1 too.
    params = ModelParams(p)
    edges = [0.0, *_support_breaks(params, _tail_constants(params)[1], abs_tol), 1.0]
    assert all(lo < hi for lo, hi in zip(edges, edges[1:]))


# The strata of the benchmark's verify jobs: p log-uniform on [1e-2, 1e3]
# and 1/2 +- 10^-k for k = 1, 2, each at abs_tol 1e-6 ... 1e-10.
CALL_COUNT_GRID = [(10.0 ** (-2.0 + 5.0 * i / 23), 10.0**-j) for i in range(24) for j in range(6, 11)] + [
    (0.5 + sign * 10.0**-k, 10.0**-j) for k in (1, 2) for sign in (1, -1) for j in range(6, 11)]


def test_verify_mostly_ends_in_its_first_integrand_call(monkeypatch):
    # A round of the quadrature costs far more than its nodes, so the seed
    # panels are many, and finer at a tight tolerance.  Over the 140 runs
    # of this grid the integrand was called 259 times with seed octaves
    # towards the cutoff alone, 177 times (26 325 evaluations) with
    # octaves towards v = 1 as well and the same edges at every
    # tolerance, and 143 times (22 875 evaluations) with the edges sized
    # from abs_tol: 137 of the 140 runs end in their first call.
    calls, evaluations = [], []
    integrate = numerics.integrate_adaptive

    def counted(f, *args, **kwargs):
        result = integrate(lambda x: calls.append(x.size) or f(x), *args, **kwargs)
        evaluations.append(result.evaluations)
        return result

    monkeypatch.setattr(numerics, "integrate_adaptive", counted)
    for p, abs_tol in CALL_COUNT_GRID:
        verify_normalization(ModelParams(p), abs_tol)
    assert len(calls) <= 150
    assert sum(evaluations) <= 24_000


@pytest.mark.parametrize("p", [0.5, 0.5 + 1e-8, 0.5 - 1e-8])
def test_support_integrand_near_criticality_down_to_tiny_v(p):
    # Near p = 1/2 the cutoff e^(-a x) sits at x ~ 1/a, and a quadrature
    # panel there evaluates g at x up to s / v^2 = 5e299.  At p = 1/2 the
    # integrand tends to 2 C / sqrt(s) as v -> 0, with a relative offset
    # of about 1.6 v^2, below 1e-13 once v <= 1e-7.
    v = np.logspace(-3.0, -150.0, 295)
    params = ModelParams(p)
    values = _support_integrand(params, _tail_constants(params), 0, v)
    assert np.all(np.isfinite(values))
    if p == 0.5:
        limit = 2.0 / math.sqrt(math.pi) / math.sqrt(0.5)
        tail = v <= 1e-7
        assert np.all(np.abs(values[tail] / limit - 1.0) <= 1e-12)


def test_support_integrand_is_finite_down_to_tiny_v():
    # Deep in the tail the density underflows to 0 while v^-3 overflows;
    # the product must come out 0, not nan.
    v = np.logspace(-100.0, 0.0, 401)
    params = ModelParams(0.3)
    values = _support_integrand(params, _tail_constants(params), 2, v)
    assert np.all(np.isfinite(values))
    assert values[0] == 0.0


# ------------------------------------------------------------ density table


def test_density_table_shape_and_columns():
    params = ModelParams(0.4)
    table = density_table(params, 1.0, 10.0, 10)
    assert len(table.x) == 10
    assert table.x[0] == 1.0 and table.x[-1] == 10.0
    assert table.density[0] == 0.0
    for x, d, a in zip(table.x, table.density, table.asymptotic):
        assert d == density(params, float(x))
        assert a == np.exp(asymptotic_log_density(params, float(x)))
    assert np.array_equal(table.density, density(params, table.x))
    assert np.array_equal(table.asymptotic, np.exp(asymptotic_log_density(params, table.x)))


def test_density_table_where_the_asymptote_overflows():
    # ln C - a = -2 ln(2p) - ln(pi)/2 passes ln(DBL_MAX) below p of about
    # 2.8e-155, so the asymptote at x = 1 is no double; the density is.
    with pytest.raises(DomainError, match=r"^the asymptote exceeds the largest double "
                                          r"at x = 1\.0 for p = 1e-160$"):
        density_table(ModelParams(1e-160), 1.0, 20.0, 3)
    table = density_table(ModelParams(2.9e-155), 1.0, 20.0, 3)
    assert np.all(np.isfinite(table.asymptotic)) and table.asymptotic[0] > 1e307


def test_density_table_validation():
    params = ModelParams(0.4)
    with pytest.raises(DomainError):
        density_table(params, 0.5, 10.0, 10)
    with pytest.raises(DomainError):
        density_table(params, 2.0, 2.0, 10)
    with pytest.raises(DomainError):
        density_table(params, 1.0, 10.0, 1)
    # linspace puts three points on two adjacent doubles.
    with pytest.raises(DomainError, match="x_min = 1.0, x_max = 1.0000000000000002 and steps = 3"):
        density_table(params, 1.0, 1.0000000000000002, 3)
    with pytest.raises(DomainError):
        DensityTable(
            x=np.array([1.0, 1.0]),
            density=np.array([0.0, 0.1]),
            asymptotic=np.array([0.1, 0.1]),
        )
    with pytest.raises(DomainError):
        DensityTable(
            x=np.array([1.0, 2.0]),
            density=np.array([0.0, -0.1]),
            asymptotic=np.array([0.1, 0.1]),
        )
