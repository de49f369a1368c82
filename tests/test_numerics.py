"""Unit tests for the special functions and numerical kernels.

Oracle values were frozen from independent routes before the library
existed: mpmath at 50 digits for log-gamma and Lambert W, plain
bisection for roots, and a dense fixed-grid Simpson rule for the
quadrature cross-checks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_gamma import (
    DomainError,
    Interval,
    NoSignChangeError,
    QuadratureResult,
    ToleranceError,
    integrate_adaptive,
    lambert_w_m1,
    log_gamma,
    solve_bracketed,
)
from cascade_gamma.numerics import stirling_remainder

# mpmath.loggamma to 50 digits, rounded to nearest double.
LOG_GAMMA_ORACLES = {
    0.5: 0.5723649429247001,
    10.5: 13.940625219403763,
    1e-6: 13.815509980749432,
    1e8: 1742068066.1038347,
}

# mpmath.lambertw(x, -1) to 50 digits, rounded to nearest double.
LAMBERT_ORACLES = {
    -0.05: -4.4997552885234875,
    -0.1: -3.5771520639572971,
    -0.3: -1.7813370234216277,
}

# Bisection on 2*ln(1 + 0.6*x) - x over [0.1, 10], 200 halvings.
DECAY_GAP_06 = 0.7083985245782692


# ---------------------------------------------------------------- Interval


def test_interval_validation():
    box = Interval(0.0, 2.5)
    assert (box.lo, box.hi) == (0.0, 2.5)
    with pytest.raises(DomainError):
        Interval(1.0, 1.0)
    with pytest.raises(DomainError):
        Interval(2.0, 1.0)
    with pytest.raises(DomainError):
        Interval(0.0, math.inf)
    with pytest.raises(DomainError):
        Interval(math.nan, 1.0)


def test_quadrature_result_validation():
    QuadratureResult(value=1.0, abs_error_estimate=0.0, evaluations=15)
    with pytest.raises(DomainError):
        QuadratureResult(value=1.0, abs_error_estimate=-1e-30, evaluations=15)
    with pytest.raises(DomainError):
        QuadratureResult(value=1.0, abs_error_estimate=0.0, evaluations=0)


# --------------------------------------------------------------- log_gamma


def test_log_gamma_at_integers():
    assert abs(log_gamma(1.0)) <= 1e-13
    assert abs(log_gamma(2.0)) <= 1e-13


@pytest.mark.parametrize("z,expected", sorted(LOG_GAMMA_ORACLES.items()))
def test_log_gamma_oracles(z, expected):
    got = log_gamma(z)
    assert got == pytest.approx(expected, rel=1e-13)


# Both sides of the lift at 8, its edges and the ends of the double range.
LOG_GAMMA_EDGES = [5e-324, 1e-300, 1e-6, 7.999999999999999, 8.0, 8.000000000000002, 1e8]


@pytest.mark.parametrize("z", LOG_GAMMA_EDGES)
def test_log_gamma_against_mpmath(z):
    import mpmath

    with mpmath.workdps(50):
        expected = float(mpmath.loggamma(mpmath.mpf(z)))
    assert abs(log_gamma(z) - expected) <= 1e-13 * max(1.0, abs(expected))


def test_log_gamma_array_matches_scalar():
    # Elements below 8 are lifted as a subset; each must still equal the
    # scalar call bit for bit, whatever its neighbours.
    z = np.array([1e-6, 0.5, 1.0, 3.75, 10.5, 123.0, 1e8] + LOG_GAMMA_EDGES)
    z = np.stack([z, z[::-1]])
    out = log_gamma(z)
    assert out.shape == z.shape
    for zi, oi in zip(z.ravel(), out.ravel()):
        assert oi == log_gamma(float(zi))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-300.0, max_value=13.0).map(lambda e: 10.0**e))
def test_stirling_remainder_against_mpmath(z):
    # S(z) = ln G(z) - (z - 1/2) ln z + z - ln(2 pi)/2: absolute 1e-15
    # from the series at z >= 8, and 1e-14 of max(1, |S|) through the lift.
    import mpmath

    with mpmath.workdps(50):
        zm = mpmath.mpf(z)
        expected = float(mpmath.loggamma(zm) - (zm - 0.5) * mpmath.log(zm) + zm
                         - mpmath.log(2 * mpmath.pi) / 2)
    bound = 1e-15 if z >= 8.0 else 1e-14 * max(1.0, abs(expected))
    assert abs(stirling_remainder(z) - expected) <= bound
    assert stirling_remainder(np.array([z, 2.0]))[0] == stirling_remainder(z)


def test_log_gamma_domain_errors():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            log_gamma(bad)
    with pytest.raises(DomainError):
        log_gamma(np.array([1.0, -2.0]))
    for bad in (np.array([3.0, math.nan]), np.array([[9.0], [math.inf]]), 0.0):
        with pytest.raises(DomainError):
            stirling_remainder(bad)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e6))
def test_log_gamma_recurrence(z):
    # ln Gamma(z + 1) - ln Gamma(z) = ln z, the defining functional identity.
    lhs = log_gamma(z + 1.0) - log_gamma(z)
    scale = max(1.0, abs(log_gamma(z)))
    assert abs(lhs - math.log(z)) <= 1e-12 * scale


def test_log_gamma_recurrence_dense_grid():
    rng = np.random.default_rng(7)
    z = np.exp(rng.uniform(math.log(1e-3), math.log(1e6), size=10_000))
    gap = np.abs(log_gamma(z + 1.0) - log_gamma(z) - np.log(z))
    scale = np.maximum(1.0, np.abs(log_gamma(z)))
    assert float(np.max(gap / scale)) <= 1e-12


# ------------------------------------------------------------ lambert_w_m1


def test_lambert_branch_point_is_exact():
    assert lambert_w_m1(-1.0 / math.e) == -1.0


@pytest.mark.parametrize("x,expected", sorted(LAMBERT_ORACLES.items()))
def test_lambert_oracles(x, expected):
    got = lambert_w_m1(x)
    assert got == pytest.approx(expected, rel=5e-15)
    assert abs(got * math.exp(got) - x) <= 1e-13 * abs(x)


def test_lambert_residual_contract_on_grid():
    # 1000 points spanning the whole domain, geometric towards both ends.
    lo, hi = -1.0 / math.e, -1e-8
    xs = -np.exp(np.linspace(math.log(-lo), math.log(-hi), 1000))
    for x in xs:
        w = lambert_w_m1(float(x))
        assert w <= -1.0
        assert abs(w * math.exp(w) - x) <= 1e-13 * abs(x)


def test_lambert_near_branch_point():
    # 1e-4 inside the branch point, where the square-root expansion rules.
    for bump in (1e-12, 1e-9, 1e-6, 1e-4):
        x = -1.0 / math.e * (1.0 - bump)
        w = lambert_w_m1(x)
        assert w <= -1.0
        assert abs(w * math.exp(w) - x) <= 1e-13 * abs(x)


def test_lambert_subnormal_arguments():
    # w e^w = x keeps too few digits of x there; w + ln(-w) = ln(-x) does not.
    for x in (-5e-324, -1e-320, -2.7e-309, -2.2250738585072009e-308):
        w = lambert_w_m1(x)
        assert w <= -1.0
        assert w + math.log(-w) == pytest.approx(math.log(-x), rel=1e-15)
    # Either side of the smallest normal double the two routes agree.
    below, above = lambert_w_m1(-2.2250738585072009e-308), lambert_w_m1(-2.2250738585072014e-308)
    assert below == pytest.approx(above, rel=1e-14)


def test_lambert_domain_errors():
    for bad in (-1.0, -0.5, 0.0, 1e-3, math.nan):
        with pytest.raises(DomainError):
            lambert_w_m1(bad)


# ---------------------------------------------------------- solve_bracketed


def test_solve_linear():
    root = solve_bracketed(lambda x: x - 1.0, Interval(0.0, 2.0))
    assert abs(root - 1.0) <= 1e-12


def test_solve_decay_gap_equation():
    root = solve_bracketed(
        lambda x: 2.0 * math.log(1.0 + 0.6 * x) - x, Interval(0.1, 10.0)
    )
    assert root == pytest.approx(DECAY_GAP_06, abs=1e-10)


def test_solve_sqrt_two():
    root = solve_bracketed(lambda x: x * x - 2.0, Interval(1.0, 2.0))
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_solve_requires_sign_change():
    with pytest.raises(NoSignChangeError):
        solve_bracketed(lambda x: x * x + 1.0, Interval(-1.0, 1.0))


def test_solve_runs_to_adjacent_doubles():
    # f changes sign across the root's two neighbouring doubles, and the
    # root has the smallest |f| of the three.
    def f(x):
        return x * x - 2.0

    root = solve_bracketed(f, Interval(1.0, 2.0))
    below, above = math.nextafter(root, 0.0), math.nextafter(root, 3.0)
    assert f(below) < 0.0 < f(above)
    assert abs(f(root)) <= min(abs(f(below)), abs(f(above)))


@pytest.mark.parametrize("lo,hi,root", [
    (-1.7976931348623157e308, 1.7976931348623157e308, 1.0),  # lo + hi and hi - lo overflow
    (0.0, 1e-320, 3e-322),  # subnormal midpoints
])
def test_solve_brackets_of_any_width(lo, hi, root):
    assert solve_bracketed(lambda x: x - root, Interval(lo, hi)) == root


def test_solve_rejects_non_finite_endpoint_values():
    with pytest.raises(DomainError):
        solve_bracketed(lambda x: math.inf if x > 0.5 else -1.0, Interval(0.0, 1.0))


def test_solve_endpoint_root():
    assert solve_bracketed(lambda x: x, Interval(0.0, 1.0)) == 0.0
    assert solve_bracketed(lambda x: x - 1.0, Interval(0.0, 1.0)) == 1.0


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=1e-6, max_value=40.0),
    st.floats(min_value=0.1, max_value=3.0),
)
def test_solve_root_stays_inside_bracket(center, width, power):
    # Odd monotone function with a known interior root.
    lo, hi = center - width, center + width

    def f(x):
        d = x - center
        return math.copysign(abs(d) ** power, d)

    root = solve_bracketed(f, Interval(lo, hi))
    assert lo <= root <= hi
    assert abs(root - center) <= 1e-10 * max(1.0, abs(center))


# -------------------------------------------------------- integrate_adaptive


def test_integrate_constant():
    result = integrate_adaptive(np.ones_like, Interval(0.0, 1.0), abs_tol=1e-12)
    assert abs(result.value - 1.0) <= 1e-12
    assert result.abs_error_estimate <= 1e-12
    assert result.evaluations >= 15


def test_integrate_exponential():
    result = integrate_adaptive(lambda x: np.exp(-x), Interval(0.0, 50.0), abs_tol=1e-10)
    exact = 1.0 - math.exp(-50.0)
    assert abs(result.value - exact) <= 1e-10
    assert result.abs_error_estimate <= 1e-10


def test_integrate_matches_simpson_oracle():
    # The cascade density at p = 0.3 over [1, 64], against a brute-force
    # Simpson rule on a million-point grid computed with scipy parts only.
    from scipy.integrate import simpson
    from scipy.special import gammaln

    p = 0.3

    def log_g(x):
        return (
            (2.0 * x - 1.0) * np.log(x - 1.0)
            - (1.0 / p + 2.0 * math.log(p)) * x
            + 1.0 / p
            - np.log(x)
            - gammaln(2.0 * x)
        )

    grid = np.linspace(1.0, 64.0, 1_000_001)
    values = np.zeros_like(grid)
    values[1:] = np.exp(log_g(grid[1:]))
    oracle = float(simpson(values, x=grid))

    from cascade_gamma import ModelParams, density

    result = integrate_adaptive(
        lambda x: density(ModelParams(p), x), Interval(1.0, 64.0), abs_tol=1e-10
    )
    assert abs(result.value - oracle) <= 1e-9


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.05, max_value=2.95))
def test_integrate_split_additivity(cut):
    f = lambda x: np.exp(-x) * np.cos(3.0 * x)  # noqa: E731
    whole = integrate_adaptive(f, Interval(0.0, 3.0), abs_tol=1e-11)
    left = integrate_adaptive(f, Interval(0.0, cut), abs_tol=1e-11)
    right = integrate_adaptive(f, Interval(cut, 3.0), abs_tol=1e-11)
    budget = whole.abs_error_estimate + left.abs_error_estimate + right.abs_error_estimate
    assert abs(whole.value - (left.value + right.value)) <= budget + 1e-13


def test_integrate_unattainable_tolerance_carries_best_estimate():
    # Below the rounding floor of the panel values no refinement can help;
    # the failure must still surface the best running estimate.
    with pytest.raises(ToleranceError) as info:
        integrate_adaptive(lambda x: np.exp(-x), Interval(0.0, 50.0), abs_tol=1e-18)
    partial = info.value.result
    assert partial is not None
    assert abs(partial.value - (1.0 - math.exp(-50.0))) <= 1e-9
    assert partial.abs_error_estimate > 1e-18


def _poly_integral(coeffs, lo, hi):
    """Exact integral of sum c_k x^k over [lo, hi], in rationals."""
    from fractions import Fraction

    lo, hi = Fraction(lo), Fraction(hi)
    return float(sum(Fraction(c) * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
                     for k, c in enumerate(coeffs)))


@pytest.mark.parametrize("degree", [0, 1, 5, 13, 22])
def test_gk15_panel_is_exact_to_degree_22(degree):
    # Kronrod 15 integrates degree 3*7 + 1 = 22 exactly and its embedded
    # Gauss 7 degree 13, so up to 13 the two sums agree to rounding and
    # the error estimate sits at the 50-ulp floor.
    from cascade_gamma.numerics import _EPS, _gk15

    coeffs = [1.0 + 0.25 * k for k in range(degree + 1)]
    f = lambda x: np.polynomial.polynomial.polyval(x, coeffs)  # noqa: E731
    lo, mid, hi = 0.3, 1.1, 1.7
    [(_, _, value, err)] = _gk15(f, [(lo, hi)])
    exact = _poly_integral(coeffs, lo, hi)
    assert abs(value - exact) <= 1e-14 * abs(exact)
    if degree <= 13:
        assert err == 50.0 * _EPS * abs(value)
    # Two panels from one call give the bits of two separate calls.
    assert _gk15(f, [(lo, mid), (mid, hi)]) == _gk15(f, [(lo, mid)]) + _gk15(f, [(mid, hi)])


def test_gk15_gives_each_panel_the_bits_of_its_own_call():
    from cascade_gamma.numerics import _gk15

    rng = np.random.default_rng(7)
    f = lambda x: np.exp(-x) * np.cos(40.0 * x) + x**3  # noqa: E731
    edges = np.sort(rng.uniform(-3.0, 3.0, 65))
    pairs = list(zip(edges[:-1], edges[1:]))
    assert _gk15(f, pairs) == [row for pair in pairs for row in _gk15(f, [pair])]


def test_integrand_is_called_once_per_round_with_its_nodes():
    # The first call takes the 15 nodes of each seed panel, and each
    # round one call of the 4 * 15 nodes of every panel it cuts, all in
    # ascending order.
    calls = []

    def f(x):
        calls.append(x.copy())
        return np.exp(-x) * np.cos(3.0 * x)

    breaks = (1.0, 5.0, 20.0)
    result = integrate_adaptive(f, Interval(0.0, 50.0), abs_tol=1e-10, breaks=breaks)
    assert len(calls) > 2
    assert result.evaluations == sum(x.size for x in calls)
    assert {(type(x), x.dtype) for x in calls} == {(np.ndarray, np.dtype(np.float64))}
    assert calls[0].size == 15 * (len(breaks) + 1)
    for x in calls[1:]:
        assert x.size % 60 == 0
    for x in calls:
        assert np.all(np.diff(x) > 0.0)
    # Without breaks the quadrature starts from one panel.
    calls.clear()
    integrate_adaptive(f, Interval(0.0, 50.0), abs_tol=1e-10)
    assert calls[0].size == 15


def test_breaks_must_ascend_strictly_inside_the_interval():
    for breaks in ((0.0,), (1.0,), (0.5, 0.5), (0.6, 0.4), (math.nan,)):
        with pytest.raises(DomainError, match="breaks"):
            integrate_adaptive(np.ones_like, Interval(0.0, 1.0), abs_tol=1e-8, breaks=breaks)


def test_microbench_call_stays_one_panel():
    # perfbench/microbench.py times one GK15 panel with this call and
    # fails unless it takes exactly 15 evaluations.
    from cascade_gamma import ModelParams, density

    params = ModelParams(0.3)
    result = integrate_adaptive(lambda x: density(params, x), Interval(1.0, 3.0), abs_tol=1.0)
    assert result.evaluations == 15


# lo >= 0 keeps |f| <= 1, so the 50-ulp panel floor stays below 1e-12.
# Up to 4 periods in the interval, the 15-node start sees the
# oscillation; with 16 periods on one panel the Kronrod and Gauss sums
# can agree by chance, and the error estimate then misses a larger error.
@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.01, max_value=5.0),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=-12.0, max_value=-4.0),
)
def test_integrate_meets_its_tolerance(lo, width, c, omega, log_tol):
    # With z = c - i w, the integral of exp(-c x) cos(w x) over [lo, hi]
    # is Re[exp(-z lo) (1 - exp(-z (hi - lo))) / z], taken at 40 digits.
    import mpmath

    hi = lo + width
    abs_tol = 10.0**log_tol
    with mpmath.workdps(40):
        z = mpmath.mpc(c, -omega)
        span = mpmath.mpf(hi) - mpmath.mpf(lo)
        factor = span if z == 0 else -mpmath.expm1(-z * span) / z
        exact = float(mpmath.re(mpmath.exp(-z * mpmath.mpf(lo)) * factor))

    result = integrate_adaptive(
        lambda x: np.exp(-c * x) * np.cos(omega * x), Interval(lo, hi), abs_tol=abs_tol)
    assert result.abs_error_estimate <= abs_tol
    assert abs(result.value - exact) <= abs_tol


def test_gk15_nodes_are_centre_plus_minus_half_node():
    from cascade_gamma.numerics import _GK_NODES, _gk15

    def nodes(*edges):
        seen = []
        pairs = list(zip(edges, edges[1:]))
        panels = _gk15(lambda x: seen.append(x.copy()) or np.zeros_like(x), pairs)
        assert panels == [(lo, hi, 0.0, 0.0) for lo, hi in pairs]
        return seen[0].tolist()

    lo, hi = 1.0, 1.0 + 2.0 ** -20 * 3.0
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    expected = sorted([centre] + [centre - half * v for v in _GK_NODES]
                      + [centre + half * v for v in _GK_NODES])
    assert nodes(lo, hi) == expected
    # The halves of a split, bit for bit those of two separate calls.
    mid = 0.5 * (lo + hi)
    assert nodes(lo, mid, hi) == nodes(lo, mid) + nodes(mid, hi)


def _one_call_per_panel(f, interval, abs_tol=1e-10, breaks=()):
    """integrate_adaptive with one call of f per panel: the reference for
    the rounds, which evaluate all the new panels of a round in one call.
    """
    from cascade_gamma.numerics import _MAX_PANELS, _gk15

    def panel(lo, hi):
        [row] = _gk15(f, [(lo, hi)])
        return row

    def quarters(lo, hi):
        mid = 0.5 * (lo + hi)
        return [lo, 0.5 * (lo + mid), mid, 0.5 * (mid + hi), hi]

    def result():
        return QuadratureResult(value=math.fsum(q[2] for q in panels),
                                abs_error_estimate=math.fsum(q[3] for q in panels),
                                evaluations=15 * evaluated)

    edges = [interval.lo, *breaks, interval.hi]
    panels = [panel(lo, hi) for lo, hi in zip(edges, edges[1:])]
    evaluated = len(panels)
    share = abs_tol / (interval.hi - interval.lo)
    while math.fsum(q[3] for q in panels) > abs_tol:
        cut = [err > share * (hi - lo) for lo, hi, _, err in panels]
        if not any(cut):
            errors = [q[3] for q in panels]
            cut[errors.index(max(errors))] = True
        room = (_MAX_PANELS - len(panels)) // 3
        if room <= 0:
            now = result()
            raise ToleranceError(
                f"quadrature error estimate {now.abs_error_estimate:.3e} exceeds "
                f"abs_tol {abs_tol:.3e} after {len(panels)} panels", result=now)
        if sum(cut) > room:
            worst = set(sorted((i for i, c in enumerate(cut) if c), key=lambda i: -panels[i][3])[:room])
            cut = [i in worst for i in range(len(panels))]
        for (lo, hi, _, _), cut_q in zip(panels, cut):
            edges = quarters(lo, hi)
            if cut_q and not all(a < b for a, b in zip(edges, edges[1:])):
                raise ToleranceError(f"panel [{lo!r}, {hi!r}] cannot be split further", result=result())
        refined = []
        for q, cut_q in zip(panels, cut):
            edges = quarters(q[0], q[1])
            refined += [panel(a, b) for a, b in zip(edges, edges[1:])] if cut_q else [q]
        evaluated += 4 * sum(cut)
        panels = refined
    return result()


def _outcome(integrate, f, interval, **options):
    """The result, or the error type, message and carried result, of one quadrature."""
    try:
        return integrate(f, interval, **options)
    except (ToleranceError, DomainError) as exc:
        return type(exc), str(exc), getattr(exc, "result", None)


def _support(p, k=0):
    from cascade_gamma import ModelParams
    from cascade_gamma.continuum import _support_integrand, _tail_constants

    params = ModelParams(p)
    return lambda v: _support_integrand(params, _tail_constants(params), k, v)


def _support_breaks(p):
    from cascade_gamma import ModelParams
    from cascade_gamma.continuum import _support_breaks, _tail_constants

    params = ModelParams(p)
    return _support_breaks(params, _tail_constants(params)[1])


def _nan_in_both_halves(x):
    # sqrt(x) must cut [0, 2]; its first and last quarters, but not the
    # whole, have a node in a gap, so one call meets a nan in both.
    gaps = ((0.002 < x) & (x < 0.003)) | ((1.997 < x) & (x < 1.998))
    return np.where(gaps, math.nan, np.sqrt(x))


SPLIT_CALL_CASES = [
    pytest.param(lambda x: np.polynomial.polynomial.polyval(x, np.ones(41)),
                 Interval(0.0, 1.0), {"abs_tol": 1e-12}, id="polynomial-degree-40"),
    pytest.param(lambda x: np.exp(-x), Interval(0.0, 50.0), {"abs_tol": 1e-10}, id="exp"),
    pytest.param(lambda x: np.exp(-x), Interval(0.0, 50.0), {"abs_tol": 1e-18}, id="max-panels"),
    pytest.param(lambda x: np.sin(1e6 * x), Interval(1.0, 1.0 + 12 * 2.0 ** -52),
                 {"abs_tol": 1e-300}, id="cannot-be-split"),
    pytest.param(_nan_in_both_halves, Interval(0.0, 2.0), {"abs_tol": 1e-10}, id="nan-in-both-halves"),
] + [
    pytest.param(lambda x: np.exp(-x), Interval(0.0, 50.0),
                 {"abs_tol": 1e-10, "breaks": (0.5, 2.0, 8.0)}, id="exp-with-breaks"),
] + [
    pytest.param(_support(p), Interval(0.0, 1.0), {"abs_tol": tol}, id=f"support-p{p}-tol{tol}")
    for p in (0.01, 0.3, 0.5, 0.6, 5.0, 1e3)
    for tol in (1e-6, 1e-10)
] + [
    pytest.param(_support(p), Interval(0.0, 1.0), {"abs_tol": tol, "breaks": _support_breaks(p)},
                 id=f"support-seeded-p{p}-tol{tol}")
    for p in (0.01, 0.3, 0.5 - 1e-7, 0.5 + 1e-6, 2.0)
    for tol in (1e-6, 1e-10)
]


@pytest.mark.parametrize("f,interval,options", SPLIT_CALL_CASES)
def test_split_in_one_call_gives_the_bits_of_one_call_per_panel(f, interval, options):
    got = _outcome(integrate_adaptive, f, interval, **options)
    want = _outcome(_one_call_per_panel, f, interval, **options)
    assert got == want


def test_integrate_rejects_non_finite_integrand():
    with pytest.raises(DomainError):
        integrate_adaptive(lambda x: np.full_like(x, math.inf), Interval(0.0, 1.0), abs_tol=1e-8)
    with pytest.raises(DomainError):
        integrate_adaptive(np.ones_like, Interval(0.0, 1.0), abs_tol=0.0)
    # One nan among the nodes: the error names that node, not a mass x,
    # since the integrand's variable is whatever the caller integrates over.
    seen = []

    def nan_at_fifth_node(x):
        seen.append(x[4])
        return np.where(x == x[4], math.nan, 1.0)

    with pytest.raises(DomainError) as info:
        integrate_adaptive(nan_at_fifth_node, Interval(0.0, 1.0), abs_tol=1e-8)
    assert str(info.value) == f"integrand returned nan at node {float(seen[0])!r}"
    # Finite values whose weighted sum overflows.
    with pytest.raises(DomainError, match="overflows"), np.errstate(over="ignore"):
        integrate_adaptive(lambda x: np.full_like(x, 1e308), Interval(0.0, 1.0), abs_tol=1e-8)
