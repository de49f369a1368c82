"""Unit tests for the atomized cascade: NB offspring law, exact pmf,
moments, and the martingale root.

Frozen oracles: NB summations accumulated in extended precision, the
p = 0.6 martingale root from 200-step bisection, and the continuum
density values shared with test_continuum.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cascade_gamma import (
    CascadePmf,
    CriticalityError,
    DiscretizationParams,
    DomainError,
    ModelParams,
    ToleranceError,
    cascade_log_pmf,
    cascade_pmf_table,
    density,
    discrete_moments,
    extinction,
    martingale_alpha,
    moments,
    rescaled_density_estimate,
)
from cascade_gamma.discrete import _log_tail_ratio_limit

# Bisection root of the martingale fixed-point equation, p = 0.6, m = 10.
ALPHA_06_M10 = 0.9330379989708689


# --------------------------------------------------------------- parameters


def test_discretization_algebra():
    params = DiscretizationParams(0.3, 10)
    assert params.delta == 0.1
    assert params.r_star == pytest.approx(0.3, rel=1e-15)
    assert params.q_star == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert params.p == 0.3


def test_discretization_validation():
    with pytest.raises(DomainError):
        DiscretizationParams(0.3, 3)  # delta = 1/3 >= p
    with pytest.raises(DomainError):
        DiscretizationParams(0.3, 0)
    with pytest.raises(DomainError):
        DiscretizationParams(0.3, 10.0)  # must be an integer count
    with pytest.raises(DomainError):
        DiscretizationParams(0.3, True)
    with pytest.raises(DomainError):
        DiscretizationParams(-0.3, 10)
    with pytest.raises(DomainError):
        DiscretizationParams(1e16, 1)  # q* = (p - delta)/p rounds to 1


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=1e-3, max_value=10.0), st.integers(min_value=1, max_value=10_000))
def test_atomic_count_mean_is_exactly_2p(p, m):
    # r* q* / (1 - q*) collapses algebraically to 2p at every delta.
    if 1.0 / m >= p:
        m = int(math.floor(1.0 / p)) + 1
    params = DiscretizationParams(p, m)
    # Through q*/(1 - q*) = (p - delta)/delta, free of the cancellation in 1 - q*.
    count_mean = params.r_star * (params.p - params.delta) / params.delta
    assert abs(count_mean - 2.0 * p) <= 1e-14 * 2.0 * p


# ------------------------------------------------- NB -> Gamma density limit


def rescaled_offspring_pmf(p, m, x):
    """m P{N = floor(x m)} for the count N ~ NB(m r*, q*) born to mass one's m atoms.

    delta N matches one Gamma(2, p) generation in mean and variance, so
    this tends to the Gamma(2, p) density at x as delta = 1/m -> 0.
    """
    params = DiscretizationParams(p, m)
    n = math.floor(x * m + 1e-9)
    return m * stats.nbinom.pmf(n, m * params.r_star, 1.0 - params.q_star)


def test_gamma_limit_pair_close_at_small_delta():
    got = rescaled_offspring_pmf(0.4, 10_000, 0.8)
    assert got == pytest.approx(stats.gamma.pdf(0.8, 2, scale=0.4), rel=1e-3)


def test_gamma_limit_closed_form_side():
    # The Gamma(2, 1) density at x = 2 is 2 e^-2.
    assert rescaled_offspring_pmf(1.0, 100_000, 2.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-3)


def test_gamma_limit_gap_shrinks_with_delta():
    want = stats.gamma.pdf(0.8, 2, scale=0.4)
    gaps = [abs(rescaled_offspring_pmf(0.4, m, 0.8) - want) for m in (100, 1000, 10_000)]
    assert gaps[0] > gaps[1] > gaps[2]


# ------------------------------------------------------------ cascade pmf


def test_cascade_atom_is_founders_only_probability():
    params = DiscretizationParams(0.3, 10)
    got = cascade_log_pmf(params, 10, 10)
    nb_atom = stats.nbinom.logpmf(0, params.r_star, 1.0 - params.q_star)
    assert got == pytest.approx(10.0 * nb_atom, rel=1e-14)
    # (delta/p)^(2p/(p - delta)) = (1/3)^3 for p = 0.3, delta = 0.1.
    assert math.exp(got) == pytest.approx(1.0 / 27.0, rel=1e-13)


def _mp_log_pmf(p: float, m: int, n: int) -> float:
    """ln P{T = n} from m founders, at 60 digits: the module's formula at
    the double p and the exact delta = 1/m."""
    import mpmath

    with mpmath.workdps(60):
        pm, delta = mpmath.mpf(p), mpmath.mpf(1) / m
        r, q = 2 * delta * pm / (pm - delta), (pm - delta) / pm
        return float(
            mpmath.log(m) - mpmath.log(n) + mpmath.loggamma(n * (1 + r) - m)
            - mpmath.loggamma(n * r) - mpmath.loggamma(n - m + 1)
            + r * n * mpmath.log(1 - q) + (n - m) * mpmath.log(q)
        )


@st.composite
def _pmf_points(draw):
    """(p, m, extra atoms n - m) in the region of cascade_log_pmf's contract."""
    lo, hi = draw(st.sampled_from([(0.2, 0.45), (0.55, 2.0)]))
    m = draw(st.integers(math.ceil(1.01 / hi), 1000))
    p = draw(st.floats(max(lo, 1.01 / m), hi))
    return p, m, draw(st.lists(st.integers(0, 10**4), min_size=1, max_size=4))


@settings(max_examples=200, deadline=None)
@given(_pmf_points())
def test_cascade_log_pmf_against_mpmath(point):
    # The five log-gamma terms are of size n ln n and cancel to ln P;
    # in this region the error stays below 1e-11 of max(1, |ln P|).
    p, m, extra = point
    n = m + np.array(extra)
    got = cascade_log_pmf(DiscretizationParams(p, m), m, n)
    for count, value in zip(n.tolist(), got.tolist()):
        expected = _mp_log_pmf(p, m, count)
        assert abs(value - expected) <= 1e-11 * max(1.0, abs(expected)), (p, m, count)


def test_cascade_below_founders_is_impossible():
    params = DiscretizationParams(0.3, 10)
    assert cascade_log_pmf(params, 10, 9) == -math.inf
    assert cascade_log_pmf(params, 3, 0) == -math.inf
    out = cascade_log_pmf(params, 10, np.array([0, 9, 10]))
    assert out[0] == -math.inf and out[1] == -math.inf and np.isfinite(out[2])


def test_cascade_mass_sums_to_one_subcritical():
    params = DiscretizationParams(0.3, 10)
    n = np.arange(10, 4000)
    mass = float(np.exp(cascade_log_pmf(params, 10, n)).sum())
    assert abs(mass - 1.0) <= 1e-8


def test_cascade_log_pmf_validation():
    params = DiscretizationParams(0.3, 10)
    with pytest.raises(DomainError):
        cascade_log_pmf(params, 0, 5)
    with pytest.raises(DomainError):
        cascade_log_pmf(params, 1.5, 5)
    with pytest.raises(DomainError):
        cascade_log_pmf(params, 1, -2)
    # Counts take an integer dtype only, as m_start takes no integral float.
    with pytest.raises(DomainError):
        cascade_log_pmf(params, 10, np.array([12.0]))


def test_recursion_identity_small_counts():
    # A single founder's total is 1 plus the total spawned by its brood:
    # P{T(1) = n} = sum_y b(y) P{T(y) = n - 1}, with T(0) = 0 surely.
    params = DiscretizationParams(0.3, 10)
    offspring = stats.nbinom.pmf(np.arange(0, 40), params.r_star, 1.0 - params.q_star)
    for n in range(1, 31):
        direct = math.exp(cascade_log_pmf(params, 1, n))
        total = offspring[0] if n == 1 else 0.0
        for y in range(1, n):
            total += offspring[y] * math.exp(cascade_log_pmf(params, y, n - 1))
        assert abs(direct - total) <= 1e-10


def test_m_additivity_convolution():
    # Founders split 4 + 6: the 10-founder pmf is the convolution.
    params = DiscretizationParams(0.3, 10)
    n_hi = 200
    ns = np.arange(0, n_hi + 1)
    pmf4 = np.exp(cascade_log_pmf(params, 4, ns))
    pmf6 = np.exp(cascade_log_pmf(params, 6, ns))
    pmf10 = np.exp(cascade_log_pmf(params, 10, ns))
    conv = np.convolve(pmf4, pmf6)[: n_hi + 1]
    assert float(np.max(np.abs(conv - pmf10))) <= 1e-10


# ------------------------------------------------------------- pmf tables


def test_pmf_table_subcritical_mass():
    params = DiscretizationParams(0.2, 10)
    table = cascade_pmf_table(params)
    assert not table.truncated
    assert table.tail_bound <= 1e-10
    assert abs(table.total_mass - 1.0) <= 1e-8
    assert len(table) == table.probabilities.size


def test_pmf_table_supercritical_mass_approaches_alpha_power():
    # Two independent routes to P{finite}: summing the exact pmf versus
    # the martingale fixed point raised to the founder count.
    params = DiscretizationParams(0.6, 100)
    limit = martingale_alpha(params) ** 100
    masses = [cascade_pmf_table(params, n_max=n).total_mass for n in (400, 4000, 60_000)]
    assert masses[0] < masses[1] < masses[2] < limit + 1e-12
    assert abs(limit - masses[-1]) <= 1e-10
    # and refining delta drives it to the continuum probability
    assert limit == pytest.approx(extinction(ModelParams(0.6)).prob_finite, abs=5e-3)


# Where p is just above 1/m the formula's log-gammas cancel terms of
# size n r* ln(n r*) (r* = 2e10 at the first): the masses are 0.999391,
# 1.0000063, 0.997103 and 0.986855 against alpha^10 = 1, and at the last
# the logs pass 0 (and exp's range) from row 23 on.
_TABLES_THAT_MISS = [(0.1 + 1e-12, 10), (0.1 + 1e-11, 10), (0.1 + 1e-13, 10), (0.1 + 1e-14, 10),
                     (0.50000000000001, 2)]


@pytest.mark.parametrize("p, m", _TABLES_THAT_MISS)
def test_pmf_table_that_misses_alpha_power_is_refused(p, m):
    with pytest.raises(ToleranceError, match=rf"pmf table misses alpha\^{m}"):
        cascade_pmf_table(DiscretizationParams(p, m))


@pytest.mark.parametrize("p, m", [(0.01, 10_000), (100.0, 10_000), (0.3, 10_000),
                                  (1.5e-5, 100_000), (0.0166, 2554), (0.55, 2), (0.6, 100)])
def test_pmf_table_check_passes_rows_that_keep_their_digits(p, m):
    # Residuals of up to 2.6 eps (rows + m) here and in a random sweep
    # up to m = 2e5, against the check's 8 eps (rows + m).
    params = DiscretizationParams(p, m)
    table = cascade_pmf_table(params)
    alpha_m = martingale_alpha(params) ** m
    assert table.total_mass <= alpha_m + 8.0 * 2.0**-52 * (len(table) + m)


def test_pmf_table_explicit_n_max_marks_truncation():
    params = DiscretizationParams(0.3, 10)
    table = cascade_pmf_table(params, n_max=40)
    assert table.truncated
    assert table.tail_bound > 1e-10
    assert len(table) == 40 - 10 + 1


def _tail_bound_of_last_two(params, table):
    """The tail bound of params' table, recomputed from cascade_log_pmf at its last two counts.

    A bound that does not exist (ratio one, or a single row) is all
    the mass the table misses.
    """
    n_last = params.m + len(table) - 1
    log_prev, log_last = cascade_log_pmf(params, params.m, np.array([n_last - 1, n_last])).tolist()
    rho_limit = math.exp(min(_log_tail_ratio_limit(params), 0.0))
    rho = max(math.exp(min(log_last - log_prev, 0.0)), rho_limit)
    if rho >= 1.0:
        return max(0.0, 1.0 - table.total_mass)
    return math.exp(log_last) * rho / (1.0 - rho)


@pytest.mark.parametrize("p, n_max, max_rows, rows, truncated", [
    (0.3, 10 + 4096, 2_000_000, 4097, False),  # a last block of one row
    (0.3, 10, 2_000_000, 1, True),  # one row: no observed ratio
    (0.3, None, 2, 2, True),  # automatic mode stopped by max_rows
    (0.3, None, 3, 3, True),
    (0.5, None, 4097, 4097, True),  # critical, stopped by max_rows on a one-row block
    (0.5, None, 5000, 5000, True),  # critical, stopped by max_rows mid-block
])
def test_pmf_table_stops_with_the_bound_of_its_last_two_rows(p, n_max, max_rows, rows, truncated):
    params = DiscretizationParams(p, 10)
    table = cascade_pmf_table(params, n_max=n_max, max_rows=max_rows)
    assert len(table) == rows
    assert table.truncated is truncated
    ns = np.arange(10, 10 + rows)
    np.testing.assert_array_equal(table.probabilities, np.exp(cascade_log_pmf(params, 10, ns)))
    assert table.tail_bound == pytest.approx(_tail_bound_of_last_two(params, table), rel=1e-12)


def test_pmf_table_n_max_beyond_max_rows_is_an_error():
    params = DiscretizationParams(0.3, 10)
    assert len(cascade_pmf_table(params, n_max=13, max_rows=4)) == 4
    with pytest.raises(DomainError, match="cap of 4"):
        cascade_pmf_table(params, n_max=14, max_rows=4)
    with pytest.raises(DomainError, match="max_rows"):
        cascade_pmf_table(params, max_rows=1)


def test_pmf_table_rescaled_matches_density():
    # delta^{-1} P{T = floor(x m)} ~ g(x) with an O(delta) gap.
    params = DiscretizationParams(0.3, 1000)
    x = 5.0
    got = rescaled_density_estimate(params, x)
    want = density(ModelParams(0.3), x)
    assert got == pytest.approx(want, rel=1e-3)
    assert rescaled_density_estimate(params, 0.5) == 0.0


def _rescaled_density_loop(params, grid):
    """Reference: the per-point scalar formula, one cascade_log_pmf call per x."""
    values = []
    for x in grid:
        n = int(math.floor(x * params.m + 1e-9))
        if n < params.m:
            values.append(0.0)
        else:
            values.append(params.m * float(np.exp(cascade_log_pmf(params, params.m, n))))
    return values


@pytest.mark.parametrize("p, m", [(0.3, 10), (0.3, 640), (0.6, 1000), (0.5, 20)])
def test_rescaled_density_estimate_takes_arrays(monkeypatch, p, m):
    # One array call equals the per-point loop bit for bit, keeps the
    # grid's shape, and a scalar call gives a float.  The lattice route
    # stays independent of the continuum density.
    import cascade_gamma.continuum as continuum

    def forbidden(*args):
        raise AssertionError("the lattice route must not call log_density")

    monkeypatch.setattr(continuum, "log_density", forbidden)
    params = DiscretizationParams(p, m)
    grid = np.concatenate([[0.5, 1.0, 1.0 + 1.0 / m], np.linspace(1.05, 30.0, 997)])
    got = rescaled_density_estimate(params, grid)
    assert isinstance(got, np.ndarray) and got.shape == grid.shape
    assert got.tolist() == _rescaled_density_loop(params, grid.tolist())
    square = rescaled_density_estimate(params, grid[:4].reshape(2, 2))
    assert square.shape == (2, 2) and square.ravel().tolist() == got[:4].tolist()
    scalar = rescaled_density_estimate(params, float(grid[3]))
    assert type(scalar) is float and scalar == got[3]
    assert got[0] == 0.0
    with pytest.raises(DomainError, match="-1.0"):
        rescaled_density_estimate(params, np.array([1.0, -1.0]))
    for x in (math.nan, math.inf, 1e30):
        with pytest.raises(DomainError):
            rescaled_density_estimate(params, x)


def test_integer_arguments_take_numpy_integers_only():
    # Checked by operator.index: a bool or an integral float is refused,
    # a numpy integer is taken as the int it holds.
    params = DiscretizationParams(0.3, 10)
    calls = {
        "m": lambda value: DiscretizationParams(0.3, value).m,
        "m_start": lambda value: cascade_log_pmf(params, value, 12),
        "n_max": lambda value: len(cascade_pmf_table(params, n_max=value)),
    }
    for name, call in calls.items():
        for bad in (True, 2.0):
            with pytest.raises(DomainError, match=f"{name} must be an integer"):
                call(bad)
        assert call(np.int64(10)) == call(10)


def test_cascade_pmf_type_validation():
    with pytest.raises(DomainError):
        CascadePmf(probabilities=np.array([0.5, -0.1]), tail_bound=0.0)
    with pytest.raises(DomainError):
        CascadePmf(probabilities=np.array([0.9]), tail_bound=-1.0)


# ---------------------------------------------------------------- moments


def test_discrete_moments_per_atom_and_total():
    # One atom's cascade: delta / (1 - 2p) and 2 delta p^2 / (1 - 2p)^3.
    # The mass-one total, m such cascades, is continuum.moments itself,
    # which moments --m writes (test_cli.py checks that bit for bit).
    per_atom = discrete_moments(DiscretizationParams(0.25, 100))
    assert per_atom.mean == pytest.approx(0.02, rel=1e-15)
    assert per_atom.variance == pytest.approx(0.01, rel=1e-14)
    continuum = moments(ModelParams(0.25))
    assert 100 * per_atom.mean == continuum.mean
    assert 100 * per_atom.variance == continuum.variance


@pytest.mark.parametrize("p,m", [(0.1, 11), (0.3, 10), (0.45, 50)])
def test_discrete_totals_equal_continuum_at_every_delta(p, m):
    # m independent atoms' cascades make the continuum moments at every delta.
    per_atom = discrete_moments(DiscretizationParams(p, m))
    continuum = moments(ModelParams(p))
    assert m * per_atom.mean == pytest.approx(continuum.mean, rel=1e-15)
    assert m * per_atom.variance == pytest.approx(continuum.variance, rel=1e-15)


def test_discrete_moments_reject_critical():
    with pytest.raises(CriticalityError):
        discrete_moments(DiscretizationParams(0.5, 10))
    with pytest.raises(CriticalityError):
        discrete_moments(DiscretizationParams(0.6, 10))


def test_discrete_moments_small_p():
    per_atom = discrete_moments(DiscretizationParams(0.01, 1000))
    assert 1000 * per_atom.mean == pytest.approx(1.0, abs=0.03)


# ---------------------------------------------------------- martingale root


def test_martingale_alpha_oracle():
    got = martingale_alpha(DiscretizationParams(0.6, 10))
    assert got == pytest.approx(ALPHA_06_M10, rel=1e-12)


def test_martingale_alpha_solves_fixed_point():
    params = DiscretizationParams(0.75, 50)
    alpha = martingale_alpha(params)
    assert 0.0 < alpha < 1.0
    rhs = ((1.0 - params.q_star) / (1.0 - params.q_star * alpha)) ** params.r_star
    assert rhs == pytest.approx(alpha, rel=1e-11)


def test_martingale_gap_converges_to_decay_gap():
    gap = extinction(ModelParams(0.6)).decay_gap
    errors = []
    for m in (100, 1000, 10_000):
        params = DiscretizationParams(0.6, m)
        alpha = martingale_alpha(params)
        errors.append(abs((1.0 - alpha) * m - gap))
    assert errors[0] > errors[1] > errors[2]
    assert errors[-1] <= 1e-2


def _mp_martingale_alpha(p: float, m: int) -> float:
    """Root of r*(log(1 - q*) - log(1 - q* alpha)) = log alpha by 50-digit bisection."""
    import mpmath

    with mpmath.workdps(50):
        p_, delta = mpmath.mpf(p), mpmath.mpf(1) / m
        r, q = 2 * delta * p_ / (p_ - delta), (p_ - delta) / p_

        def gap(alpha):
            return r * (mpmath.log(1 - q) - mpmath.log(1 - q * alpha)) - mpmath.log(alpha)

        lo, hi = mpmath.mpf("1e-30"), 1 - mpmath.mpf("1e-45")  # gap(lo) > 0 > gap(hi)
        for _ in range(200):
            mid = (lo + hi) / 2
            if gap(mid) > 0:
                lo = mid
            else:
                hi = mid
        return float(lo)


@pytest.mark.parametrize("m", [10, 1000])
@pytest.mark.parametrize("k", range(1, 10))
def test_martingale_alpha_near_criticality(k, m):
    # At p = 1/2 + 1e-7, m = 1000 the root sits 8e-10 below one, which a
    # bracket on alpha ending at 1 - 1e-6 delta used to cut off.  The
    # solve runs to the last bit; the largest error seen is 1.1e-16.
    p = 0.5 + 10.0**-k
    alpha = martingale_alpha(DiscretizationParams(p, m))
    assert 0.0 < alpha < 1.0
    assert abs(alpha - _mp_martingale_alpha(p, m)) <= 1e-13


@pytest.mark.parametrize("m", [1, 2, 10])
@pytest.mark.parametrize("k", range(1, 16))
def test_martingale_alpha_just_above_one_half_and_delta(k, m):
    # p = max(1/2, delta) + 10^-k.  r* odds is 2p; formed as a product
    # its rounding outweighed 2p - 1 = 2e-14 at m = 2, where the gap at
    # t = -1e-300 lost its sign and the solve found no root.  The largest
    # error seen is 4.3e-16.
    p = max(0.5, 1.0 / m) + 10.0**-k
    alpha = martingale_alpha(DiscretizationParams(p, m))
    expected = _mp_martingale_alpha(p, m)
    assert 0.0 < alpha < 1.0
    assert abs(alpha - expected) <= 1e-15 * expected


@pytest.mark.parametrize("p", [1e5, 1e8])
def test_martingale_alpha_far_above_criticality(p):
    # alpha is 1e-10 at p = 1e5 and 1e-16 at p = 1e8 (m = 1): tiny roots
    # keep their relative precision.
    alpha = martingale_alpha(DiscretizationParams(p, 1))
    expected = _mp_martingale_alpha(p, 1)
    assert abs(alpha - expected) <= 1e-12 * expected


def test_martingale_subcritical_has_only_trivial_root():
    assert martingale_alpha(DiscretizationParams(0.3, 10)) == 1.0
    assert martingale_alpha(DiscretizationParams(0.5, 10)) == 1.0
