"""floattext.lines against Python's own formatting, element by element.

The reference for style "csv" is '%.17g' % v for floats and str(v) for
integers; for style "json" it is what json.dumps writes: repr(v) for
finite floats and integers, 'Infinity', '-Infinity' and 'NaN' else.
"""

import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_gamma import ModelParams, density_table, floattext


def _written(values, style: str) -> list[str]:
    # One column, each cell ended by a newline, which no cell holds.
    return "".join(floattext.lines([np.asarray(values)], style, ["\n"])).split("\n")


def _expected(values, style: str) -> list[str]:
    items = np.asarray(values).tolist()
    if style == "csv":
        return ["%.17g" % v if isinstance(v, float) else str(v) for v in items]
    # The C encoder's spelling of each item, in one call.
    return json.dumps(items, separators=("\n", ":"))[1:-1].split("\n")


def _assert_same(values, style: str) -> None:
    got, want = _written(values, style), _expected(values, style)
    assert len(got) == len(want)
    if got != want:
        i = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
        pytest.fail(f"{style}: element {i} ({np.asarray(values)[i]!r}) written {got[i]!r}, "
                    f"expected {want[i]!r}")


def _fallbacks(values, style: str) -> int:
    """Elements of values that lines() hands to Python's formatter."""
    with mock.patch.object(floattext, "_python_cells", wraps=floattext._python_cells) as spy:
        _written(values, style)
    return sum(len(call.args[0]) for call in spy.call_args_list)


STYLES = ("csv", "json")


@pytest.mark.parametrize("style", STYLES)
def test_random_bit_patterns(style):
    # Every exponent, sign and mantissa, subnormals, infinities and nans.
    rng = np.random.default_rng(20)
    values = rng.integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False).view(np.float64)
    _assert_same(values, style)


def test_json_spelling_is_repr_for_finite_floats():
    rng = np.random.default_rng(21)
    values = rng.integers(0, 2**64, 10**5, dtype=np.uint64, endpoint=False).view(np.float64)
    finite = values[np.isfinite(values)]
    assert _written(finite, "json") == [repr(v) for v in finite.tolist()]


@pytest.mark.parametrize("style", STYLES)
@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=50))
def test_hypothesis_floats(style, values):
    _assert_same(np.array(values, dtype=np.float64), style)


def _named_floats() -> np.ndarray:
    smallest = 5e-324
    subnormals = [smallest * n for n in (1, 2, 3, 7, 1000, 2**51, 2**52 - 1)]
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 2.0**53 - 1, 2.0**53, 2.0**53 + 2,
                1.7976931348623157e308, 2.2250738585072014e-308, 2.225073858507201e-308,
                0.1, 0.2, 0.3, 1 / 3, 2 / 3, 1e15, 1e16, 1e17, 1e22, 1e23, 9.999999999999999e22,
                9.9999999999999997e-29, 123456789012345678.0]
    powers = [float(f"1e{e}") for e in range(-323, 309)] + [2.0**e for e in range(-1074, 1024)]
    values = np.array(subnormals + specials + powers)
    with np.errstate(over="ignore"):
        neighbours = [np.nextafter(values, 0), np.nextafter(values, np.inf)]
    return np.concatenate([values, -values, *neighbours])


@pytest.mark.parametrize("style", STYLES)
def test_named_values(style):
    _assert_same(_named_floats(), style)


@pytest.mark.parametrize("style", STYLES)
def test_the_grids_density_writes(style):
    for p, x_max, steps in [(0.3, 20.0, 200), (0.05, 1e6, 5000), (1.7, 437.5, 1234)]:
        table = density_table(ModelParams(p), 1.0, x_max, steps)
        for column in (table.x, table.density, table.asymptotic):
            _assert_same(column, style)


@pytest.mark.parametrize("style", STYLES)
def test_integers(style):
    rng = np.random.default_rng(22)
    values = np.concatenate([
        np.arange(-1000, 1001), [2**53 - 1, 2**53, 2**53 + 1, 10**17 - 1, 10**17, -(10**17) + 1,
                                 2**63 - 1, -(2**63)],
        rng.integers(0, 2**53, 10**4, endpoint=True),
        rng.integers(-(2**63), 2**63 - 1, 10**4),
    ]).astype(np.int64)
    _assert_same(values, style)


def _ties(count: int) -> np.ndarray:
    """Floats whose '%.17g' rounding is an exact tie, found by search.

    A tie is a float x = M·2^-b with x·10^(16−k) an odd multiple of 1/2,
    k = ⌊log10 x⌋; that needs few fraction bits, so try M·2^-b for small b.
    """
    rng = np.random.default_rng(23)
    found = []
    while len(found) < count:
        b = int(rng.integers(1, 30))
        x = float(int(rng.integers(2**40, 2**53)) * 2.0**-b)
        k = math.floor(math.log10(x))
        scaled = Fraction(x) * Fraction(10) ** (16 - k)
        if not 10**16 <= scaled < 10**17:
            continue
        if scaled.denominator == 2:
            found.append(x)
    return np.array(found)


@pytest.mark.parametrize("style", STYLES)
def test_exact_ties_go_to_python(style):
    ties = _ties(200)
    _assert_same(ties, style)
    _assert_same(-ties, style)
    if style == "csv":
        # Round half even needs the exact fraction, which the fast path
        # does not certify.
        assert _fallbacks(ties, style) == len(ties)


@pytest.mark.parametrize("style", STYLES)
def test_the_fast_path_stays_the_path(style):
    rng = np.random.default_rng(24)
    values = np.exp(rng.uniform(math.log(5e-324), math.log(1e300), 10**5))
    # About one in sixty, those above 1e290, go to Python by design; exact
    # ties and decisions within 1e-9 of a boundary are all else that does.
    inside = values <= 1e290
    # From 1e13 to 1e25 x·10^(16−k) and the bounds of its rounding
    # interval are sums of few binary or decimal places, so ties and
    # bounds that fall on an integer are common there.  csv meets the
    # bound with its 76 such values of the 1,997; json, whose repr bounds
    # on an integer go to Python unsettled, sends 349, so json is held to
    # it outside that band only.
    usual = inside if style == "csv" else inside & ((values < 1e13) | (values > 1e25))
    assert _fallbacks(values[usual], style) < 1e-3 * usual.sum()
    assert _fallbacks(values[~inside], style) == (~inside).sum()
    _assert_same(values, style)


@pytest.mark.parametrize("style", STYLES)
def test_the_range_of_the_fast_path(style):
    # Negative, non-finite floats and those above 1e290 go to Python;
    # +0.0, positive subnormals and everything else stay on the fast path.
    outside = np.array([math.inf, -math.inf, math.nan, np.nextafter(1e290, np.inf), 1e300,
                        -1e300, 1.7976931348623157e308, -0.0, -5e-324, -1e-290, -1e290])
    inside = np.array([0.0, 5e-324, 1e-310, 2.0**-1022, 1e-291,
                       np.nextafter(1e-290, 0), 1e-290, 1e290, 1.5, 1.7e-12])
    assert _fallbacks(outside, style) == len(outside)
    assert _fallbacks(inside, style) == 0
    _assert_same(np.concatenate([outside, inside]), style)


@pytest.mark.parametrize("style", STYLES)
def test_the_range_of_the_integer_fast_path(style):
    outside = np.array([-1, -(10**17) + 1, 10**17, 2**63 - 1, -(2**63)])
    inside = np.array([0, 1, 9, 10, 2**53 + 1, 10**17 - 1])
    assert _fallbacks(outside, style) == len(outside)
    assert _fallbacks(inside, style) == 0
    _assert_same(np.concatenate([outside, inside]), style)


# Below 1e-290 a float is scaled by 2^256 before its power of ten; a
# subnormal's repr interval can be 10^16 units of the 17th digit wide.


@pytest.mark.parametrize("style", STYLES)
def test_random_subnormals(style):
    rng = np.random.default_rng(25)
    values = rng.integers(1, 2**52, 10**5, dtype=np.uint64).view(np.float64)
    _assert_same(np.concatenate([values, -values]), style)
    # The negative half goes to Python, as every negative value does.
    assert _fallbacks(values, style) == 0


@pytest.mark.parametrize("style", STYLES)
def test_subnormal_edges(style):
    powers = 2.0 ** np.arange(-1074, -1021)  # 5e-324 up to 2^-1022
    few_bits = np.arange(1, 2**12, dtype=np.uint64).view(np.float64)  # the widest intervals
    least_normal = 2.0**-1022
    values = np.concatenate([powers, few_bits, np.nextafter(powers, 0)[1:],
                             np.nextafter(powers, 1),
                             [5e-324, np.nextafter(least_normal, 0), least_normal,
                              np.nextafter(least_normal, 1)]])
    _assert_same(np.concatenate([values, -values]), style)
    assert _fallbacks(values, style) == 0


@pytest.mark.parametrize("style", STYLES)
def test_both_sides_of_the_scaling_boundary(style):
    rng = np.random.default_rng(26)
    boundary = floattext._LEAST
    steps = np.arange(-500, 501)
    neighbours = boundary + steps * np.spacing(boundary)
    around = np.exp(rng.uniform(math.log(boundary / 1e3), math.log(boundary * 1e3), 10**4))
    values = np.concatenate([neighbours, around])
    assert (values < boundary).any() and (values >= boundary).any()
    _assert_same(np.concatenate([values, -values]), style)
    assert _fallbacks(values, style) < 1e-3 * len(values)
