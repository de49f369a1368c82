"""The package's records: construction, immutability, equality, hash, repr.

Every record of the package derives from cascade_gamma._record.Record
and behaves as a frozen dataclass of its fields would: positional and
keyword construction, AttributeError on assigning or deleting a field,
equality and hash over its fields in order (SimSummary is equal only
to itself) and the repr
Name(field=value, ...).  The expected reprs were frozen from the
dataclass versions, less the fields that held a value another field,
the caller or a constant already holds.
"""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from cascade_gamma.cli import _Option
from cascade_gamma.continuum import (
    DensityTable,
    ExtinctionReport,
    ModelParams,
    Moments,
    NormalizationCheck,
)
from cascade_gamma.discrete import CascadePmf, DiscretizationParams
from cascade_gamma.numerics import Interval, QuadratureResult
from cascade_gamma.simulate import HIST_BINS, SimConfig, SimSummary

_QUADRATURE = QuadratureResult(0.5, 1e-12, 15)
_COUNTS = np.zeros(HIST_BINS, np.int64)
_COUNTS[0] = 2
_X, _G, _ASYMPTOTE = np.array([1.0, 2.0]), np.array([0.0, 0.25]), np.array([0.5, 0.125])
_PMF = np.array([0.5, 0.25])

# (class, positional arguments, the same as keywords, repr).
RECORDS = [
    (_Option, ("--out", str, "-", False, "output path"),
     dict(flag="--out", convert=str, default="-", required=False, help="output path"),
     "_Option(flag='--out', convert=<class 'str'>, default='-', required=False, "
     "help='output path')"),
    (ModelParams, (0.3,), dict(p=0.3), "ModelParams(p=0.3)"),
    (Moments, (2.0, 1.0), dict(mean=2.0, variance=1.0), "Moments(mean=2.0, variance=1.0)"),
    (ExtinctionReport, (0.5,), dict(decay_gap=0.5), "ExtinctionReport(decay_gap=0.5)"),
    (NormalizationCheck, (80.0, _QUADRATURE), dict(x_max=80.0, quadrature=_QUADRATURE),
     "NormalizationCheck(x_max=80.0, quadrature=QuadratureResult(value=0.5, "
     "abs_error_estimate=1e-12, evaluations=15))"),
    (DensityTable, (_X, _G, _ASYMPTOTE), dict(x=_X, density=_G, asymptotic=_ASYMPTOTE),
     "DensityTable(x=array([1., 2.]), density=array([0.  , 0.25]), "
     "asymptotic=array([0.5  , 0.125]))"),
    (Interval, (1, 3), dict(lo=1, hi=3), "Interval(lo=1.0, hi=3.0)"),
    (QuadratureResult, (0.5, 1e-12, 15), dict(value=0.5, abs_error_estimate=1e-12, evaluations=15),
     "QuadratureResult(value=0.5, abs_error_estimate=1e-12, evaluations=15)"),
    (DiscretizationParams, (0.5, 10), dict(p=0.5, m=10),
     "DiscretizationParams(p=0.5, m=10, delta=0.1, r_star=0.25, q_star=0.8)"),
    (CascadePmf, (_PMF, 0.0), dict(probabilities=_PMF, tail_bound=0.0),
     "CascadePmf(probabilities=array([0.5 , 0.25]), tail_bound=0.0)"),
    (SimConfig, ("discrete", 0.3, 100, 7, 10, 1e3, 2),
     dict(mode="discrete", p=0.3, trials=100, seed=7, m=10, cap=1e3, workers=2),
     "SimConfig(mode='discrete', p=0.3, trials=100, seed=7, m=10, cap=1000.0, workers=2)"),
    (SimSummary, (2, 1, Fraction(5, 2), Fraction(13, 4), _COUNTS),
     dict(n_finite=2, n_censored=1, sum_z=Fraction(5, 2), sum_z_sq=Fraction(13, 4),
          bin_counts=_COUNTS),
     "SimSummary(n_finite=2, n_censored=1, sum_z=Fraction(5, 2), sum_z_sq=Fraction(13, 4), "
     f"bin_counts={_COUNTS!r})"),
]


@pytest.mark.parametrize("cls, args, kwargs, expected", RECORDS,
                         ids=[case[0].__name__ for case in RECORDS])
def test_record_semantics(cls, args, kwargs, expected):
    positional, keyword = cls(*args), cls(**kwargs)
    assert repr(positional) == repr(keyword) == expected
    field = next(iter(kwargs))
    for change in (lambda r: setattr(r, field, None), lambda r: delattr(r, field),
                   lambda r: setattr(r, "no_such_field", None)):
        with pytest.raises(AttributeError):
            change(positional)
    assert repr(positional) == expected
    # A copy, or a pickled one, is rebuilt from the stored fields.
    for twin in (copy.copy(positional), pickle.loads(pickle.dumps(positional))):
        assert type(twin) is cls and repr(twin) == expected
    if cls is SimSummary:
        assert positional == positional and positional != keyword
        assert hash(positional) != hash(keyword)
    elif cls not in (DensityTable, CascadePmf):  # array fields: no truth value, no hash
        assert positional == keyword and hash(positional) == hash(keyword)
        assert positional != expected


def test_sim_config_equality_covers_every_field_and_epsilon_is_no_field():
    one = SimConfig("discrete", 0.3, 100, 7, m=10, workers=1)
    assert one == SimConfig("discrete", 0.3, 100, 7, m=10) and hash(one) == hash(
        SimConfig("discrete", 0.3, 100, 7, m=10))
    assert one != SimConfig("discrete", 0.3, 100, 7, m=10, workers=2)
    assert one != SimConfig("discrete", 0.3, 100, 8, m=10, workers=1)
    assert SimConfig.epsilon == 1e-9 and "epsilon" not in repr(one)
    with pytest.raises(AttributeError):
        one.epsilon = 0.0


def test_discretization_params_compares_its_derived_fields():
    assert DiscretizationParams(0.3, 10) == DiscretizationParams(0.3, 10)
    assert DiscretizationParams(0.3, 10) != DiscretizationParams(0.3, 20)
    assert hash(DiscretizationParams(0.3, 10)) == hash(DiscretizationParams(p=0.3, m=10))
