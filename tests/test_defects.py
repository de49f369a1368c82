"""The measured defects of the program, one strict xfail test per defect.

Each test asserts the right answer at a stated bound, against mpmath
in the test or a frozen value, and fails today for the reason its
marker gives.  A change that fixes a defect makes its test pass, which
strict mode reports as a failure: that change removes the marker, so
the test then guards the fix.  A marker goes only on a new test of a
measured defect, never on a test that passes.
"""

import json

import numpy as np
import pytest

from cascade_gamma import DiscretizationParams, ModelParams, cascade_log_pmf, extinction_gap_root
from cascade_gamma.cli import main
from test_continuum import _mp_decay_gap
from test_discrete import _mp_log_pmf

# alpha^10 at p = 1e14, m = 10: the martingale root of the lattice
# process (test_discrete's fixed point) by 300-step bisection at 60
# digits, agreeing with 80 digits.
ALPHA_POWER_1E14_M10 = 1.00200340552876079243548388227e-30


@pytest.mark.xfail(strict=True, reason="pmf --p 1e14 --m 10 exits 0 with a mass 21% short of "
                   "alpha^10 and tail bound 0: the alpha^m check's tolerance is absolute")
def test_pmf_at_huge_p_meets_alpha_power_or_refuses(capsys):
    code = main(["pmf", "--p", "1e14", "--m", "10", "--format", "json"])
    out = capsys.readouterr().out
    if code != 3:
        assert code == 0
        mass = json.loads(out)["cumulative_mass"]
        assert abs(mass / ALPHA_POWER_1E14_M10 - 1.0) <= 1e-12, mass


@pytest.mark.xfail(strict=True, reason="cascade_log_pmf loses digits as m grows: 1.45e-3 of "
                   "max(1, |ln P|) at p = 0.3, m = 2^52")
def test_cascade_log_pmf_at_huge_m_against_mpmath():
    p, m = 0.3, 2**52
    n = m + np.arange(1, 10)
    got = cascade_log_pmf(DiscretizationParams(p, m), m, n)
    expected = [_mp_log_pmf(p, m, count) for count in n.tolist()]
    errors = [abs(a - b) / max(1.0, abs(b)) for a, b in zip(got.tolist(), expected)]
    assert max(errors) <= 1e-12, errors


@pytest.mark.xfail(strict=True, reason="extinction_gap_root bisects a balance that is flat in "
                   "floats near p = 1/2: 2.2e-9 relative at p = 1/2 + 1e-8")
def test_extinction_gap_root_near_criticality_against_mpmath():
    errors = {}
    for k in range(3, 13):
        p = 0.5 + 10.0**-k
        expected = _mp_decay_gap(p)
        errors[k] = float(abs(extinction_gap_root(ModelParams(p)) - expected) / expected)
    assert max(errors.values()) <= 1e-14, errors


@pytest.mark.xfail(strict=True, reason="moments --p 0.6 exits 2: the moments of the finite "
                   "cascades above criticality are not implemented")
def test_moments_above_criticality(capsys):
    code = main(["moments", "--p", "0.6"])
    assert code == 0, capsys.readouterr().err
