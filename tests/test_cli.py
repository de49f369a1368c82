"""End-to-end tests of the command line front end.

Each test drives cli.main() in-process and inspects the exit code and
emitted text; file outputs go to pytest tmp_path.  A few tests run the
CLI as a process, to see the stderr a user sees.
"""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cascade_gamma import (
    DiscretizationParams,
    ModelParams,
    NoSignChangeError,
    ToleranceError,
    cascade_pmf_table,
    density,
    extinction,
)
from cascade_gamma import cli, continuum, discrete, floattext, simulate
from cascade_gamma.cli import _build_parser, _csv_text, _json_text, main

DECAY_GAP_06 = 0.7083985245782692


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    comments, header, rows, trailer = [], None, [], []
    for line in text.splitlines():
        if line.startswith("#"):
            (trailer if header is not None else comments).append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows, trailer


# ----------------------------------------------------------------- density


def test_density_csv_stdout(capsys):
    code, out, err = run_cli(
        capsys, "density", "--p", "0.4", "--x-min", "1", "--x-max", "10", "--steps", "10"
    )
    assert code == 0
    comments, header, rows, trailer = parse_csv(out)
    assert header == ["x", "density", "asymptotic"]
    assert len(rows) == 10
    assert any("p = 0.4" in line for line in comments)
    assert float(rows[0][0]) == 1.0
    assert float(rows[0][1]) == 0.0
    params = ModelParams(0.4)
    for row in rows[1:]:
        x = float(row[0])
        assert float(row[1]) == density(params, x)  # 17 digits round-trip exactly


def test_density_json(capsys):
    code, out, _ = run_cli(
        capsys, "density", "--p", "0.3", "--x-max", "5", "--steps", "9",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == 0.3
    assert len(payload["x"]) == len(payload["density"]) == 9
    assert payload["density"][0] == 0.0


def test_density_out_file_uses_lf(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "density", "--p", "0.4", "--out", str(target))
    assert code == 0
    assert out == ""
    blob = target.read_bytes()
    assert b"\r" not in blob
    assert blob.decode("utf-8").splitlines()[0].startswith("#")


def test_density_rejects_bad_grid(capsys):
    code, _, err = run_cli(capsys, "density", "--p", "0.4", "--x-min", "0.5")
    assert code == 2
    assert "x_min" in err
    code, _, _ = run_cli(capsys, "density", "--p", "0.4", "--steps", "1")
    assert code == 2
    # Three points on two adjacent doubles: linspace repeats one.
    code, out, err = run_cli(capsys, "density", "--p", "0.3", "--x-min", "1",
                             "--x-max", "1.0000000000000002", "--steps", "3")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert all(name in err for name in ("x_min", "x_max", "steps")), err


# --------------------------------------------------------------------- pmf


def test_pmf_csv(capsys):
    code, out, _ = run_cli(capsys, "pmf", "--p", "0.3", "--m", "10")
    assert code == 0
    comments, header, rows, trailer = parse_csv(out)
    assert header == ["n", "pmf", "rescaled_density"]
    assert any("r-star" in line for line in comments)
    assert rows[0][0] == "10"
    params = DiscretizationParams(0.3, 10)
    boundary = math.exp(10.0 * params.r_star * math.log1p(-params.q_star))
    assert float(rows[0][1]) == pytest.approx(boundary, rel=1e-15)
    assert float(rows[0][2]) == pytest.approx(10.0 * boundary, rel=1e-15)
    assert len(trailer) == 1 and trailer[0].startswith("# cumulative-mass = ")
    mass = float(trailer[0].split("=")[1])
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_pmf_json_subcritical(capsys):
    code, out, _ = run_cli(capsys, "pmf", "--p", "0.3", "--m", "10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n_start"] == 10
    assert payload["truncated"] is False
    assert payload["tail_bound"] <= 1e-10
    assert payload["cumulative_mass"] == pytest.approx(1.0, abs=1e-8)
    assert payload["rescaled_density"][0] == pytest.approx(10 * payload["pmf"][0], rel=1e-15)


def test_pmf_json_supercritical_mass(capsys):
    code, out, _ = run_cli(capsys, "pmf", "--p", "0.6", "--m", "100", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cumulative_mass"] == pytest.approx(0.4932052916366, abs=1e-4)


@pytest.mark.parametrize("p", [0.1 + 1e-12, 0.1 + 1e-11, 0.1 + 1e-13, 0.1 + 1e-14])
def test_pmf_that_misses_alpha_power_is_a_numerical_failure(capsys, p):
    # Rows where the formula cancels (p just above 1/m) once exited 0;
    # their mass misses alpha^m = 1 and one line says so.
    code, out, err = run_cli(capsys, "pmf", "--p", repr(p), "--m", "10")
    assert (code, out) == (3, "")
    [line] = err.splitlines()
    assert line.startswith("cascade-gamma pmf: pmf table misses alpha^10: mass = ")


def test_pmf_whose_logs_pass_the_double_range_writes_one_error_line():
    # Rows above one, with logs up to 2612, past exp's range: numpy once
    # warned of the overflow, and the command exited 2.
    done = cli_process("pmf", "--p", "0.50000000000001", "--m", "2")
    assert (done.returncode, done.stdout) == (3, "")
    [line] = done.stderr.splitlines()
    assert line.startswith("cascade-gamma pmf: pmf table misses alpha^2 <= 1: row n = ")


def test_pmf_just_above_one_half_finds_its_alpha(capsys):
    # The table's check against alpha^2 once failed to solve for alpha
    # here ("no sign change"); the rows themselves pass it.
    code, out, err = run_cli(capsys, "pmf", "--p", "0.50000000000001", "--m", "2", "--n-max", "5")
    assert (code, err) == (0, "")
    _, header, rows, _ = parse_csv(out)
    assert header == ["n", "pmf", "rescaled_density"]
    assert [row[0] for row in rows] == ["2", "3", "4", "5"]


def test_pmf_rejects_coarse_lattice(capsys):
    code, _, err = run_cli(capsys, "pmf", "--p", "0.3", "--m", "3")
    assert code == 2
    assert "delta" in err


def test_pmf_n_max_beyond_the_row_cap_is_a_usage_error(capsys):
    # The cap is checked before any row is computed: a table of 10^12
    # rows would otherwise grow until memory ran out.
    with mock.patch.object(discrete, "cascade_log_pmf", side_effect=AssertionError("rows computed")):
        code, out, err = run_cli(capsys, "pmf", "--p", "0.3", "--m", "10", "--n-max", "1000000000000")
    assert code == 2
    assert out == ""
    assert "cap of 2000000" in err


def test_density_steps_beyond_the_row_cap_is_a_usage_error(capsys):
    # The pmf's row cap, checked before the grid is allocated.
    with mock.patch.object(np, "linspace", side_effect=AssertionError("grid allocated")):
        code, out, err = run_cli(capsys, "density", "--p", "0.3", "--steps", "2000001")
    assert code == 2
    assert out == ""
    assert "cap of 2000000" in err


@pytest.mark.parametrize("p", ["1e16", "1e100", "1.7e308"])
def test_lattice_where_q_star_rounds_to_one_is_a_usage_error(capsys, p):
    # q* = (p - delta)/p is 1 in doubles here, where log1p(-q*) and
    # q*/(1 - q*) have no finite value.
    campaign = ("--trials", "10", "--seed", "1")
    for m in ("1", "7", "1000"):
        for argv in (("pmf",), ("simulate", "--mode", "discrete", *campaign),
                     ("simulate", "--mode", "walk", *campaign)):
            code, out, err = run_cli(capsys, *argv, "--p", p, "--m", m)
            assert (code, out) == (2, ""), (argv, m, err)
            assert "q*" in err, (argv, m, err)


_CAMPAIGN = ("--trials", "10", "--seed", "1")
_MAX_DOUBLE_INT = int(sys.float_info.max)  # 2**1024 - 2**971


# (refused argv, the argv nearest to it that still runs).
@pytest.mark.parametrize("refused, runs", [
    # The last count leaves int64; past m = 2**52 the table's doubles lose
    # the count, so the int64 bound is not the one that binds first.
    (("pmf", "--p", "1e-10", "--m", str(10**20)),
     ("pmf", "--p", "1e-10", "--m", str(2**52), "--n-max", str(2**52 + 9))),
    (("pmf", "--p", "1e-10", "--m", str(2**63 - 10), "--n-max", str(2**63)),
     ("pmf", "--p", "1e-10", "--m", str(2**52), "--n-max", str(2**52 + 9))),
    # A lattice campaign needs max(1, 2p) cap m < 2**62 = 4.61e18.
    (("simulate", "--mode", "discrete", "--p", "1e-10", "--m", str(10**20), *_CAMPAIGN),
     ("simulate", "--mode", "discrete", "--p", "1e-10", "--m", "4611686018427", *_CAMPAIGN)),
    (("simulate", "--mode", "discrete", "--p", "1e-10", "--m", "4611686018428", *_CAMPAIGN),
     ("simulate", "--mode", "discrete", "--p", "1e-10", "--m", "4611686018427", *_CAMPAIGN)),
    (("simulate", "--mode", "discrete", "--p", "0.6", "--m", "10", "--cap", "1e18", *_CAMPAIGN),
     ("simulate", "--mode", "discrete", "--p", "0.6", "--m", "10", "--cap", "3.84e17", *_CAMPAIGN)),
    (("simulate", "--mode", "walk", "--p", "0.6", "--m", "10", "--cap", "3.85e17", *_CAMPAIGN),
     ("simulate", "--mode", "walk", "--p", "0.6", "--m", "10", "--cap", "3.84e17", *_CAMPAIGN)),
    (("simulate", "--mode", "discrete", "--p", "0.3", "--m", "10", "--cap", "1e300", *_CAMPAIGN),
     ("simulate", "--mode", "discrete", "--p", "0.3", "--m", "10", "--cap", "4.6e17", *_CAMPAIGN)),
    # 1/m is no double once m rounds to 2**1024.
    (("moments", "--p", "1e-320", "--m", str(10**309)),
     ("moments", "--p", "1e-300", "--m", str(_MAX_DOUBLE_INT))),
    (("moments", "--p", "1e-300", "--m", str(2**1024 - 2**970)),
     ("moments", "--p", "1e-300", "--m", str(_MAX_DOUBLE_INT))),
], ids=["pmf-m", "pmf-n-max", "simulate-m", "simulate-m-edge", "simulate-cap", "walk-cap-edge",
        "simulate-subcritical-cap", "moments-m", "moments-m-edge"])
def test_counts_past_int64_or_the_sampler_are_usage_errors(capsys, refused, runs):
    code, out, err = run_cli(capsys, *refused)
    assert (code, out) == (2, ""), err
    [line] = err.splitlines()
    assert line.startswith(f"cascade-gamma {refused[0]}: ") and "Traceback" not in err
    code, out, err = run_cli(capsys, *runs)
    assert code == 0 and out, err


# ----------------------------------------------------------------- moments


def test_moments_json(capsys):
    code, out, _ = run_cli(capsys, "moments", "--p", "0.25")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"p": 0.25, "mean": 2.0, "variance": 1.0}


def test_moments_with_lattice_block(capsys):
    code, out, _ = run_cli(capsys, "moments", "--p", "0.25", "--m", "100")
    assert code == 0
    payload = json.loads(out)
    assert payload["per_atom"]["mean"] == pytest.approx(0.02, rel=1e-15)
    assert payload["total"]["mean"] == 2.0
    assert payload["total"]["variance"] == 1.0


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0011, max_value=0.4999))
@example(0.210457)
@example(0.357579)
def test_moments_total_is_the_top_level_moments(p):
    # total is the mass-one start, whose moments are the continuum ones:
    # one result, written twice.  At p = 0.210457 and 0.357579 (m = 1000)
    # two formulas once wrote variances a last bit apart.
    for fmt in ("json", "csv"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["moments", "--p", repr(p), "--m", "1000", "--format", fmt]) == 0
        if fmt == "json":
            payload = json.loads(out.getvalue())
            assert payload["total"] == {"mean": payload["mean"], "variance": payload["variance"]}
        else:
            _, header, [row], _ = parse_csv(out.getvalue())
            cells = dict(zip(header, row))
            assert (cells["total_mean"], cells["total_variance"]) == (cells["mean"], cells["variance"])


def test_moments_csv(capsys):
    code, out, _ = run_cli(capsys, "moments", "--p", "0.25", "--format", "csv")
    assert code == 0
    _, header, rows, _ = parse_csv(out)
    assert header == ["p", "mean", "variance"]
    assert [float(cell) for cell in rows[0]] == [0.25, 2.0, 1.0]


def test_moments_critical_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "moments", "--p", "0.5")
    assert code == 2
    assert "p <" in err or "critical" in err.lower()


# -------------------------------------------------------------- extinction


def test_extinction_critical(capsys):
    code, out, _ = run_cli(capsys, "extinction", "--p", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["prob_finite"] == 1.0
    assert payload["decay_gap"] == 0.0


def test_extinction_supercritical_routes(capsys):
    code, out, _ = run_cli(capsys, "extinction", "--p", "0.6")
    assert code == 0
    payload = json.loads(out)
    assert payload["decay_gap"] == pytest.approx(DECAY_GAP_06, rel=1e-12)
    assert payload["route_gap"] <= 1e-10
    assert payload["prob_finite"] == pytest.approx(math.exp(-DECAY_GAP_06), rel=1e-12)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_extinction_exits_3_when_its_routes_disagree(capsys, monkeypatch, fmt):
    # The gate verify applies: route_gap above 1e-10 is a numerical
    # failure, and the payload that shows it is still written.
    root_route = continuum.extinction_gap_root
    monkeypatch.setattr(continuum, "extinction_gap_root", lambda params: root_route(params) + 2e-10)
    code, out, _ = run_cli(capsys, "extinction", "--p", "0.6", "--format", fmt)
    assert code == 3
    if fmt == "json":
        route_gap = json.loads(out)["route_gap"]
    else:
        _, header, [row], _ = parse_csv(out)
        route_gap = float(row[header.index("route_gap")])
    assert route_gap == pytest.approx(2e-10, rel=1e-5)


# ------------------------------------------------------------------ verify


def test_verify_subcritical_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "0.3")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["lambert_target"] == 1.0
    assert payload["residual_vs_lambert"] <= 1e-6
    assert payload["residual_vs_root"] <= 1e-6
    assert payload["route_gap"] <= 1e-10


def test_verify_supercritical_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "0.6")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["integral"] == pytest.approx(extinction(ModelParams(0.6)).prob_finite, abs=1e-6)


def test_verify_unreachable_tolerance_is_a_numerical_failure(capsys):
    # The quadrature runs at half the tolerance; half of the smallest
    # double, 5e-324, rounds to 0, and that tolerance must still fail as
    # a numerical result, not as a usage error about a value of 0.
    for abs_tol in ("1e-16", "1e-323", "5e-324"):
        code, out, _ = run_cli(capsys, "verify", "--p", "0.3", "--abs-tol", abs_tol)
        assert code == 3
        payload = json.loads(out)
        assert payload["abs_tol"] == float(abs_tol)
        assert payload["passed"] is False
        # the partial integral is still reported for the audit trail
        assert payload["integral"] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("p", ["0.001", "0.0005", "0.0001", "1e-12", "1e-15", "1e-17", "1e-100",
                               "1e-300", "1e-305"])
def test_verify_tiny_p_reports_instead_of_overflowing(capsys, p):
    # The asymptote's constant C = e^{1/p - ...} overflows a float here,
    # and the density is a spike of width ~p just above x = 1, narrower
    # than the spacing of doubles there below p = 1e-16.
    code, out, err = run_cli(capsys, "verify", "--p", p)
    assert code == 0
    assert json.loads(out)["passed"] is True
    assert "Traceback" not in err


@pytest.mark.parametrize("p", ["9.99e-306", "1e-306", "1e-308", "1e-310"])
def test_verify_below_its_smallest_p_is_a_domain_error(capsys, p):
    # The integral was wrong here (0.99998 at 1e-306, 0.0 at 1e-310);
    # extinction and moments still answer.
    code, out, err = run_cli(capsys, "verify", "--p", p)
    assert code == 2 and out == ""
    assert "requires p >= 1e-305" in err
    assert run_cli(capsys, "extinction", "--p", p)[0] == 0
    assert run_cli(capsys, "moments", "--p", p)[0] == 0


def cli_process(*argv):
    """The CLI run as its own process, whose stderr shows what a user sees.

    In-process, pytest would capture numpy's floating-point warnings
    before they reach stderr.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "cascade_gamma", *argv],
                          capture_output=True, text=True, env=env, check=False)


def test_verify_subnormal_p_writes_one_error_line():
    done = cli_process("verify", "--p", "5e-324")
    assert done.returncode == 2
    [line] = done.stderr.splitlines()
    assert line.startswith("cascade-gamma verify: ")


def test_density_up_to_the_largest_double_writes_no_warning():
    # At 4 steps numpy's linspace overflows at its last point, before
    # setting it to x_max itself.
    for steps in ("3", "4"):
        done = cli_process("density", "--p", "0.3", "--x-max", "1.7976931348623157e308",
                           "--steps", steps)
        assert (done.returncode, done.stderr) == (0, ""), steps
        assert done.stdout.splitlines()[-1].startswith("1.7976931348623157e+308,0,0")


def test_density_where_the_asymptote_overflows_writes_one_error_line():
    done = cli_process("density", "--p", "1e-160", "--steps", "3")
    assert done.returncode == 2
    [line] = done.stderr.splitlines()
    assert line.startswith("cascade-gamma density: the asymptote exceeds the largest double")


def test_density_at_a_subnormal_p_writes_one_error_line(capsys):
    # The decay rate is inf there; at x = 1 its term is 0, not inf * 0,
    # so the asymptote overflows and says so, with no numpy warning.
    code, out, err = run_cli(capsys, "density", "--p", "2e-317", "--x-min", "1", "--x-max", "3",
                             "--steps", "5")
    assert (code, out) == (2, "")
    assert err == ("cascade-gamma density: the asymptote exceeds the largest double at x = 1.0 "
                   "for p = 2e-317\n")


@pytest.mark.parametrize("p,codes", [("1e160", {0}), ("1e300", {0}), ("1e308", {0}),
                                     ("1.7e308", {0}), ("1e305", {0}), ("1e306", {0}),
                                     ("1e307", {0}), ("2e307", {0})])
def test_huge_p_is_not_a_usage_error(capsys, p, codes):
    # exp(-decay_gap) underflows to 0 above p = 1e153, p x overflows in
    # the root route above about 4e304 and 4p in the decay rate above
    # about 4.5e307; none of them makes a valid p fail.
    for command, key in (("extinction", "prob_finite"), ("verify", "lambert_target")):
        code, out, err = run_cli(capsys, command, "--p", p)
        assert code in codes, (command, err)
        assert json.loads(out)[key] == 0.0


@pytest.mark.parametrize("p", ["0.5000000000001", "0.500000000000001", "0.5000000000000001"])
def test_root_route_just_above_criticality(capsys, p, tmp_path):
    # The decay gap is about 8e-13, 8e-15 and 9e-16 here, below the low
    # end of a bracket that once started at 1e-12.
    code, out, err = run_cli(capsys, "extinction", "--p", p)
    assert code == 0, err
    assert json.loads(out)["decay_gap_fixed_point"] > 0.0
    target = tmp_path / "verify.json"
    code, _, err = run_cli(capsys, "verify", "--p", p, "--out", str(target))
    assert code == 0, err
    assert json.loads(target.read_text())["passed"] is True


# Any positive double: hypothesis's own draws, which favour the ends of
# the range, and a log-uniform spread over every magnitude in it.
_POSITIVE = st.one_of(st.floats(min_value=5e-324, max_value=sys.float_info.max),
                      st.floats(min_value=-323.3, max_value=308.25).map(lambda e: 10.0**e))


@st.composite
def _p_and_m(draw):
    """An atom count up to 2**63, and p over every double, near 1/2 or just above 1/m."""
    m = draw(st.one_of(st.integers(1, 1000), st.integers(1, 2**63)))
    p = draw(st.one_of(
        _POSITIVE,
        st.builds(lambda k, sign: 0.5 + sign * 10.0**-k, st.integers(1, 16), st.sampled_from([1, -1])),
        st.integers(1, 16).map(lambda k: (1.0 / m) * (1.0 + 10.0**-k)),
    ))
    return p, m


_TABLE_COLUMNS = {"density": ("x", "density", "asymptotic"), "pmf": ("pmf", "rescaled_density")}


@settings(max_examples=40, deadline=None)
@given(p_and_m=_p_and_m(), x_bounds=st.tuples(_POSITIVE, _POSITIVE), abs_tol=_POSITIVE,
       cap=_POSITIVE, steps=st.integers(1, 50), rows=st.integers(1, 50),
       trials=st.integers(1, 20), mode=st.sampled_from(["continuous", "discrete", "walk"]))
def test_every_command_ends_in_a_verdict(p_and_m, x_bounds, abs_tol, cap, steps, rows, trials,
                                         mode):
    # Any finite p > 0, with every other option over its whole range,
    # ends in success (0), a usage or domain error (2) or a numerical
    # failure (3); nothing escapes main(), and the suite turns a numpy
    # warning into an error.  A failure is one stderr line, except that
    # verify and extinction write their payload when they exit 3.  A
    # table that succeeds parses in either format and has every row it
    # asked for, whatever zeros or subnormals its columns hold.
    p, m = p_and_m
    m_option = [] if mode == "continuous" else ["--m", str(m)]
    commands = [
        (["verify", "--abs-tol", repr(abs_tol)], None),
        (["extinction"], None),
        (["moments"], None),
        (["moments", "--m", str(m)], None),
        (["simulate", "--mode", mode, *m_option, "--trials", str(trials), "--seed", "1",
          "--cap", repr(cap)], None),
    ]
    x_min, x_max = sorted(x_bounds)
    for fmt in ("csv", "json"):
        commands.append((["density", "--x-min", repr(x_min), "--x-max", repr(x_max),
                          "--steps", str(steps), "--format", fmt], steps))
        commands.append((["pmf", "--m", str(m), "--n-max", str(m + rows - 1), "--format", fmt],
                         rows))
    for command, count in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command, "--p", repr(p)])
        assert code in (0, 2, 3), (command, p)
        if code == 3 and command[0] in ("verify", "extinction"):
            assert json.loads(out.getvalue())["p"] == p, (command, p)
        elif code != 0:
            assert len(err.getvalue().splitlines()) == 1, (command, p, err.getvalue())
        if code != 0 or count is None:
            continue
        if command[-1] == "csv":
            _, header, cells, _ = parse_csv(out.getvalue())
            assert len(cells) == count, (command, p)
            assert all(len(row) == len(header) for row in cells)
            assert all(math.isfinite(float(cell)) for row in cells for cell in row)
        else:
            payload = json.loads(out.getvalue())
            for column in _TABLE_COLUMNS[command[0]]:
                assert len(payload[column]) == count, (command, column, p)


# ------------------------------------------------------------ table writer
#
# The writers format blocks of rows through floattext.lines; the JSON one
# writes each run of scalar items with json's C encoder and recurses into
# dicts.  The reference below writes cell by cell: csv.writer over
# format(v, ".17g") cells, and json.dumps(indent=2) over Python lists.


def _reference_csv(comments, header, rows, trailer=()):
    buffer = io.StringIO()
    for line in comments:
        buffer.write(f"# {line}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    for line in trailer:
        buffer.write(f"# {line}\n")
    return buffer.getvalue()


def _reference_cell(value) -> str:
    return format(float(value), ".17g")


def _reference_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


_EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300,
                1.7976931348623157e308, math.inf, math.nan]
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
_KEYS = st.text(alphabet="abxyz_", min_size=1, max_size=6)
# The writer's block size and tiny ones, so that short (cheap) tables
# also cross block edges; the bytes must not depend on it.
_BLOCKS = st.sampled_from([floattext._BLOCK_ROWS, 1, 2, 3])


def _column(pool, rows, dtype):
    """rows values cycled from pool, as a numpy column."""
    return np.resize(np.array(pool, dtype=dtype), rows)


def _assert_same_text(got: str, want: str) -> None:
    # Reports the first differing line: pytest's own diff of two tables
    # of thousands of rows would take minutes.
    if got != want:
        got_lines, want_lines = got.split("\n"), want.split("\n")
        pairs = zip(got_lines, want_lines)
        line = next((i for i, (g, w) in enumerate(pairs) if g != w), None)
        if line is None:
            pytest.fail(f"{len(got_lines)} lines written, {len(want_lines)} expected")
        pytest.fail(f"line {line}: wrote {got_lines[line]!r}, expected {want_lines[line]!r}")


def _assert_csv_matches(comments, n, a, b, flag=None):
    header, columns = ["n", "a", "b"], [n, a, b]
    cells = [[str(int(k)), _reference_cell(u), _reference_cell(v)]
             for k, u, v in zip(n.tolist(), a.tolist(), b.tolist())]
    if flag is not None:
        header.append("flag")
        columns.append(flag)
        cells = [row + [str(f)] for row, f in zip(cells, flag.tolist())]
    trailer = ["mass = 0.5"]
    got = "".join(_csv_text(comments, header, columns, trailer))
    _assert_same_text(got, _reference_csv(comments, header, cells, trailer))


def _as_lists(payload):
    """payload with each numpy array replaced by the list of its items."""
    return {key: _as_lists(value) if isinstance(value, dict)
            else value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in payload.items()}


def _assert_json_matches(payload):
    got = "".join(_json_text(payload))
    _assert_same_text(got, _reference_json(_as_lists(payload)))


@settings(max_examples=80, deadline=None)
@given(
    block=_BLOCKS,
    rows=st.integers(1, 40),
    counts=st.lists(st.integers(0, 2**53), min_size=1, max_size=20),
    floats=st.lists(_FLOATS, min_size=1, max_size=20),
    flags=st.lists(st.sampled_from([0, 1]), min_size=1, max_size=3),
    comments=st.lists(st.text(alphabet="abc =.-0123456789", max_size=12), max_size=3),
    with_flag=st.booleans(),
)
def test_csv_writer_matches_the_per_cell_writer(block, rows, counts, floats, flags, comments,
                                                with_flag):
    flag = _column(flags, rows, np.int64) if with_flag else None
    with mock.patch.object(floattext, "_BLOCK_ROWS", block):
        _assert_csv_matches(comments, _column(counts, rows, np.int64),
                            _column(floats, rows, np.float64),
                            _column(floats[::-1], rows, np.float64), flag)


def _array(values, dtype, as_list):
    """values as a numpy array of dtype, or as the Python list of its items."""
    array = np.array(values, dtype=dtype)
    return array.tolist() if as_list else array


@settings(max_examples=80, deadline=None)
@given(
    scalars=st.dictionaries(
        _KEYS,
        st.one_of(_FLOATS, st.integers(-(2**53), 2**53), st.booleans(),
                  st.dictionaries(_KEYS, _FLOATS, max_size=2)),
        max_size=5,
    ),
    arrays=st.dictionaries(_KEYS, st.tuples(st.lists(_FLOATS, max_size=30), st.booleans()),
                           max_size=3),
    block=_BLOCKS,
)
def test_json_writer_matches_the_indent_encoder(scalars, arrays, block):
    # Empty arrays included; the random keys put arrays and dicts between
    # scalar items, so that runs of scalars are broken anywhere.
    payload = {**scalars, **{key: _array(values, np.float64, as_list)
                             for key, (values, as_list) in arrays.items()}}
    with mock.patch.object(floattext, "_BLOCK_ROWS", block):
        _assert_json_matches(payload)


@settings(max_examples=80, deadline=None)
@given(
    scalars=st.dictionaries(_KEYS, _FLOATS, max_size=3),
    inner=st.dictionaries(_KEYS, st.one_of(_FLOATS, st.integers(-(2**53), 2**53)), max_size=3),
    counts=st.lists(st.integers(0, 2**53), max_size=30),
    floats=st.lists(_FLOATS, max_size=30),
    as_list=st.booleans(),
    block=_BLOCKS,
)
def test_json_writer_nests_arrays(scalars, inner, counts, floats, as_list, block):
    # Arrays inside objects at depths 1 to 3, as simulate's histogram
    # counts, beside empty objects; the payload handed in is left as it was.
    payload = {**scalars, "top": _array(floats[::-1], np.float64, not as_list), "e": {},
               "h": {**inner, "counts": _array(counts, np.int64, as_list),
                     "deep": {"v": 1, "w": _array(floats, np.float64, as_list), "z": {}}}}
    before = json.dumps(_as_lists(payload), sort_keys=True)
    with mock.patch.object(floattext, "_BLOCK_ROWS", block):
        _assert_json_matches(payload)
    assert json.dumps(_as_lists(payload), sort_keys=True) == before


_FLAT_VALUES = st.one_of(
    _FLOATS, st.sampled_from([-0.0, -5e-324, 1e-310, -math.inf]),
    st.integers(-(2**70), 2**70), st.booleans(), st.none(),
    st.text(max_size=8), st.sampled_from(['say "no"', "two\nlines", "naïve ∑ 😀", "back\\slash"]),
)


@settings(max_examples=200, deadline=None)
@given(payload=st.dictionaries(st.text(max_size=6), _FLAT_VALUES, max_size=8))
def test_flat_json_is_the_indent_encoder(payload):
    # Scalar payloads take the C encoder; the bytes are indent 2's.
    assert "".join(_json_text(payload)) == _reference_json(payload)


def test_no_command_reaches_the_python_json_encoder(capsys):
    # Every indent, and any other call that json's C encoder cannot take,
    # goes through json.encoder._make_iterencode; no command's JSON does.
    with mock.patch.object(json.encoder, "_make_iterencode",
                           side_effect=AssertionError("pure-Python encoder")) as guard:
        with pytest.raises(AssertionError):
            json.dumps({"p": 0.5}, indent=2)
        guard.reset_mock()
        for argv in (("verify", "--p", "0.6"), ("extinction", "--p", "0.7"),
                     ("moments", "--p", "0.25"), ("moments", "--p", "0.25", "--m", "10"),
                     ("density", "--p", "0.3", "--steps", "20", "--format", "json"),
                     ("pmf", "--p", "0.3", "--m", "10", "--format", "json"),
                     ("simulate", "--mode", "discrete", "--p", "0.3", "--m", "10",
                      "--trials", "50", "--seed", "1")):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0, argv
            assert json.loads(out), argv
    assert not guard.called


@pytest.mark.parametrize("rows", [1, 4095, 4096, 4097, 8193])
def test_writer_matches_the_reference_at_block_edges(rows):
    # Real block size.  The named extremes plus random bit patterns, which
    # spread over the whole exponent range; counts run up to 2**53.
    rng = np.random.default_rng(rows)
    bits = rng.integers(0, 2**64, 500, dtype=np.uint64, endpoint=False).view(np.float64)
    floats = np.concatenate([_EDGE_FLOATS, bits])
    counts = np.concatenate([[0, 1, 2**53 - 1, 2**53], rng.integers(0, 2**53, 100)])
    a = _column(floats, rows, np.float64)
    b = np.roll(a, 3)
    _assert_csv_matches(["cascade-gamma pmf"], _column(counts, rows, np.int64), a, b)
    _assert_json_matches({"p": 0.5, "truncated": True, "pmf": a, "rescaled_density": b,
                          "x": a[:0]})


def test_comment_lines_keep_the_form_of_each_type():
    # The right-hand sides are the f-strings each line once had: a bool
    # as str(v).lower(), a str as {v}, anything else as {v!r}.
    truncated, mode, m, steps, p, cap = False, "walk", None, 200, 4.2e134, 1000000.0
    scalars = {"truncated": truncated, "passed": True, "mode": mode, "m": m, "steps": steps,
               "p": p, "cap": cap, "x_max": 20.0, "epsilon": 1e-09, "n_censored": 0}
    assert cli._comments(scalars) == [
        f"truncated = {str(truncated).lower()}", "passed = true", f"mode = {mode}",
        f"m = {m!r}", f"steps = {steps!r}", f"p = {p!r}", f"cap = {cap!r}",
        "x-max = 20.0", "epsilon = 1e-09", "n-censored = 0",
    ]


@pytest.mark.parametrize("argv, comments", [
    (("density", "--p", "0.4", "--steps", "3"),
     ["cascade-gamma density", "p = 0.4", "x-min = 1.0", "x-max = 20.0", "steps = 3"]),
    (("pmf", "--p", "0.6", "--m", "3", "--n-max", "5"),
     ["cascade-gamma pmf", "p = 0.6", "m = 3", "delta = 0.3333333333333333", "r-star = 1.5",
      "q-star = 0.4444444444444445", "tail-bound = 4.539375512583855", "truncated = true",
      "cumulative-mass = 0.1757979956666838"]),
    (("simulate", "--mode", "continuous", "--p", "4.2e134", "--cap", "1.7e308", "--trials", "10",
      "--seed", "1", "--format", "csv"),
     ["cascade-gamma simulate histogram", "mode = continuous", "p = 4.2e+134", "m = None",
      "trials = 10", "seed = 1", "cap = 1.7e+308", "epsilon = 1e-09", "workers = 1",
      "n-finite = 0", "n-censored = 10", "mean = None", "variance = None"]),
])
def test_table_comment_lines_are_pinned(capsys, argv, comments):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("#")] == [
        f"# {line}" for line in comments]


def test_writer_edge_values_by_name():
    # The named extremes in one table, read back exactly.
    values = np.array(_EDGE_FLOATS)
    counts = np.array([0, 1, 2**31, 2**32 + 1, 2**52, 2**53 - 1, 2**53, 7], dtype=np.int64)
    text = "".join(_csv_text([], ["n", "v"], [counts, values]))
    _, _, rows, _ = parse_csv(text)
    assert [int(row[0]) for row in rows] == counts.tolist()
    assert [row[1] for row in rows] == ["0", "-0", "4.9406564584124654e-324",
                                        "2.2250738585072014e-308", "1e-300",
                                        "1.7976931348623157e+308", "inf", "nan"]
    blob = "".join(_json_text({"p": 0.5, "v": values, "w": values[:0]}))
    assert '"w": []' in blob and "Infinity" in blob and "NaN" in blob


# Two jobs whose tails underflow: 2,863 of the pmf's 34,250 probabilities
# are below 1e-290, 1,359 of them subnormal, and 161 of the density's
# 4,141 values are below 1e-290.
_UNDERFLOWING_JOBS = [
    ("pmf", "--p", "0.775841", "--m", "6", "--n-max", "34255"),
    ("density", "--p", "0.381764", "--x-max", "24856.2", "--steps", "4141"),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", _UNDERFLOWING_JOBS, ids=lambda argv: argv[0])
@settings(max_examples=4, deadline=None)
# Blocks of 997 times the drawn size: blocks of 1 to 3 rows would take
# seconds on 34,255 rows, and these still put edges all over the table.
@given(block=_BLOCKS.map(lambda rows: rows * 997))
def test_underflowing_tables_are_written_as_python_writes_them(argv, fmt, block):
    out = io.StringIO()
    with mock.patch.object(floattext, "_BLOCK_ROWS", block), contextlib.redirect_stdout(out):
        assert main([*argv, "--format", fmt]) == 0
    text = out.getvalue()
    if fmt == "csv":
        _, header, rows, _ = parse_csv(text)
        values = [float(cell) for row in rows for cell in row[1:]]
        # '%.17g' reads back exactly, so a cell is Python's iff it is the
        # text of the float it reads as.
        assert all(cell == "%.17g" % float(cell) for row in rows for cell in row[1:])
        if header[0] == "n":
            assert all(row[0] == str(int(row[0])) for row in rows)
        else:
            assert all(row[0] == "%.17g" % float(row[0]) for row in rows)
    else:
        payload = json.loads(text)
        values = [v for key in ("pmf", "density") if key in payload for v in payload[key]]
        _assert_same_text(text, _reference_json(payload))
    assert any(0 < v < 1e-290 for v in values)
    assert any(0 < v < 2.2250738585072014e-308 for v in values)


# ---------------------------------------------------------------- simulate


def test_simulate_json_and_stderr(tmp_path, capsys):
    target = tmp_path / "summary.json"
    code, out, err = run_cli(
        capsys, "simulate", "--mode", "walk", "--p", "0.3", "--m", "10",
        "--trials", "2000", "--seed", "7", "--out", str(target),
    )
    assert code == 0
    assert "cascade-gamma simulate: mean = " in err
    assert "finite fraction = " in err
    payload = json.loads(target.read_text())
    assert payload["trials"] == 2000
    assert payload["n_censored"] == 0
    assert payload["config"]["mode"] == "walk"
    assert payload["mean"] == pytest.approx(2.5, abs=0.2)


def test_simulate_json_is_the_indent_encoder_layout(capsys):
    # The histogram counts are written at their nested key; the bytes are
    # those of one json.dumps(indent=2, sort_keys=True) of the payload.
    code, out, _ = run_cli(capsys, "simulate", "--mode", "discrete", "--p", "0.3", "--m", "10",
                           "--trials", "2000", "--seed", "99")
    assert code == 0
    payload = json.loads(out)
    assert sum(payload["histogram"]["counts"]) > 0
    assert out == _reference_json(payload)


def test_simulate_repeat_is_byte_identical(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for target in (first, second):
        code, _, _ = run_cli(
            capsys, "simulate", "--mode", "discrete", "--p", "0.3", "--m", "10",
            "--trials", "2000", "--seed", "99", "--out", str(target),
        )
        assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_simulate_histogram_csv(tmp_path, capsys):
    hist = tmp_path / "hist.csv"
    code, out, _ = run_cli(
        capsys, "simulate", "--mode", "continuous", "--p", "0.3",
        "--trials", "1000", "--seed", "3", "--format", "csv",
        "--hist-out", str(hist),
    )
    assert code == 0
    comments, header, rows, _ = parse_csv(out)
    assert header == ["bin_lo", "bin_hi", "count"]
    assert len(rows) == 981  # 980 bins plus the overflow row
    assert rows[-1][1] == "inf"
    assert sum(int(row[2]) for row in rows) == 1000
    assert hist.read_text() == out


def test_simulate_at_huge_p_writes_only_its_summary_line():
    # Each draw times p overflows to inf and censors its trial; numpy's
    # overflow warning once came before the summary line.
    done = cli_process("simulate", "--mode", "continuous", "--p", "4.2e134", "--cap", "1.7e308",
                       "--trials", "10", "--seed", "1")
    assert done.returncode == 0
    assert done.stderr == ("cascade-gamma simulate: mean = None +- None, "
                           "finite fraction = 0.0 +- 0.0, censored = 10\n")
    assert json.loads(done.stdout)["n_censored"] == 10


def test_simulate_epsilon_validation(capsys):
    # The continuous stopping threshold is a constant, not an option.
    code, out, err = run_cli(
        capsys, "simulate", "--mode", "continuous", "--p", "0.3",
        "--trials", "10", "--seed", "1", "--epsilon", "1e-9",
    )
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --epsilon" in err


def test_simulate_all_censored_campaign(capsys):
    # p = 5 with cap 1.5 censors all 1000 trials of seed 4 in chunks of
    # 250: four empty chunks merge to zero counts and no mean, and two
    # threads write the bytes of one but for the workers field.
    outs = []
    with mock.patch.object(simulate, "CHUNK_TRIALS", 250):
        for workers in ("1", "2"):
            code, out, _ = run_cli(
                capsys, "simulate", "--mode", "continuous", "--p", "5", "--cap", "1.5",
                "--trials", "1000", "--seed", "4", "--workers", workers,
            )
            assert code == 0
            outs.append(out)
    assert outs[0].replace('"workers": 1', '"workers": 2') == outs[1]
    payload = json.loads(outs[0])
    assert payload["n_finite"] == 0 and payload["n_censored"] == 1000
    assert payload["mean"] is None and payload["variance"] is None
    assert payload["sum_z"] == 0.0 and payload["sum_z_sq"] == 0.0
    assert payload["histogram"]["counts"] == [0] * 980
    assert payload["histogram"]["overflow"] == 0


@pytest.mark.parametrize("error", [ToleranceError, NoSignChangeError])
def test_numerical_failures_exit_3(capsys, error):
    with mock.patch.object(continuum, "moments", side_effect=error("no convergence")):
        code, out, err = run_cli(capsys, "moments", "--p", "0.25")
    assert (code, out, err) == (3, "", "cascade-gamma moments: no convergence\n")


# ----------------------------------------------------------- option plumbing


def test_unknown_command_and_flags(capsys):
    assert run_cli(capsys, "sample")[0] == 2
    assert run_cli(capsys, "density", "--p", "0.4", "--bogus", "1")[0] == 2
    assert run_cli(capsys, "density")[0] == 2  # missing required --p
    # --p comes first in every command's options, so it is reported first.
    code, out, err = run_cli(capsys, "simulate")
    assert (code, out, err) == (2, "", "cascade-gamma simulate: missing required option --p\n")


_DEFAULT_FORMATS = {"density": "csv", "pmf": "csv", "moments": "json", "extinction": "json",
                    "simulate": "json", "verify": "json"}


@pytest.mark.parametrize("command", _DEFAULT_FORMATS)
def test_every_command_has_the_shared_options_and_config_keys_reach_every_dest(tmp_path, command):
    sub = _build_parser()._subparsers._group_actions[0].choices[command]
    table = cli._TABLES[command]
    flags = [action.option_strings[-1] for action in sub._actions][1:]  # -h, --help first
    assert flags == ["--config", *(opt.flag for opt in table.values())]
    assert flags[1] == "--p" and flags[-2:] == ["--format", "--out"]
    assert len(set(flags)) == len(flags)
    assert table["p"].required and table["out"].default == "-"
    assert table["format"].default == _DEFAULT_FORMATS[command]
    # A config file names each option by its flag; the value lands on ns.<dest>.
    texts = {cli._real: "5", cli._integer: "7", str: "h.csv"}
    lines = {opt.flag[2:]: texts.get(opt.convert, opt.convert.__name__.split("|")[0])
             for opt in table.values()}
    config = tmp_path / "every.cfg"
    config.write_text("".join(f"{key} = {value}\n" for key, value in lines.items()))
    ns = cli._parse_direct([command, "--config", str(config)])
    assert vars(ns) == vars(_build_parser().parse_args([command, "--config", str(config)]))
    cli._apply_config(ns, table)
    assert set(vars(ns)) == {"config", "handler", "command", *table}
    for opt in table.values():
        assert getattr(ns, opt.dest) == opt.convert(lines[opt.flag[2:]]), opt.flag


# Argvs for every way the parse can end: a direct parse, a run through
# argparse, usage errors, help, leftovers, abbreviations and "--".
DISPATCH_ARGVS = [
    ("moments", "--p", "0.25"),
    ("moments", "--p=0.25", "--format=csv"),
    ("extinction", "--p", "0.7", "--form=csv"),
    ("verify", "--abs", "1e-7", "--p=0.6"),
    ("density", "--p", "0.3", "--st", "5", "--x-max", "3"),
    ("moments", "--fo", "csv", "--p", "0.25", "--p", "0.3"),
    ("simulate", "--c", "1"),
    ("moments", "--p", "0.25", "--bogus", "1"),
    ("moments", "--p", "0.25", "extra"),
    ("moments", "-x"),
    ("moments", "--p", "abc"),
    ("verify", "--p", "nan"),
    ("moments", "--format", "xml", "--p", "0.25"),
    ("moments", "--p"),
    ("moments",),
    ("moments", "--", "--p", "0.25"),
    ("moments", "--p", "0.25", "--"),
    ("--", "moments", "--p", "0.25"),
    ("-h",),
    ("--help",),
    ("-h", "moments"),
    ("moments", "-h"),
    ("verify", "--p", "0.6", "--help"),
    ("simulate", "-h", "--bogus"),
    (),
    ("sample",),
    ("--p", "0.25"),
    ("-x", "moments"),
    ("Moments", "--p", "0.25"),
    ("verify", "--p", "0.6", "--abs-tol", "1e-7", "--format", "csv"),
    ("moments", "--p", "0.25", "--m", "10", "--format", "csv"),
    ("moments", "--p", "-0.25"),
    ("moments", "--p", "0.25", "--out", "-"),
    ("moments", "--p", "0.25", "--p", "0.3"),
    ("moments", "--p", "0.25", "--m", "1e0"),
    ("extinction", "--p", "0.7", "--config", ""),
]


@pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_dispatch_matches_the_top_level_parse(capsys, argv):
    # main parses a well-formed argv from the option tables; with that
    # turned off it parses every argv with argparse.  Codes and bytes must agree.
    dispatched = run_cli(capsys, *argv)
    with mock.patch.object(cli, "_parse_direct", return_value=None):
        full = run_cli(capsys, *argv)
    assert dispatched == full
    assert full[0] in (0, 2) and full[1] + full[2]


_FLAGS = sorted({"--config", *(opt.flag for table in cli._TABLES.values() for opt in table.values())})
_VALUES = st.one_of(
    st.floats().map(repr),  # real, negative and non-finite
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["", "-", "--", "-h", "--p", "-1", "1e0", "0x10", " 7", "csv", "json", "xml",
                     "continuous", "discrete", "walk", "out.csv"]),
    st.text(max_size=4),
)
_TOKENS = st.one_of(
    st.sampled_from([*cli._COMMANDS, "Moments", "-h", "--help", "--", "-x"]),
    st.sampled_from(_FLAGS),
    st.builds(lambda flag, size: flag[:size], st.sampled_from(_FLAGS), st.integers(3, 6)),
    st.builds("{}={}".format, st.sampled_from(_FLAGS), _VALUES),
    _VALUES,
)


def _taken(opt):
    """Texts the converter of opt takes."""
    if opt.convert is cli._real:
        return st.floats(allow_nan=False, allow_infinity=False).map(repr)
    if opt.convert is cli._integer:
        return st.integers(-10**20, 10**20).map(str)
    if opt.convert is str:
        return st.sampled_from(["out.csv", "", "a b", "x=1"])
    return st.sampled_from(opt.convert.__name__.split("|"))


@st.composite
def _argvs(draw):
    """A command name and `--flag value` pairs of its options, most flags
    spelled right and most values taken, or, as often, any tokens in any order."""
    command = draw(st.sampled_from([*cli._COMMANDS, "Moments", "-h", "--"]))
    options = [cli._CONFIG, *cli._TABLES.get(command, {}).values()]
    if draw(st.booleans()):
        argv = [command]
        for opt in draw(st.lists(st.sampled_from(options), max_size=6)):
            # Mostly the flag itself; else "_" for "-", other dashes or an abbreviation.
            flag = draw(st.sampled_from([opt.flag] * 8 + ["--" + opt.dest, "++" + opt.flag[2:],
                                                          opt.flag[1:], opt.flag[:3]]))
            argv += [flag, draw(st.one_of(_taken(opt), _taken(opt), _taken(opt), _VALUES))]
        return argv
    argv = [command]
    for flag, value in draw(st.lists(st.tuples(st.sampled_from(_FLAGS), _VALUES), max_size=5)):
        argv += [flag, value]
    for index, token in draw(st.lists(st.tuples(st.integers(0, 12), _TOKENS), max_size=2)):
        argv.insert(index, token)
    return argv


@settings(max_examples=500, deadline=None)
@given(_argvs())
@example(["verify", "--p", "0.6", "--abs-tol", "1e-7", "--format", "csv", "--out", "v.csv"])
@example(["simulate", "--mode", "walk", "--p", "0.3", "--m", "10", "--trials", "5", "--seed", "1",
          "--cap", "50", "--workers", "2", "--hist-out", "h.csv", "--config", ""])
@example(["moments", "--p", "-0.25"])
@example(["moments", "--p", "0.25", "--out", "-"])
@example(["moments", "--p", "0.25", "--p", "0.3"])
@example(["moments", "--p", "0.25", "--out", "-h"])
@example(["density", "--out", "--p", "--p", "0.3"])
@example(["density", "--p", "0.3", "--x_min", "2"])
def test_direct_parse_gives_what_argparse_gives(argv):
    # Where the direct parse accepts, argparse gives the same attributes,
    # so where argparse fails (full is None) the direct parse declines.
    direct = cli._parse_direct(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            full = vars(_build_parser().parse_args(argv))
    except SystemExit:
        full = None
    if direct is not None:
        assert vars(direct) == full


def test_invalid_values(capsys):
    code, _, err = run_cli(capsys, "density", "--p", "-0.4")
    assert code == 2
    code, _, err = run_cli(capsys, "density", "--p", "nan")
    assert code == 2
    # argparse names the type it expected after the converter.
    code, _, err = run_cli(capsys, "density", "--p", "abc")
    assert code == 2 and err.endswith("error: argument --p: invalid real value: 'abc'\n")
    code, _, err = run_cli(capsys, "pmf", "--p", "0.3", "--m", "1e0")
    assert code == 2 and err.endswith("error: argument --m: invalid integer value: '1e0'\n")


def test_config_file_supplies_options(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("# table options\np = 0.4\nx-max = 5\nsteps = 5\n")
    code, out, _ = run_cli(capsys, "density", "--config", str(config))
    assert code == 0
    _, header, rows, _ = parse_csv(out)
    assert len(rows) == 5
    assert float(rows[-1][0]) == 5.0


def test_config_conflict_is_an_error(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("p = 0.4\n")
    code, _, err = run_cli(capsys, "density", "--p", "0.4", "--config", str(config))
    assert code == 2
    assert "more than once" in err


def test_config_unknown_key_is_an_error(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("p = 0.4\ntrials = 7\n")
    code, _, err = run_cli(capsys, "density", "--config", str(config))
    assert code == 2
    assert "unknown option" in err


def test_config_missing_file_is_an_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "density", "--config", str(tmp_path / "nope.cfg"))
    assert code == 2
    assert "cannot read config file" in err


def test_config_file_not_utf8_is_an_error(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"p = 0.4\n\xff\n")
    code, out, err = run_cli(capsys, "density", "--config", str(config))
    assert (code, out) == (2, "")
    assert err.startswith("cascade-gamma density: cannot read config file") and "Traceback" not in err


def test_config_empty_path_is_read_as_a_path(capsys):
    # '' names no file, as --out '' names none; it is not taken as unset.
    code, out, err = run_cli(capsys, "density", "--p", "0.4", "--config", "")
    assert (code, out) == (2, "")
    assert "cannot read config file ''" in err


def test_repeat_invocations_are_deterministic(capsys):
    _, first, _ = run_cli(capsys, "density", "--p", "0.3", "--steps", "50")
    _, second, _ = run_cli(capsys, "density", "--p", "0.3", "--steps", "50")
    assert first == second


def test_shared_parser_carries_no_state_between_calls(tmp_path, capsys):
    # main() reuses one parser per process; every call must read as if it
    # had built its own.  The last call would pass if the config's p leaked.
    config = tmp_path / "run.cfg"
    config.write_text("p = 0.3\nx-max = 5\nsteps = 7\nformat = json\n")
    calls = [
        ("verify", "--p", "0.3"),
        ("verify", "--p"),
        ("density", "--config", str(config)),
        ("verify", "--p", "0.7", "--format", "csv"),
        ("density",),
    ]
    shared = [run_cli(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 0, 0, 2]
    assert len(json.loads(shared[2][1])["x"]) == 7


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "0.6", "--format", "csv")
    assert code == 0
    _, header, rows, _ = parse_csv(out)
    assert header[-1] == "passed"
    assert rows[0][-1] == "true"


def test_verify_csv_format_when_the_tolerance_is_not_met(capsys):
    # Exit 3 still writes CSV: the passing run's sorted header plus the
    # quoted error text, with nan where the run has no value.
    code, out, _ = run_cli(capsys, "verify", "--p", "0.6", "--format", "csv")
    assert code == 0
    passing_header = parse_csv(out)[1]
    code, out, _ = run_cli(capsys, "verify", "--p", "0.3", "--abs-tol", "1e-16", "--format", "csv")
    assert code == 3
    comments = [line for line in out.splitlines() if line.startswith("#")]
    assert comments == ["# cascade-gamma verify"]
    header, row = list(csv.reader(line for line in out.splitlines() if not line.startswith("#")))
    assert header == sorted(passing_header[:-1] + ["error"]) + ["passed"]
    cells = dict(zip(header, row))
    assert cells["passed"] == "false"
    assert "exceeds abs_tol" in cells["error"]
    assert float(cells["integral"]) == pytest.approx(1.0, abs=1e-6)
    assert math.isnan(float(cells["x_max"]))
    # A message with commas and quotes survives as one cell; a run that
    # stops with no result writes nan in every float column.
    message = 'panel [0.25, 0.5] cannot be split further ("tolerance")'
    with mock.patch.object(continuum, "verify_normalization",
                           side_effect=ToleranceError(message)):
        code, out, _ = run_cli(capsys, "verify", "--p", "0.3", "--format", "csv")
    assert code == 3
    header, row = list(csv.reader(out.splitlines()[1:]))
    cells = dict(zip(header, row))
    assert len(row) == len(header) and cells["error"] == message
    assert math.isnan(float(cells["integral"])) and cells["passed"] == "false"
