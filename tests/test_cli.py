"""End-to-end tests of the command line front end.

Each test drives cli.main() in-process and inspects the exit code and
emitted text; file outputs go to pytest tmp_path.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_gamma import (
    DiscretizationParams,
    ModelParams,
    cascade_pmf_table,
    density,
    extinction,
)
from cascade_gamma.cli import _build_parser, main

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


def test_pmf_rejects_coarse_lattice(capsys):
    code, _, err = run_cli(capsys, "pmf", "--p", "0.3", "--m", "3")
    assert code == 2
    assert "delta" in err


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
    code, out, _ = run_cli(capsys, "verify", "--p", "0.3", "--abs-tol", "1e-16")
    assert code == 3
    payload = json.loads(out)
    assert payload["passed"] is False
    # the partial integral is still reported for the audit trail
    assert payload["integral"] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("p", ["0.001", "0.0005", "0.0001"])
def test_verify_tiny_p_reports_instead_of_overflowing(capsys, p):
    # The asymptote's constant C = e^{1/p - ...} overflows a float here,
    # and the density is a spike of width ~p just above x = 1.
    code, out, err = run_cli(capsys, "verify", "--p", p)
    assert code == 0
    assert json.loads(out)["passed"] is True
    assert "Traceback" not in err


_ANY_P = st.one_of(
    st.floats(min_value=-4.0, max_value=4.0).map(lambda e: 10.0**e),
    st.builds(lambda k, sign: 0.5 + sign * 10.0**-k, st.integers(1, 12), st.sampled_from([1, -1])),
)


@settings(max_examples=40, deadline=None)
@given(p=_ANY_P, m=st.integers(1, 1000))
def test_every_command_ends_in_a_verdict(p, m):
    # Any finite p > 0 ends in success (0), a usage or domain error (2)
    # or a numerical failure (3); nothing escapes main().
    commands = [
        ["verify"],
        ["extinction"],
        ["moments"],
        ["moments", "--m", str(m)],
        ["density", "--steps", "50"],
        ["pmf", "--m", str(m), "--n-max", str(m + 50)],
    ]
    for command in commands:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([*command, "--p", repr(p)])
        assert code in (0, 2, 3), (command, p)


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


def test_simulate_epsilon_validation(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--mode", "continuous", "--p", "0.3",
        "--trials", "10", "--seed", "1", "--epsilon", "0.5",
    )
    assert code == 2
    assert "epsilon" in err


# ----------------------------------------------------------- option plumbing


def test_unknown_command_and_flags(capsys):
    assert run_cli(capsys, "sample")[0] == 2
    assert run_cli(capsys, "density", "--p", "0.4", "--bogus", "1")[0] == 2
    assert run_cli(capsys, "density")[0] == 2  # missing required --p


def test_invalid_values(capsys):
    code, _, err = run_cli(capsys, "density", "--p", "-0.4")
    assert code == 2
    code, _, err = run_cli(capsys, "density", "--p", "nan")
    assert code == 2


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
