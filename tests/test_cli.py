"""End-to-end tests of the command line front end.

Each test drives cli.main() in-process and inspects the exit code and
emitted text; file outputs go to pytest tmp_path.  One test runs the
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
from hypothesis import given, settings
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
from cascade_gamma import cli, continuum, discrete, simulate
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


@pytest.mark.parametrize("p", ["0.001", "0.0005", "0.0001", "1e-12", "1e-15", "1e-17", "1e-100",
                               "1e-300"])
def test_verify_tiny_p_reports_instead_of_overflowing(capsys, p):
    # The asymptote's constant C = e^{1/p - ...} overflows a float here,
    # and the density is a spike of width ~p just above x = 1, narrower
    # than the spacing of doubles there below p = 1e-16.
    code, out, err = run_cli(capsys, "verify", "--p", p)
    assert code == 0
    assert json.loads(out)["passed"] is True
    assert "Traceback" not in err


def test_verify_subnormal_p_writes_one_error_line():
    # Run as its own process: pytest would capture numpy's floating-point
    # warnings before they reach stderr.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "cascade_gamma", "verify", "--p", "5e-324"],
                          capture_output=True, text=True, env=env, check=False)
    assert done.returncode == 2
    [line] = done.stderr.splitlines()
    assert line.startswith("cascade-gamma verify: ")


@pytest.mark.parametrize("p,codes", [("1e160", {0}), ("1e300", {0}), ("1e308", {0}),
                                     ("1.7e308", {0}), ("1e305", {0}), ("1e306", {0}),
                                     ("1e307", {0}), ("2e307", {0})])
def test_huge_p_is_not_a_usage_error(capsys, p, codes):
    # exp(-decay_gap) underflows to 0 above p = 1e153, p x overflows in
    # the root route above about 4e304, the Lambert argument is subnormal
    # above about 2e307 and 2p overflows above 9e307; none of them makes
    # a valid p fail.
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


_ANY_P = st.one_of(
    st.floats(min_value=-4.0, max_value=300.0).map(lambda e: 10.0**e),
    st.builds(lambda k, sign: 0.5 + sign * 10.0**-k, st.integers(1, 16), st.sampled_from([1, -1])),
)


_TABLE_COLUMNS = {"density": ("x", "density", "asymptotic"), "pmf": ("pmf", "rescaled_density")}


@settings(max_examples=40, deadline=None)
@given(p=_ANY_P, m=st.integers(1, 1000))
def test_every_command_ends_in_a_verdict(p, m):
    # Any finite p > 0 ends in success (0), a usage or domain error (2)
    # or a numerical failure (3); nothing escapes main().  A table that
    # succeeds parses in either format and has every row it asked for,
    # whatever zeros or subnormals its columns hold.
    commands = [
        (["verify"], None),
        (["extinction"], None),
        (["moments"], None),
        (["moments", "--m", str(m)], None),
        (["simulate", "--mode", "discrete", "--m", str(m), "--trials", "50", "--seed", "1",
          "--cap", "3"], None),
    ]
    for fmt in ("csv", "json"):
        commands.append((["density", "--steps", "50", "--format", fmt], 50))
        commands.append((["pmf", "--m", str(m), "--n-max", str(m + 50), "--format", fmt], 51))
    for command, rows in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([*command, "--p", repr(p)])
        assert code in (0, 2, 3), (command, p)
        if code != 0 or rows is None:
            continue
        if command[-1] == "csv":
            _, header, cells, _ = parse_csv(out.getvalue())
            assert len(cells) == rows, (command, p)
            assert all(len(row) == len(header) for row in cells)
            assert all(math.isfinite(float(cell)) for row in cells for cell in row)
        else:
            payload = json.loads(out.getvalue())
            for column in _TABLE_COLUMNS[command[0]]:
                assert len(payload[column]) == rows, (command, column, p)


# ------------------------------------------------------------ table writer
#
# The writer formats blocks of rows with one % operation and splices float
# arrays written by json's C encoder into the indent-2 layout.  The
# reference below writes cell by cell: csv.writer over format(v, ".17g")
# cells, and json.dumps(indent=2) over float lists.


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
_BLOCKS = st.sampled_from([cli._BLOCK_ROWS, 1, 2, 3])


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


def _assert_json_matches(scalars, arrays):
    got = "".join(_json_text(scalars, arrays))
    lists = {key: [float(v) for v in values] for key, values in arrays.items()}
    _assert_same_text(got, _reference_json({**scalars, **lists}))


@settings(max_examples=80, deadline=None)
@given(
    block=_BLOCKS,
    rows=st.integers(1, 40),
    counts=st.lists(st.integers(0, 2**53), min_size=1, max_size=20),
    floats=st.lists(_FLOATS, min_size=1, max_size=20),
    flags=st.lists(st.sampled_from(["true", "false"]), min_size=1, max_size=3),
    comments=st.lists(st.text(alphabet="abc =.-0123456789", max_size=12), max_size=3),
    with_flag=st.booleans(),
)
def test_csv_writer_matches_the_per_cell_writer(block, rows, counts, floats, flags, comments,
                                                with_flag):
    flag = _column(flags, rows, str) if with_flag else None
    with mock.patch.object(cli, "_BLOCK_ROWS", block):
        _assert_csv_matches(comments, _column(counts, rows, np.int64),
                            _column(floats, rows, np.float64),
                            _column(floats[::-1], rows, np.float64), flag)


@settings(max_examples=80, deadline=None)
@given(
    scalars=st.dictionaries(
        _KEYS,
        st.one_of(_FLOATS, st.integers(-(2**53), 2**53), st.booleans(),
                  st.dictionaries(_KEYS, _FLOATS, max_size=2)),
        max_size=5,
    ),
    arrays=st.dictionaries(_KEYS, st.lists(_FLOATS, max_size=30), max_size=3),
    block=_BLOCKS,
)
def test_json_writer_matches_the_indent_encoder(scalars, arrays, block):
    # Empty arrays included; array keys may share a prefix with scalar keys.
    with mock.patch.object(cli, "_BLOCK_ROWS", block):
        _assert_json_matches(scalars, {
            key: np.array(values, dtype=np.float64)
            for key, values in arrays.items()
            if key not in scalars
        })


@settings(max_examples=80, deadline=None)
@given(
    scalars=st.dictionaries(_KEYS, _FLOATS, max_size=3),
    inner=st.dictionaries(_KEYS, st.one_of(_FLOATS, st.integers(-(2**53), 2**53)), max_size=3),
    counts=st.lists(st.integers(0, 2**53), max_size=30),
    floats=st.lists(_FLOATS, max_size=30),
    block=_BLOCKS,
)
def test_json_writer_splices_nested_arrays(scalars, inner, counts, floats, block):
    # Arrays inside objects, at depths 1 to 3, as simulate's histogram
    # counts; the payload handed in is left as it was.
    payload = {**scalars, "h": {**inner, "deep": {"v": 1}}}
    before = json.dumps(payload, sort_keys=True)
    arrays = {"h.counts": np.array(counts, dtype=np.int64),
              "h.deep.w": np.array(floats, dtype=np.float64),
              "top": np.array(floats[::-1], dtype=np.float64)}
    with mock.patch.object(cli, "_BLOCK_ROWS", block):
        got = "".join(_json_text(payload, arrays))
    want = {**scalars, "top": [float(v) for v in floats[::-1]],
            "h": {**inner, "counts": counts, "deep": {"v": 1, "w": [float(v) for v in floats]}}}
    _assert_same_text(got, _reference_json(want))
    assert json.dumps(payload, sort_keys=True) == before


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
    _assert_json_matches({"p": 0.5, "truncated": True}, {"pmf": a, "rescaled_density": b,
                                                          "x": a[:0]})


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
    blob = "".join(_json_text({"p": 0.5}, {"v": values, "w": values[:0]}))
    assert '"w": []' in blob and "Infinity" in blob and "NaN" in blob


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
    # The histogram counts are spliced in at their nested key; the bytes
    # are those of one json.dumps(indent=2, sort_keys=True) of the payload.
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
    # A message with commas and quotes survives as one cell.
    message = 'panel [0.25, 0.5] cannot be split further ("tolerance")'
    columns = cli._verify_columns({"p": 0.3, "error": message, "passed": False})
    text = "".join(_csv_text(["x"], *columns))
    header, row = list(csv.reader(text.splitlines()[1:]))
    assert len(row) == len(header) and dict(zip(header, row))["error"] == message
