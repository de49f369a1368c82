"""Tests of the benchmark itself: job generation, validators, runner, smoke runs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import validators  # noqa: E402
import workloads  # noqa: E402
from cascade_gamma import cli  # noqa: E402


def program_output(capsys, argv: list[str]) -> str:
    assert cli.main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    first = workloads.generate(workload, 7)
    assert first == workloads.generate(workload, 7)
    assert first != workloads.generate(workload, 8)
    assert len(first) == 40


def test_verify_workload_keeps_the_known_defect_regions():
    seeds = range(20)
    timed = [float(job.options["--p"]) for seed in seeds for job in workloads.generate("verify", seed)]
    known = [float(job.options["--p"]) for seed in seeds for job in workloads.known_defects("verify", seed)]
    assert min(timed) >= workloads.SMALL_P and max(timed) > 1e2
    assert min(known) < 1e-3
    assert any(0 < abs(p - 0.5) <= 1e-9 for p in known)
    assert all(p < workloads.SMALL_P or 0 < abs(p - 0.5) < 10.0 ** -workloads.K_SAFE for p in known)
    assert workloads.known_defects("verify", 3) == workloads.known_defects("verify", 3)
    assert workloads.known_defects("tables", 3) == []


def test_sim_jobs_come_in_worker_pairs():
    jobs = workloads.generate("sim", 1)
    for one, two in zip(jobs[::2], jobs[1::2]):
        assert one.options.pop("--workers") == "1"
        assert two.options.pop("--workers") == "2"
        assert one.argv[:-2] == two.argv[:-2]


def test_verify_validator_rejects_flipped_passed(capsys):
    job = workloads.Job(("verify", "--p", "0.3"))
    text = program_output(capsys, list(job.argv))
    assert validators.check(job, 0, text, None) is None
    flipped = text.replace('"passed": true', '"passed": false')
    assert "passed" in validators.check(job, 0, flipped, None)


def test_extinction_validator_rejects_route_gap(capsys):
    job = workloads.Job(("extinction", "--p", "0.7"))
    payload = json.loads(program_output(capsys, list(job.argv)))
    assert validators.check(job, 0, json.dumps(payload), None) is None
    payload["route_gap"] = 4e-9
    assert "route_gap" in validators.check(job, 0, json.dumps(payload), None)


def test_exceptions_and_exit_codes_fail():
    job = workloads.Job(("verify", "--p", "0.001"))
    assert "OverflowError" in validators.check(job, None, "", "OverflowError: math range error")
    assert "exit code 3" in validators.check(job, 3, "{}", None)


@pytest.mark.parametrize("mode,p", [("continuous", "0.3"), ("discrete", "0.3"), ("walk", "0.7")])
def test_simulate_validator_rejects_shifted_statistics(capsys, mode, p):
    argv = ["simulate", "--mode", mode, "--p", p, "--trials", "16384", "--seed", "5", "--cap", "60"]
    if mode != "continuous":
        argv += ["--m", "10"]
    job = workloads.Job(tuple(argv))
    payload = json.loads(program_output(capsys, argv))
    assert validators.check(job, 0, json.dumps(payload), None) is None
    key = "mean" if float(p) < 0.5 else "finite_fraction"
    payload[key] *= 1.1
    assert validators.check(job, 0, json.dumps(payload), None) is not None


def test_pmf_validator_rejects_missing_mass(capsys):
    job = workloads.Job(("pmf", "--p", "0.7", "--m", "20", "--format", "json"))
    payload = json.loads(program_output(capsys, list(job.argv)))
    assert validators.check(job, 0, json.dumps(payload), None) is None
    payload["pmf"] = payload["pmf"][: len(payload["pmf"]) // 2]
    payload["cumulative_mass"] = sum(payload["pmf"])
    assert "falls short" in validators.check(job, 0, json.dumps(payload), None)


def test_density_validator_rejects_wrong_values(capsys):
    argv = ["density", "--p", "0.3", "--x-max", "50", "--steps", "1000", "--format", "csv"]
    job = workloads.Job(tuple(argv))
    text = program_output(capsys, argv)
    assert validators.check(job, 0, text, None) is None
    head, last = text.rstrip("\n").rsplit("\n", 1)
    x, d, a = last.split(",")
    corrupt = f"{head}\n{x},{float(d) * 1.001!r},{a}\n"
    assert "density at x" in validators.check(job, 0, corrupt, None)


def test_density_validator_checks_rows_above_the_underflow_floor(capsys):
    # The law decays like exp(-13.4 x): every evenly spaced row but x = 1
    # (where the density is 0) is below 1e-250.
    argv = ["density", "--p", "0.05", "--x-max", "1000", "--steps", "1000", "--format", "json"]
    job = workloads.Job(tuple(argv))
    payload = json.loads(program_output(capsys, argv))
    assert validators.check(job, 0, json.dumps(payload), None) is None
    peak = max(range(len(payload["density"])), key=payload["density"].__getitem__)
    payload["density"][peak] *= 1.001
    assert "density at x" in validators.check(job, 0, json.dumps(payload), None)


def test_closed_forms_match_the_program():
    from cascade_gamma import continuum, discrete

    for p, m in [(0.6, 10), (0.95, 8), (1.5, 60)]:
        alpha = discrete.martingale_alpha(discrete.DiscretizationParams(p, m))
        assert validators.atomized_finite_mass(p, m) == pytest.approx(alpha**m, rel=1e-10)
        assert validators.continuum_finite_mass(p) == pytest.approx(
            continuum.extinction(continuum.ModelParams(p)).prob_finite, rel=1e-10)


class FakeCli:
    """Prints a simulate payload whose mean depends on --workers when told to."""

    def __init__(self, diverge: bool):
        self.diverge = diverge

    def main(self, argv):
        workers = int(argv[argv.index("--workers") + 1])
        mean = 2.5 + (workers if self.diverge else 0) * 1e-12
        payload = {"config": {"workers": workers}, "mean": mean, "n_censored": 0}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0


@pytest.mark.parametrize("diverge", [False, True])
def test_runner_compares_worker_bytes(monkeypatch, diverge):
    monkeypatch.setattr(validators, "check", lambda job, code, text, error: None)
    monkeypatch.setattr(validators, "work_units", lambda job, text: 1)
    argv = ("simulate", "--mode", "discrete", "--p", "0.3", "--trials", "16384", "--seed", "1",
            "--cap", "100", "--m", "10")
    jobs = [workloads.Job(argv + ("--workers", "1")), workloads.Job(argv + ("--workers", "2"))]
    runner = run.Runner(FakeCli(diverge), jobs, "sim")
    result = runner.run_pass()
    assert result.failed == [False, diverge]
    if diverge:
        assert "differ" in runner.reasons[1]


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload,trace", [("verify", "0"), ("tables", "0"), ("sim", "0"), ("verify", "1")])
def test_smoke_run(workload, trace):
    done = bench(ROOT, "--workload", workload, "--seed", "11", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 40
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["failed"] == 0
    if workload == "verify":  # the known defects are reported, not filtered
        assert "known_defects.fail_frac" in done.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = bench(tmp_path, "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
