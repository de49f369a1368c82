"""cascade-gamma benchmark: run one workload of seeded CLI jobs and report its metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a source checkout: it imports cascade_gamma
from the checkout's src/ directory and refuses to run without it.  One
process drives cascade_gamma.cli.main(argv) in a closed loop, one job
after another; only `simulate --workers 2` starts worker processes.

The job list comes from the seed (see workloads.py) and is run in
passes until --seconds is used up.  The verify workload also runs its
known-defect jobs once, untimed, and reports their failures beside
the result; no timed job is expected to fail.  Every job's output is
validated on the first pass and must repeat byte for byte on later
ones.  Every timing is paired with a fixed piece of reference work
timed just before and just after it, and reported at the speed of the
machine lightly loaded (see slowness).  Latencies are medians over the
passes, and a failed job counts as infinitely slow.  Peak memory is measured in a
separate fresh process (peak_rss.py).

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same
passes untraced and then traced, times the layer kernels, prints the
per-layer metrics and writes every span to .perfbench-out/.  The last
line of standard output is always the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy

import workloads
import validators

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
COLD_STARTS = 15
COLD_START_CODE = (
    "import contextlib, os, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from cascade_gamma import cli\n"
    "with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink):\n"
    "    code = cli.main(['moments', '--p', '0.25'])\n"
    "print('ready' if code == 0 else 'failed', flush=True)\n"
)
TAIL_BEYOND = 10  # jobs slower than the tail job
TABLE_COMMANDS = ("density", "pmf")
WARM_UP = (
    ("verify", "--p", "0.3"),
    ("extinction", "--p", "0.7"),
    ("moments", "--p", "0.25", "--m", "10"),
    ("density", "--p", "0.3", "--steps", "50", "--format", "json"),
    ("pmf", "--p", "0.3", "--m", "10", "--n-max", "100"),
    ("simulate", "--mode", "discrete", "--p", "0.3", "--m", "10", "--trials", "100", "--seed", "1"),
)


_REFERENCE_ARRAY = numpy.linspace(1.0, 50.0, 10_000)


def _loop_work() -> None:
    """Interpreter arithmetic, the simulation kernels' kind of work."""
    total = 0.0
    for i in range(10_000):
        total += math.sqrt(i)


def _mixed_work() -> None:
    """The quadrature and table jobs' kinds of work: scalar math in the
    interpreter, numpy vector math, float formatting and allocation."""
    total = 0.0
    for i in range(1, 1000):
        total += math.lgamma(0.5 * i)
    ",".join(repr(v) for v in _REFERENCE_ARRAY[:800].tolist())
    numpy.log(_REFERENCE_ARRAY).sum() + numpy.exp(-_REFERENCE_ARRAY).sum()
    {i: (i, str(i)) for i in range(800)}


# Each workload's reference work, and its time on the 2-core VM this
# benchmark was written on, lightly loaded.
REFERENCES = {
    "verify": (_mixed_work, 0.9e-3),
    "tables": (_mixed_work, 0.9e-3),
    "sim": (_loop_work, 0.7e-3),
}


def slowness(workload: str) -> float:
    """How much slower than lightly loaded the machine does the workload's
    reference work right now: its fastest of three runs over its time in
    REFERENCES.

    The machine this benchmark was written on shares its cores with
    others, and its speed changed by up to 1.9x, switching within
    seconds and staying for minutes, for interpreter, numpy and
    start-up work alike.  A timing divided by the mean slowness just
    before and just after it (scaled) keeps the program's cost and
    drops most of the machine's state.  Slow spells hit the kinds of
    work unequally: the simulation kernels slow about as much as a plain
    interpreter loop, the quadrature and table jobs about as much as
    numpy-, formatting- and allocation-heavy work.  So each workload has
    the reference that follows its jobs.
    """
    work, nominal = REFERENCES[workload]
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        work()
        best = min(best, perf_counter() - start)
    return best / nominal


def scaled(seconds: float, slow: float) -> float:
    """seconds, measured when the machine ran at the given slowness, at slowness 1."""
    return seconds / slow


def import_package():
    """cascade_gamma from this checkout's src/, never an installed copy."""
    package_dir = SRC / "cascade_gamma"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cascade_gamma sources at {package_dir}")
    sys.path.insert(0, str(SRC))
    import cascade_gamma
    from cascade_gamma import cli  # noqa: F401  (loads every submodule)

    if Path(cascade_gamma.__file__).resolve().parent != package_dir.resolve():
        raise SystemExit(f"perfbench: imported cascade_gamma from {cascade_gamma.__file__}")
    return cascade_gamma


def provenance(args) -> dict:
    rev = dirty = None
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            rev = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=60).stdout.strip() or None
            status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                    capture_output=True, text=True, timeout=60).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_rev": rev, "git_dirty": dirty,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "machine": platform.machine(),
    }


class ColdStarts:
    """Set-up time: from starting a fresh interpreter until it has imported
    the package and finished one tiny job.

    The interpreter's exit is not timed.  Each sample is scaled by the
    mean slowness just before and just after it.  The
    samples are spread over the run (take them as it goes, then
    finish), so that a burst of load from elsewhere on the machine
    cannot decide their median.
    """

    def __init__(self, budget: float, workload: str):
        self.budget = budget
        self.workload = workload
        self.samples: list[tuple[float, float]] = []  # (seconds, slowness)

    def _sample(self) -> None:
        before = slowness(self.workload)
        start = perf_counter()
        with subprocess.Popen([sys.executable, "-c", COLD_START_CODE, str(SRC)],
                              stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline()
            seconds = perf_counter() - start
            child.wait(timeout=120)
        if ready != "ready\n" or child.returncode != 0:
            raise SystemExit(f"perfbench: cold start failed: {ready!r}, exit {child.returncode}")
        self.samples.append((seconds, 0.5 * (before + slowness(self.workload))))

    def take_due(self, elapsed: float) -> None:
        while len(self.samples) < min(COLD_STARTS, 1 + COLD_STARTS * elapsed / self.budget):
            self._sample()

    def median(self) -> float:
        while len(self.samples) < COLD_STARTS:
            self._sample()
        return statistics.median(scaled(s, r) for s, r in self.samples)


def peak_rss_mb(workload: str, seed: int) -> float:
    """Peak memory of a fresh process that runs the job list once (peak_rss.py)."""
    done = subprocess.run([sys.executable, str(Path(__file__).with_name("peak_rss.py")),
                           workload, str(seed)], capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: peak memory run failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout)


@dataclass
class Pass:
    seconds: list[float]          # time in cli.main per job
    slowness: list[float]         # before the first job and after each job
    failed: list[bool]
    work: int = 0                 # useful units done: jobs, rows or trials
    bytes_out: int = 0
    cli_self: dict[int, float] = field(default_factory=dict)  # table jobs, traced passes only


class Runner:
    """Runs a job list in passes and keeps each job's verdict."""

    def __init__(self, cli, jobs: list[workloads.Job], workload: str):
        self.cli = cli
        self.jobs = jobs
        self.workload = workload
        self.reasons: list[str | None] = [None] * len(jobs)
        self.work: list[int] = [0] * len(jobs)
        self.censored: list[int] = [0] * len(jobs)
        self._first: list[tuple | None] = [None] * len(jobs)
        self.tracer = None

    def _call(self, argv: list[str]):
        if self.tracer is None:
            return self.cli.main(argv)
        return self.tracer.call("cli.main", self.cli.main, argv)

    def execute(self, argv):
        """(seconds, exit code, stdout text, error); an exception is a result, not a crash."""
        out, err = io.StringIO(), io.StringIO()
        code = error = None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self._call(list(argv))
        except Exception as exc:  # the job failed; the benchmark records it and goes on
            error = f"{type(exc).__name__}: {exc}"
        return perf_counter() - start, code, out.getvalue(), error

    def warm_up(self) -> None:
        for argv in WARM_UP:
            self.execute(argv)

    def run_pass(self) -> Pass:
        result = Pass(seconds=[], slowness=[slowness(self.workload)], failed=[])
        campaigns: dict[tuple, bytes] = {}
        for index, job in enumerate(self.jobs):
            if self.tracer is not None:
                self.tracer.job = index
                before = self.tracer.totals["cli.main"][2]
            seconds, code, text, error = self.execute(job.argv)
            result.slowness.append(slowness(self.workload))
            if self.tracer is not None and job.command in TABLE_COMMANDS:
                result.cli_self[index] = self.tracer.totals["cli.main"][2] - before
            data = text.encode()
            self._judge(index, job, code, text, data, error, campaigns)
            result.seconds.append(seconds)
            result.failed.append(self.reasons[index] is not None)
            result.bytes_out += len(data)
            if self.reasons[index] is None:
                result.work += self.work[index]
        return result

    def _judge(self, index, job, code, text, data, error, campaigns) -> None:
        key = (code, error, hashlib.sha256(data).digest())
        if self._first[index] is None:
            self._first[index] = key
            reason = validators.check(job, code, text, error)
            if reason is None:
                self.work[index] = validators.work_units(job, text)
                if job.command == "simulate":
                    self.censored[index] = json.loads(text)["n_censored"]
            self.reasons[index] = reason
        elif key != self._first[index] and self.reasons[index] is None:
            self.reasons[index] = "output changed between identical runs"
        if job.command == "simulate" and code == 0 and error is None:
            config = tuple(sorted((k, v) for k, v in job.options.items() if k != "--workers"))
            normalized = validators.normalize_campaign(data)
            if config in campaigns and campaigns[config] != normalized and self.reasons[index] is None:
                self.reasons[index] = "simulate bytes differ between --workers 1 and 2"
            campaigns.setdefault(config, normalized)

    def run_for(self, budget: float, cold_starts: ColdStarts | None = None) -> list[Pass]:
        """Whole passes while the next one is expected to end within budget seconds."""
        passes, typical = [], []
        start = perf_counter()
        while True:
            if cold_starts is not None:
                cold_starts.take_due(perf_counter() - start)
            pass_start = perf_counter()
            passes.append(self.run_pass())
            typical.append(perf_counter() - pass_start)
            if perf_counter() - start + statistics.median(typical) > budget:
                return passes


def run_known_defects(runner: Runner, jobs: list[workloads.Job]) -> list[dict]:
    """Each known-defect job once, untimed by the metrics: its argv, seconds and verdict."""
    report = []
    for job in jobs:
        seconds, code, text, error = runner.execute(job.argv)
        report.append({"argv": list(job.argv), "seconds": seconds,
                       "reason": validators.check(job, code, text, error)})
    return report


def scaled_jobs(one: Pass) -> list[float]:
    """A pass's job times, each scaled by the mean slowness just before and after it."""
    slow = one.slowness
    return [scaled(s, 0.5 * (slow[i] + slow[i + 1])) for i, s in enumerate(one.seconds)]


def job_latencies(passes: list[Pass]) -> list[float]:
    """Each job's median scaled time over the passes, infinite where the job failed."""
    times = [scaled_jobs(p) for p in passes]
    return [
        math.inf if passes[-1].failed[i] else statistics.median(t[i] for t in times)
        for i in range(len(passes[0].seconds))
    ]


def job_runs(passes: list[Pass]) -> list[float]:
    """Every run of every job, scaled; infinite for the runs of a failed job."""
    failed = passes[-1].failed
    return [math.inf if failed[i] else t for p in passes for i, t in enumerate(scaled_jobs(p))]


def job_list_seconds(passes: list[Pass]) -> float:
    """Time of one pass over the job list: the median over passes of its scaled job times."""
    return statistics.median(math.fsum(scaled_jobs(p)) for p in passes)


def end_to_end(passes: list[Pass], setup_s: float, peak_mb: float) -> tuple[dict, dict]:
    wall = job_list_seconds(passes)
    latencies = sorted(job_latencies(passes))
    count = len(latencies)
    p50 = statistics.median(job_runs(passes))
    tail = latencies[count - 1 - TAIL_BEYOND]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "job_s.p50": (p50, "s"),
        "job_s.tail": (tail, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "work_per_s": (statistics.median(p.work for p in passes) / wall, "1/s"),
    }
    notes = {"tail_percentile": 100.0 * (count - TAIL_BEYOND) / count,
             "jobs": count, "passes": len(passes)}
    return metrics, notes


def per_layer(runner: Runner, untraced: list[Pass], traced: list[Pass], tracer, micro: dict) -> dict:
    n = len(traced)
    totals, counts = tracer.totals, tracer.counts

    def column(name, index):
        keys = (name, name + ".scalar", name + ".array")
        return sum(totals[key][index] for key in keys if key in totals) / n

    def calls(name):
        return column(name, 0)

    def seconds(name, own=False):
        return column(name, 2 if own else 1)

    jobs = runner.jobs
    table_rows = sum(runner.work[i] * n for i in traced[0].cli_self)
    table_self = sum(sum(p.cli_self.values()) for p in traced)
    campaigns = [i for i, job in enumerate(jobs) if job.command == "simulate"]
    trials = sum(int(jobs[i].options["--trials"]) for i in campaigns)
    latency = job_latencies(untraced)
    pooled = [i for i in campaigns if validators.chunks(jobs[i]) > 1]
    one = math.fsum(latency[i] for i in pooled if jobs[i].options["--workers"] == "1")
    two = math.fsum(latency[i] for i in pooled if jobs[i].options["--workers"] == "2")
    metrics = {
        "numerics.integrate_adaptive.self_s": (seconds("numerics.integrate_adaptive", True), "s"),
        "numerics.integrate_adaptive.evals": (counts["numerics.integrate_adaptive.evals"] / n, "count"),
        "continuum.density.calls": (calls("continuum.density"), "count"),
        "continuum.density.self_s": (seconds("continuum.density", True), "s"),
        "continuum.verify_normalization.s": (seconds("continuum.verify_normalization"), "s"),
        "continuum.verify_normalization.x_max": (counts["continuum.verify_normalization.x_max"], "mass"),
        "discrete.cascade_pmf_table.s": (seconds("discrete.cascade_pmf_table"), "s"),
        "discrete.cascade_pmf_table.rows": (counts["discrete.cascade_pmf_table.rows"] / n, "count"),
        "discrete.cascade_pmf_table.cap_hits": (counts["discrete.cascade_pmf_table.cap_hits"] / n, "count"),
        "cli.overhead_s": (seconds("cli.main", True), "s"),
        "cli.bytes_out": (statistics.median(p.bytes_out for p in traced), "bytes"),
        "cli.format_ns_per_row": (1e9 * table_self / table_rows if table_rows else 0.0, "ns"),
        "simulate.censored_frac": (sum(runner.censored[i] for i in campaigns) / trials if trials else 0.0, "ratio"),
        "simulate.pool_speedup": (one / two if two else 0.0, "ratio"),
        "trace.overhead_s": (job_list_seconds(traced) - job_list_seconds(untraced), "s"),
        "trace.spans": (len(tracer.spans) / n, "count"),
    }
    metrics.update(micro)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = import_package()
    record = {"provenance": provenance(args)}
    jobs = workloads.generate(args.workload, args.seed)
    runner = Runner(package.cli, jobs, args.workload)
    runner.warm_up()
    known = run_known_defects(runner, workloads.known_defects(args.workload, args.seed))

    if args.trace:
        import microbench
        from tracer import Tracer

        untraced = runner.run_for(0.4 * args.seconds)
        tracer = Tracer(package)
        runner.tracer = tracer
        tracer.install()
        try:
            traced = runner.run_for(0.4 * args.seconds)
        finally:
            tracer.remove()
            runner.tracer = None
        metrics = per_layer(runner, untraced, traced, tracer, microbench.run(package))
        passes = untraced + traced
        record["notes"] = {"untraced_passes": len(untraced), "traced_passes": len(traced)}
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "provenance": record["provenance"],
            "jobs": [list(job.argv) for job in jobs],
            "span_fields": ["id", "parent", "job", "name", "start_s", "end_s"],
            "spans": tracer.spans,
            "totals": {name: dict(zip(("calls", "s", "self_s"), t)) for name, t in tracer.totals.items()},
            "counts": tracer.counts,
        }))
    else:
        peak_mb = peak_rss_mb(args.workload, args.seed)
        cold_starts = ColdStarts(args.seconds, args.workload)
        passes = runner.run_for(args.seconds, cold_starts)
        metrics, record["notes"] = end_to_end(passes, cold_starts.median(), peak_mb)
        record["raw"] = {
            "job_seconds": [p.seconds for p in passes],
            "job_slowness": [p.slowness for p in passes],
            "cold_starts": cold_starts.samples,
        }

    failed = [i for i, reason in enumerate(runner.reasons) if reason is not None]
    attempted = len(jobs) * len(passes)
    known_failed = [job for job in known if job["reason"] is not None]
    correct = not failed
    record.update({
        "correct": correct,
        "fail_frac": len(failed) / len(jobs),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "failures": [{"argv": list(jobs[i].argv), "reason": runner.reasons[i]} for i in failed],
        "known_defects": {"fail_frac": len(known_failed) / len(known) if known else 0.0,
                          "jobs": known},
    })
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2))

    prov = record["provenance"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} jobs={len(jobs)} "
          f"passes={len(passes)} git={prov['git_rev']} dirty={prov['git_dirty']} "
          f"python={prov['python']} numpy={prov['numpy']} nproc={prov['nproc']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if not args.trace:
        notes = record["notes"]
        print(f"  job_s.tail is the {notes['tail_percentile']:.1f}th percentile of {notes['jobs']} "
              f"jobs, each its median of {notes['passes']} passes")
    print(f"  fail_frac = {len(failed) / len(jobs):.4g} ({len(failed)} of {len(jobs)} jobs)")
    for i in failed:
        print(f"    FAIL: {' '.join(jobs[i].argv)}: {runner.reasons[i]}")
    if known:
        print(f"  known_defects.fail_frac = {record['known_defects']['fail_frac']:.4g} "
              f"({len(known_failed)} of {len(known)} untimed jobs in the known-defect regions)")
        for job in known_failed:
            print(f"    known defect: {' '.join(job['argv'])}: {job['reason']}")
    if not all(math.isfinite(value) for value, _ in metrics.values()):
        print(f"perfbench: too many failed jobs for a finite median or tail "
              f"(the tail job has {TAIL_BEYOND} jobs beyond it)", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": sum(sum(p.failed) for p in passes),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
