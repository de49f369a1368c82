#!/usr/bin/env python3
"""Time the cold start of the scalar commands in fresh interpreters.

Each sample starts a new interpreter that runs the benchmark's start-up
code (COLD_START_CODE of perfbench/run.py, read from this checkout):
put a src/ directory on the path, import cascade_gamma.cli, run one
command with its output discarded and print 'ready'.  The time from
starting the interpreter to reading that line is the sample; the
interpreter's exit is not timed.  The commands are `moments --p 0.25`
in JSON and CSV, `moments --p 0.25 --m 10`, `extinction --p 0.7`,
`moments --p=0.25` and `--help`.  The CLI parses the first four from
its option tables; it hands `--p=0.25`, as every argv that is not
`--flag value` pairs, and `--help` to argparse, so the cold cost of
both parse paths shows.

Every given src/ directory is copied to a temporary directory first,
with its bytecode compiled there (compileall), and the interpreters run
with PYTHONDONTWRITEBYTECODE=1, so every sample starts from a current
cache.  --compile leaves the copies without bytecode: every start then
compiles the package's sources, as in a checkout without a current
__pycache__.  Within each run every command goes to every directory,
in an order that rotates from run to run.  For each command and
directory the script prints the median and the quartiles in ms.
Standard library only.

Example, comparing two checkouts:
    python3 scripts/cold_start.py ../parent/src src
    python3 scripts/cold_start.py --compile --runs 25 ../parent/src src
"""

import argparse
import ast
import compileall
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = (
    ("moments", "--p", "0.25"),
    ("moments", "--p", "0.25", "--format", "csv"),
    ("moments", "--p", "0.25", "--m", "10"),
    ("extinction", "--p", "0.7"),
    ("moments", "--p=0.25"),
    ("--help",),
)

# The command COLD_START_CODE runs, replaced by the one given on the command line.
_BENCH_COMMAND = "['moments', '--p', '0.25']"


def startup_code() -> str:
    """COLD_START_CODE of perfbench/run.py, running the command in sys.argv[2:]."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(target, "id", None) for target in node.targets] == ["COLD_START_CODE"]):
            code = ast.literal_eval(node.value)
            if _BENCH_COMMAND not in code:
                raise SystemExit(f"cold_start: COLD_START_CODE no longer runs {_BENCH_COMMAND}")
            return code.replace(_BENCH_COMMAND, "sys.argv[2:]")
    raise SystemExit("cold_start: perfbench/run.py defines no COLD_START_CODE")


def sample(code: str, src: Path, command: tuple[str, ...], env: dict) -> float:
    """Seconds from starting a fresh interpreter to its 'ready' line."""
    start = perf_counter()
    with subprocess.Popen([sys.executable, "-c", code, str(src), *command],
                          stdout=subprocess.PIPE, text=True, env=env) as child:
        ready = child.stdout.readline()
        seconds = perf_counter() - start
        child.wait(timeout=120)
    if ready != "ready\n" or child.returncode != 0:
        raise SystemExit(f"cold_start: {' '.join(command)} on {src} failed: {ready!r}, "
                         f"exit {child.returncode}")
    return seconds


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); all three the sample if there is one."""
    if len(samples) == 1:
        return samples[0], samples[0], samples[0]
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return q1, median, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="*", type=Path, default=[ROOT / "src"],
                        help="src/ directories to time (default: this checkout's)")
    parser.add_argument("--runs", type=int, default=25,
                        help="samples per command and directory (default 25)")
    parser.add_argument("--compile", action="store_true",
                        help="no bytecode cache: compile the sources at every start")
    ns = parser.parse_args()
    if ns.runs < 1:
        parser.error("--runs must be >= 1")
    code = startup_code()
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    times = {(command, src): [] for command in COMMANDS for src in ns.src}
    with tempfile.TemporaryDirectory() as scratch:
        copies = []
        for index, src in enumerate(ns.src):
            copy = Path(scratch) / str(index) / "src"
            shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
            if not ns.compile:
                compileall.compile_dir(copy, quiet=1)
            copies.append(copy)
        for run in range(ns.runs):
            for command in COMMANDS:
                for turn in range(len(ns.src)):
                    index = (run + turn) % len(ns.src)
                    times[command, ns.src[index]].append(sample(code, copies[index], command, env))
    print(f"# {ns.runs} runs, {'compiled at every start' if ns.compile else 'bytecode cached'}; ms")
    print(f"{'command':40s} {'median':>7s} {'q1':>7s} {'q3':>7s}  src")
    for command in COMMANDS:
        for src in ns.src:
            q1, median, q3 = quartiles(times[command, src])
            print(f"{' '.join(command):40s} {1e3 * median:7.1f} {1e3 * q1:7.1f} {1e3 * q3:7.1f}  {src}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
