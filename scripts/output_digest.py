#!/usr/bin/env python3
"""Digest the output of every benchmark job, to check that two versions
of the program write the same bytes.

For each seed, takes the job list of the workload from
perfbench/workloads.py (its timed jobs, then its known-defect jobs),
runs each job in-process through cascade_gamma.cli.main and prints one
line per job: the sha256 of its standard output, its exit code and its
argv.  Standard error is discarded.  The cascade_gamma package and the
job lists are those of the checkout this script sits in.

--format csv|json sets that output format on every job (each command
takes --format), so the writer of the other format is digested too: the
workloads run verify, moments, extinction and simulate in JSON only.

Example, comparing two checkouts:
    python3 scripts/output_digest.py verify 1 2 3 > change.txt
    python3 scripts/output_digest.py --format csv sim 1 2 3 > change-csv.txt
    python3 ../parent/scripts/output_digest.py verify 1 2 3 > parent.txt
    diff parent.txt change.txt
"""

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cascade_gamma import cli  # noqa: E402
import workloads  # noqa: E402


def digest(argv: tuple[str, ...]) -> str:
    """'sha256 exit argv' for one job."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    sha = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return f"{sha} {code} {' '.join(argv)}"


def with_format(argv: tuple[str, ...], fmt: str | None) -> tuple[str, ...]:
    """argv with its --format option set to fmt (unchanged if fmt is None)."""
    if fmt is None:
        return argv
    options = [pair for pair in zip(argv[1::2], argv[2::2]) if pair[0] != "--format"]
    return (argv[0], *(item for pair in options for item in pair), "--format", fmt)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("seeds", type=int, nargs="+", metavar="SEED")
    parser.add_argument("--format", choices=("csv", "json"),
                        help="output format for every job (default: each job's own)")
    ns = parser.parse_args()
    for seed in ns.seeds:
        jobs = workloads.generate(ns.workload, seed) + workloads.known_defects(ns.workload, seed)
        for job in jobs:
            print(digest(with_format(job.argv, ns.format)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
