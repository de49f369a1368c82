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

--drop KEY[,KEY...] digests each output that is a JSON object with
those top-level keys removed, written again by json.dumps with sorted
keys; other outputs (CSV, an empty output) are digested as they are.
Two listings made so match where the versions differ only in those fields.

Example, comparing two checkouts:
    python3 scripts/output_digest.py verify 1 2 3 > change.txt
    python3 scripts/output_digest.py --format csv sim 1 2 3 > change-csv.txt
    python3 ../parent/scripts/output_digest.py verify 1 2 3 > parent.txt
    diff parent.txt change.txt
    python3 scripts/output_digest.py --drop integral,x_max verify 1 2 3
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cascade_gamma import cli  # noqa: E402
import workloads  # noqa: E402


def digest(argv: tuple[str, ...], drop: frozenset[str] = frozenset()) -> str:
    """'sha256 exit argv' for one job, with the top-level keys in drop removed from a JSON object."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    text = out.getvalue()
    if drop:
        text = without_keys(text, drop)
    sha = hashlib.sha256(text.encode()).hexdigest()
    return f"{sha} {code} {' '.join(argv)}"


def without_keys(text: str, drop: frozenset[str]) -> str:
    """text less the top-level keys in drop, if it is a JSON object; else text itself."""
    try:
        payload = json.loads(text)
    except ValueError:
        return text
    if not isinstance(payload, dict):
        return text
    return json.dumps({key: value for key, value in payload.items() if key not in drop},
                      sort_keys=True)


def key_list(text: str) -> frozenset[str]:
    """The keys of a comma-separated KEY[,KEY...] list, none of them empty."""
    keys = text.split(",")
    if not all(keys):
        raise argparse.ArgumentTypeError(f"expected KEY[,KEY...], got {text!r}")
    return frozenset(keys)


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
    parser.add_argument("--drop", type=key_list, default=frozenset(), metavar="KEY[,KEY...]",
                        help="top-level keys to remove from JSON outputs before digesting them")
    ns = parser.parse_args()
    for seed in ns.seeds:
        jobs = workloads.generate(ns.workload, seed) + workloads.known_defects(ns.workload, seed)
        for job in jobs:
            print(digest(with_format(job.argv, ns.format), ns.drop), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
