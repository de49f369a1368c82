"""Every output of the benchmark workloads, byte for byte, against stored digests.

tests/golden/ holds the seed-1 listings of scripts/output_digest.py,
known-defect jobs included, for each workload in csv and in json, as

    python3 scripts/output_digest.py --format FMT WORKLOAD 1 > tests/golden/WORKLOAD.FMT.txt

writes them, and in numpy-version.txt the numpy they were made with.
Each job's default format is csv or json, so its output is digested in
one of the two listings.  The test recomputes each listing in-process
with the script's digest() and names every job whose digest or exit
code moved.  It never writes those files: a change that means to move
output bytes rewrites them with the command above and says which jobs
moved and why.

sim campaigns draw from numpy's Generator streams, which numpy does not
promise to keep across versions (NEP 19), so on another numpy only the
verify and tables listings are compared.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
NUMPY = (GOLDEN / "numpy-version.txt").read_text().strip()
LISTINGS = [(workload, fmt) for workload in ("verify", "tables", "sim") for fmt in ("csv", "json")]


@pytest.fixture(scope="module")
def output_digest():
    """scripts/output_digest.py loaded from its path, with sys.path and sys.modules put back."""
    saved_path, saved_workloads = sys.path[:], sys.modules.get("workloads")
    saved_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec = importlib.util.spec_from_file_location("output_digest",
                                                      ROOT / "scripts" / "output_digest.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # puts src/ and perfbench/ on sys.path, imports workloads
    finally:
        sys.path[:], sys.dont_write_bytecode = saved_path, saved_bytecode
        if saved_workloads is None:
            sys.modules.pop("workloads", None)
        else:
            sys.modules["workloads"] = saved_workloads
    return module


@pytest.mark.parametrize("workload, fmt", LISTINGS, ids=[f"{w}-{f}" for w, f in LISTINGS])
def test_outputs_match_the_golden_digests(output_digest, workload, fmt):
    if workload == "sim" and np.__version__ != NUMPY:
        pytest.skip(f"sim digests were made with numpy {NUMPY}, this is numpy {np.__version__}: "
                    "numpy does not promise the same Generator streams across versions")
    stored = (GOLDEN / f"{workload}.{fmt}.txt").read_text().splitlines()
    golden = [line.split(" ", 2) for line in stored]
    got = [line.split(" ", 2) for line in output_digest.listing(workload, 1, fmt)]
    # A line is "<sha256> <exit> <argv>": the same jobs, in the same order.
    assert [argv for _, _, argv in got] == [argv for _, _, argv in golden]
    moved = [f"{argv}: exit {old_code} -> {new_code}, digest {old_sha[:12]} -> {new_sha[:12]}"
             for (old_sha, old_code, argv), (new_sha, new_code, _) in zip(golden, got)
             if (old_sha, old_code) != (new_sha, new_code)]
    assert not moved, f"{len(moved)} of {len(golden)} {workload} jobs moved:\n" + "\n".join(moved)
