"""Peak memory of one pass over a workload's job list, in a fresh process.

    python3 perfbench/peak_rss.py <workload> <seed>

Prints the peak resident set size of this process in MB.  run.py starts
it once per --trace 0 run.  It imports cascade_gamma from the checkout's
src/, runs every job of the list once through cli.main and sends its
output to the null device, so the figure is the program's memory and
not that of the harness that validates it.  Failed jobs are judged by
run.py; here they only run.
"""

from __future__ import annotations

import contextlib
import os
import resource
import sys
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(SRC))
    from cascade_gamma import cli

    with open(os.devnull, "w") as sink:
        for job in workloads.generate(workload, seed):
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    cli.main(list(job.argv))
                except Exception:  # counted as a failure by run.py, not here
                    pass
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
