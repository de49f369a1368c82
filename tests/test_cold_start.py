"""The package in a fresh interpreter, where numpy is not yet imported.

In this process numpy is imported before the package, so the package
takes it as it is.  Only a new interpreter runs the lazy binding of
cascade_gamma._lazy: scalar commands that never load numpy, and the
first use of numpy by the others, inside a thread pool for simulate.
The last tests run scripts/cold_start.py, which times such starts, and
check the names the package exports.
"""

import functools
import subprocess
import sys
from pathlib import Path

import pytest

import cascade_gamma
from cascade_gamma.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

# As the benchmark's cold start: import the CLI, run one command.  The
# last line of standard error says whether numpy's compiled core was
# loaded at import and after the command, and which of the standard
# library modules in SLOW_STDLIB were loaded after it.
SLOW_STDLIB = ("dataclasses", "inspect")
COLD = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from cascade_gamma import cli\n"
    "core = 'numpy._core._multiarray_umath'\n"
    "at_import = core in sys.modules\n"
    "code = cli.main(sys.argv[2:])\n"
    f"slow = [name for name in {SLOW_STDLIB!r} if name in sys.modules]\n"
    "print(f'numpy {at_import} {core in sys.modules}', *slow, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


@functools.cache
def cold(*argv):
    """(exit code, stdout, numpy loaded at import, numpy loaded after,
    the modules of SLOW_STDLIB loaded after) of a fresh run."""
    done = subprocess.run([sys.executable, "-c", COLD, SRC, *argv],
                          capture_output=True, text=True, timeout=120, check=False)
    report = [line for line in done.stderr.splitlines() if line.startswith("numpy ")]
    assert report, done.stderr
    _, at_import, after, *slow = report[-1].split()
    return done.returncode, done.stdout, at_import == "True", after == "True", slow


SCALAR = [
    (("moments", "--p", "0.25"), 0),
    (("moments", "--p", "0.25", "--m", "10"), 0),
    (("extinction", "--p", "0.7"), 0),
    (("--help",), 0),
    (("moments",), 2),  # usage error: --p missing
    (("moments", "--p=0.25"), 0),  # parsed by argparse
]


@pytest.mark.parametrize("argv, code", SCALAR)
def test_scalar_commands_never_load_numpy(argv, code):
    got_code, _, at_import, after, _ = cold(*argv)
    assert got_code == code
    assert not at_import and not after


@pytest.mark.parametrize("argv, code", SCALAR)
def test_scalar_commands_never_load_dataclasses_or_inspect(argv, code):
    # Importing dataclasses, and inspect with it, took 12.6 ms of a cold
    # start of about 110 ms; the package's records do without them.
    got_code, _, _, _, slow = cold(*argv)
    assert got_code == code
    assert slow == []


@pytest.mark.parametrize("argv", [
    ("moments", "--p", "0.25", "--format", "csv"),
    ("moments", "--p", "0.25", "--m", "10", "--format", "csv"),
    ("extinction", "--p", "0.7", "--format", "csv"),
    ("moments", "--p=0.25", "--format=csv"),  # parsed by argparse
])
def test_one_row_csv_never_loads_numpy(capsys, argv):
    code, out, at_import, after, _ = cold(*argv)
    assert not at_import and not after
    assert (code, out) == (main(list(argv)), capsys.readouterr().out)


@pytest.mark.parametrize("argv", [
    ("density", "--p", "0.3", "--steps", "300"),
    ("density", "--p", "0.6", "--steps", "50", "--format", "json"),
    ("pmf", "--p", "0.3", "--m", "10", "--n-max", "500"),
    ("verify", "--p", "0.6"),
    # Two chunks on two threads: numpy is first used on the way to the pool.
    ("simulate", "--mode", "discrete", "--p", "0.3", "--m", "10", "--trials", "32768",
     "--seed", "5", "--workers", "2"),
])
def test_cold_commands_write_the_in_process_bytes(capsys, argv):
    code, out, at_import, after, _ = cold(*argv)
    assert not at_import and after
    assert (code, out) == (main(list(argv)), capsys.readouterr().out)


def loaded(module, *argv):
    """(exit code, whether module was loaded) after a fresh run of argv."""
    check = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from cascade_gamma import cli\n"
        "code = cli.main(sys.argv[3:])\n"
        "print(sys.argv[2] in sys.modules, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    done = subprocess.run([sys.executable, "-c", check, SRC, module, *argv],
                          capture_output=True, text=True, timeout=120, check=False)
    assert done.stderr in ("True\n", "False\n"), done.stderr
    return done.returncode, done.stderr == "True\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_moments_never_loads_numerics(fmt):
    # continuum binds numerics in the functions that call it, none of
    # which moments reaches, so a cold moments never compiles it.
    assert loaded("cascade_gamma.numerics", "moments", "--p", "0.25", "--format", fmt) == (0, False)


@pytest.mark.parametrize("argv, imported", [
    (("moments", "--p", "0.25"), False),
    (("extinction", "--p", "0.7"), False),
    (("moments", "--p=0.25"), True),  # declined by the direct parse
], ids=lambda value: " ".join(value) if isinstance(value, tuple) else str(value))
def test_well_formed_argvs_never_import_argparse(argv, imported):
    # main parses `--flag value` pairs from the option tables; argparse,
    # about a tenth of a cold start, is imported only for other argvs.
    assert loaded("argparse", *argv) == (0, imported)


def test_cold_start_script_times_every_command():
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "cold_start.py"), "--runs", "1", SRC],
                          capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stderr
    rows = [line.rsplit(None, 4) for line in done.stdout.splitlines()[2:]]
    assert [row[0] for row in rows] == ["moments --p 0.25", "moments --p 0.25 --format csv",
                                        "moments --p 0.25 --m 10", "extinction --p 0.7",
                                        "moments --p=0.25", "--help"]
    for _, median, q1, q3, src in rows:
        assert 0.0 < float(q1) == float(median) == float(q3) and src == SRC


# The names the package exports, in the order an eager import of its modules gave.
EXPORTS = [
    "CascadeError", "DomainError", "NoSignChangeError", "ToleranceError", "CriticalityError",
    "Interval", "QuadratureResult", "log_gamma", "lambert_w_m1", "solve_bracketed",
    "integrate_adaptive",
    "ModelParams", "Moments", "ExtinctionReport", "NormalizationCheck", "DensityTable",
    "log_density", "density", "asymptotic_log_density", "moments", "extinction",
    "extinction_gap_root", "verify_normalization", "density_table",
    "DiscretizationParams", "CascadePmf", "cascade_log_pmf",
    "cascade_pmf_table", "discrete_moments", "martingale_alpha", "rescaled_density_estimate",
    "CHUNK_TRIALS", "HIST_LO", "HIST_HI", "HIST_BINS", "HIST_EDGES", "SimConfig", "SimSummary",
    "run_campaign",
    "__version__",
]


def test_package_exports_are_unchanged():
    assert cascade_gamma.__all__ == EXPORTS
    namespace = {}
    exec("from cascade_gamma import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(EXPORTS)
    assert all(namespace[name] is getattr(cascade_gamma, name) for name in EXPORTS)
    assert cascade_gamma.moments is cascade_gamma.continuum.moments
    assert set(EXPORTS) <= set(dir(cascade_gamma))
    with pytest.raises(AttributeError):
        cascade_gamma.no_such_name
