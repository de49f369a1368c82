"""The scripts run, and every public name has a caller outside the tests.

The scripts under scripts/ import the package as any user would; a
deleted or renamed name that one of them uses fails here rather than
on its next run.  Public names that only tests use belong in the
tests, so the guard below fails on any name in a module's __all__ that
nothing in src/, scripts/ or perfbench/ (tests aside) refers to, and on
any public method, property or record field (__slots__ entry) of an
exported class that nothing there reads as an attribute.
"""

import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRIPT_RUNS = [
    ("convergence_study.py", "--p", "0.3", "--view", "density", "--ladder", "10,20"),
    ("convergence_study.py", "--p", "0.3", "--view", "offspring", "--ladder", "10,20"),
    ("convergence_study.py", "--p", "0.6", "--view", "martingale", "--ladder", "10,20"),
    ("mc_cross_check.py", "--p", "0.3", "--m", "10", "--trials", "20000", "--seed", "7"),
    ("mc_cross_check.py", "--p", "0.6", "--m", "10", "--trials", "20000", "--seed", "7"),
]

# Parameters the package rejects (m = 10 puts the lattice step 1/m above
# p), regions where no check of the script applies, and campaigns with
# too few finite trials for a standard error, each with the line written.
_COARSE = "need delta = 1/m < p, got m = 10 with p = 0.05"
REJECTED_RUNS = [
    (("convergence_study.py", "--p", "0.05", "--ladder", "10,20"), _COARSE),
    (("mc_cross_check.py", "--p", "0.05", "--m", "10", "--trials", "100", "--seed", "1"), _COARSE),
    (("convergence_study.py", "--p", "0.3", "--view", "martingale", "--ladder", "10,20"),
     "the martingale view needs supercritical p > 1/2, got p = 0.3"),
    (("mc_cross_check.py", "--p", "0.5", "--m", "10", "--trials", "2000", "--seed", "1"),
     "no check applies at p = 0.5: the mean check needs p < 1/2 and the finite-fraction "
     "check p > 1/2"),
    (("mc_cross_check.py", "--p", "0.3", "--m", "10", "--trials", "1", "--seed", "1"),
     "the mean check needs a standard error, which takes 2 finite trials; the continuous "
     "campaign has 1"),
    (("mc_cross_check.py", "--p", "0.3", "--m", "10", "--trials", "3", "--cap", "1.05",
      "--seed", "1"),
     "the mean check needs a standard error, which takes 2 finite trials; the continuous "
     "campaign has 0"),
]


def _run_script(argv):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]], env=env,
                          capture_output=True, text=True, timeout=120, check=False)


@pytest.mark.parametrize("argv", SCRIPT_RUNS, ids=["density", "offspring", "martingale", "mc_cross_check",
                                                   "mc_cross_check-supercritical"])
def test_script_runs(argv):
    done = _run_script(argv)
    assert done.returncode == 0, done.stdout + done.stderr


@pytest.mark.parametrize("argv, message", REJECTED_RUNS, ids=[
    "convergence_study", "mc_cross_check", "convergence_study-martingale-subcritical",
    "mc_cross_check-critical", "mc_cross_check-one-trial", "mc_cross_check-none-finite"])
def test_script_rejects_parameters_with_one_line(argv, message):
    # Exit 2 and one line naming the script, before any table or
    # campaign is written, as the command line does; no traceback.
    done = _run_script(argv)
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert done.stderr == f"{argv[0]}: {message}\n"


@pytest.mark.parametrize("argv", [
    ("convergence_study.py", "--p", "0.3", "--ladder", "10,abc"),
    ("convergence_study.py", "--p", "0.3", "--ladder", ""),
    ("convergence_study.py", "--p", "0.3", "--ladder", "20,10"),
    ("convergence_study.py", "--p", "0.3", "--ladder", "10,10"),
    ("convergence_study.py", "--p", "0.3", "--points", "0"),
    ("output_digest.py", "--drop", "", "verify", "1"),
    ("output_digest.py", "--drop", "integral,,x_max", "verify", "1"),
], ids=["ladder-not-int", "ladder-empty", "ladder-descending", "ladder-repeated", "points-zero",
        "drop-empty", "drop-empty-key"])
def test_script_rejects_malformed_arguments_with_a_usage_line(argv):
    done = _run_script(argv)
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert done.stderr.startswith("usage: ") and "Traceback" not in done.stderr


@pytest.mark.parametrize("options", [(), ("--format", "csv")], ids=["own-format", "csv"])
def test_output_digest_lists_every_verify_job(options):
    # 40 timed jobs of the verify workload at seed 1, then its 13
    # known-defect jobs; each line is "<sha256> <exit> <argv>".
    argv = ("output_digest.py", *options, "verify", "1")
    first, second = _run_script(argv), _run_script(argv)
    assert first.returncode == 0, first.stderr
    lines = first.stdout.splitlines()
    assert len(lines) == 53
    assert all(re.fullmatch(r"[0-9a-f]{64} -?[0-9]+ [a-z].*", line) for line in lines), lines
    assert [line.split()[1] for line in lines[:40]] == ["0"] * 40
    assert second.stdout == first.stdout


def _assigned(node, name: str):
    """The literal value node assigns to name, or None if it is no such assignment."""
    if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets):
        return ast.literal_eval(node.value)
    return None


def _public_names() -> tuple[dict[str, str], dict[str, str]]:
    """Every name in a package module's __all__, mapped to its module, and
    every public method, property or __slots__ field of such a class,
    "module.Class.name" mapped to the name."""
    names, members = {}, {}
    for path in sorted((SRC / "cascade_gamma").glob("*.py")):
        body = ast.parse(path.read_text()).body
        for node in body:
            names.update(dict.fromkeys(_assigned(node, "__all__") or (), path.stem))
        for node in body:
            if isinstance(node, ast.ClassDef) and node.name in names:
                for item in node.body:
                    fields = [item.name] if isinstance(item, ast.FunctionDef) else (
                        _assigned(item, "__slots__") or ())
                    members.update({f"{path.stem}.{node.name}.{field}": field
                                    for field in fields if not field.startswith("_")})
    return names, members


def _used_names() -> tuple[set[str], set[str]]:
    """The names loaded as variables, and those read as attributes, outside the tests.

    A definition (def, class or assignment) and an __all__ entry (a
    string) are not uses, so a name that is only defined and exported
    is missing here.
    """
    variables, attributes = set(), set()
    for folder in ("src", "scripts", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            if "tests" in path.relative_to(ROOT).parts:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    variables.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
    return variables, attributes


def test_every_public_name_has_a_caller_outside_the_tests():
    (names, members), (variables, attributes) = _public_names(), _used_names()
    test_only = [f"{module}.{name}" for name, module in names.items()
                 if name not in variables | attributes]
    test_only += [member for member, name in members.items() if name not in attributes]
    assert not test_only, f"public names that only tests use: {test_only}"
    # The members are found: the records' properties, methods and fields among them.
    assert {"simulate.SimSummary.merge", "discrete.CascadePmf.total_mass",
            "discrete.CascadePmf.tail_bound", "continuum.ModelParams.p"} <= set(members)


def test_output_digest_drops_top_level_keys_of_json_outputs():
    # --drop digests each JSON object without the named top-level keys,
    # written again with sorted keys; a CSV output is digested as it is.
    drop = ("integral", "x_max")
    plain, dropped, csv, csv_dropped = (_run_script(("output_digest.py", *options, "verify", "1"))
                                        for options in ((), ("--drop", ",".join(drop)),
                                                        ("--format", "csv"),
                                                        ("--format", "csv", "--drop", ",".join(drop))))
    assert all(done.returncode == 0 for done in (plain, dropped, csv, csv_dropped))
    # Same jobs, exit codes and argvs; every output of the verify
    # workload is a JSON object, so every digest moves.
    pairs = list(zip(plain.stdout.splitlines(), dropped.stdout.splitlines(), strict=True))
    assert all(a.split(" ", 1)[1] == b.split(" ", 1)[1] and a[:64] != b[:64] for a, b in pairs)
    sha, _, *argv = dropped.stdout.splitlines()[0].split()
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "cascade_gamma", *argv], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=60, check=False).stdout
    kept = {key: value for key, value in json.loads(out).items() if key not in drop}
    assert sha == hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()
    assert csv_dropped.stdout == csv.stdout
