"""The package names and call shapes that perfbench/ relies on.

The benchmark wraps module attributes (perfbench/tracer.py) and calls
the layer kernels directly (perfbench/microbench.py).  Its own tests
are not in this suite, so these checks make a rename in the package
fail here instead of in the next benchmark run.  Both files are loaded
as they are, from their paths.
"""

import contextlib
import importlib.util
import inspect
import io
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import cascade_gamma
from cascade_gamma import cli, continuum, discrete, floattext, numerics, simulate

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# One small job per command; together they call every traced function.
JOBS = (
    ("verify", "--p", "0.6"),
    ("extinction", "--p", "0.6"),
    ("moments", "--p", "0.25", "--m", "10"),
    ("density", "--p", "0.3", "--steps", "50"),
    ("pmf", "--p", "0.3", "--m", "10", "--n-max", "100"),
    ("simulate", "--mode", "discrete", "--p", "0.3", "--m", "10", "--trials", "100", "--seed", "1"),
)


def _load(name, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_name_and_puts_it_back(monkeypatch):
    tracer_module = _load("tracer", monkeypatch)
    hooks = [(module, name) for table in (tracer_module.SPANS, tracer_module.COUNTERS)
             for module, names in table.items() for name in names]
    originals = {hook: getattr(getattr(cascade_gamma, hook[0]), hook[1]) for hook in hooks}
    assert all(callable(fn) for fn in originals.values())

    tracer = tracer_module.Tracer(cascade_gamma)
    tracer.install()
    try:
        for tracer.job, argv in enumerate(JOBS):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert tracer.call("job", cli.main, list(argv)) == 0, argv
    finally:
        tracer.remove()

    for module, name in hooks:
        assert getattr(getattr(cascade_gamma, module), name) is originals[module, name]
    calls = {name: total[0] for name, total in tracer.totals.items()}
    for module, names in tracer_module.SPANS.items():
        for name in names:
            assert calls.get(f"{module}.{name}", 0) > 0, name
    for module, names in tracer_module.COUNTERS.items():
        for name in names:
            assert calls[f"{module}.{name}.scalar"] + calls[f"{module}.{name}.array"] > 0, name
    # Read from QuadratureResult.evaluations, NormalizationCheck.x_max and len(CascadePmf).
    for count in ("numerics.integrate_adaptive.evals", "continuum.verify_normalization.x_max",
                  "discrete.cascade_pmf_table.rows"):
        assert tracer.counts[count] > 0, count


def test_microbench_calls_bind_to_the_package(monkeypatch):
    # microbench.run gets a package whose kernels only bind each call to
    # the real signature, so its own calls are checked at no cost.
    bound = set()

    def binding(fn, result=None):
        signature = inspect.signature(fn)

        def stub(*args, **kwargs):
            signature.bind(*args, **kwargs)
            bound.add(fn.__name__)
            return result

        return stub

    microbench = _load("microbench", monkeypatch)
    one_panel = SimpleNamespace(evaluations=15)
    summary = SimpleNamespace(merge=lambda other: None)
    package = SimpleNamespace(
        numerics=SimpleNamespace(
            Interval=numerics.Interval,
            log_gamma=binding(numerics.log_gamma),
            integrate_adaptive=binding(numerics.integrate_adaptive, one_panel),
        ),
        continuum=SimpleNamespace(
            ModelParams=continuum.ModelParams,
            density_table=binding(continuum.density_table),
            extinction=binding(continuum.extinction),
            extinction_gap_root=binding(continuum.extinction_gap_root),
        ),
        discrete=SimpleNamespace(
            DiscretizationParams=discrete.DiscretizationParams,
            cascade_log_pmf=binding(discrete.cascade_log_pmf),
        ),
        simulate=SimpleNamespace(
            CHUNK_TRIALS=simulate.CHUNK_TRIALS,
            SimConfig=binding(simulate.SimConfig),
            run_campaign=binding(simulate.run_campaign, summary),
        ),
    )
    metrics = microbench.run(package)
    assert bound == {"log_gamma", "integrate_adaptive", "density_table", "extinction",
                     "extinction_gap_root", "cascade_log_pmf", "SimConfig", "run_campaign"}
    assert all(unit for _, unit in metrics.values())


def test_table_cells_stay_on_the_vector_path(monkeypatch):
    """The seed-1 `tables` jobs hand almost no cell to Python's formatter.

    Each job runs in both formats, so every column is written both as
    '%.17g' and as repr.  Before tails below 1e-290 were scaled by 2^256,
    8,746 of the cells these jobs write in their own formats went to
    Python, one by one.  What is left is negative values, exact ties and
    decisions within 1e-9 of a boundary.
    """
    workloads = _load("workloads", monkeypatch)
    written = mock.patch.object(floattext, "_cells", wraps=floattext._cells)
    fallback = mock.patch.object(floattext, "_python_cells", wraps=floattext._python_cells)
    for fmt in ("csv", "json"):
        with written as cells, fallback as python_cells, contextlib.redirect_stdout(io.StringIO()):
            for job in workloads.generate("tables", 1):
                at = job.argv.index("--format") + 1
                argv = [*job.argv[:at], fmt, *job.argv[at + 1:]]
                assert cli.main(argv) == 0, argv
        total = sum(len(call.args[0]) for call in cells.call_args_list)
        slow = sum(len(call.args[0]) for call in python_cells.call_args_list)
        assert total > 10**5
        assert slow < 1e-4 * total, (fmt, slow, total)
