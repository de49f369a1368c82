"""Spans and counters around the package's public functions.

The tracer replaces module attributes of cascade_gamma with timing
wrappers while it is installed and puts the originals back when it is
removed.  The package calls across modules through those attributes
(cli calls continuum.verify_normalization, continuum calls
numerics.integrate_adaptive and its own density), so every call made
while a job runs is seen.  Nothing inside the package changes.

Functions listed in SPANS get one span per call: name, start, end,
parent span and job.  The per-element functions in COUNTERS (density,
log_gamma) are called up to millions of times per pass, so they only
add to aggregate counts and times, kept apart for scalar and array
arguments.  Self time of a function is its time
minus the time of the wrapped calls directly inside it.  Everything
stays in memory until the run writes it out.
"""

from __future__ import annotations

import inspect
import itertools
from collections import defaultdict
from time import perf_counter

import numpy as np

SPANS = {
    "numerics": ("integrate_adaptive", "lambert_w_m1", "solve_bracketed"),
    "continuum": ("density_table", "verify_normalization", "extinction",
                  "extinction_gap_root", "moments"),
    "discrete": ("cascade_log_pmf", "cascade_pmf_table", "discrete_moments"),
    "simulate": ("run_campaign",),
}
COUNTERS = {
    "numerics": ("log_gamma",),
    "continuum": ("density",),
}


class Tracer:
    def __init__(self, package):
        self._package = package
        self._stack: list[list] = []       # open frames: [child seconds, span id or None]
        self._saved: list[tuple] = []
        self._ids = itertools.count()
        self.job = -1                       # index of the job being run
        self.spans: list[tuple] = []        # (id, parent id, job, name, start, end)
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])   # name -> [calls, seconds, self seconds]
        self.counts = defaultdict(float)                    # name -> count or maximum
        cascade_pmf_table = package.discrete.cascade_pmf_table
        self._pmf_row_cap = inspect.signature(cascade_pmf_table).parameters["max_rows"].default

    def install(self) -> None:
        for module_name, names in SPANS.items():
            for name in names:
                self._replace(module_name, name, self._span)
        for module_name, names in COUNTERS.items():
            for name in names:
                self._replace(module_name, name, self._counter)

    def _replace(self, module_name: str, name: str, wrap) -> None:
        module = getattr(self._package, module_name)
        original = getattr(module, name)
        self._saved.append((module, name, original))
        setattr(module, name, wrap(f"{module_name}.{name}", original))

    def remove(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def call(self, name: str, fn, *args):
        """Run fn(*args) as a root span (one per CLI job)."""
        return self._span(name, fn)(*args)

    def _span(self, name: str, fn):
        stack, totals, spans, ids = self._stack, self.totals, self.spans, self._ids

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, next(ids)]
            stack.append(frame)
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                seconds = end - start
                if parent is not None:
                    parent[0] += seconds
                total = totals[name]
                total[0] += 1
                total[1] += seconds
                total[2] += seconds - frame[0]
                spans.append((frame[1], parent[1] if parent else None, self.job, name, start, end))
                self._note(name, result, error)

        return wrapper

    def _counter(self, name: str, fn):
        """Aggregate-only wrapper for per-element functions; arrays count by element."""
        stack, counts = self._stack, self.counts
        scalar, array = self.totals[name + ".scalar"], self.totals[name + ".array"]

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, None]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent[0] += seconds
                if isinstance(args[-1], np.ndarray):
                    total = array
                    counts[name + ".array.elems"] += args[-1].size
                else:
                    total = scalar
                total[0] += 1
                total[1] += seconds
                total[2] += seconds - frame[0]

        return wrapper

    def _note(self, name: str, result, error) -> None:
        """Exact work counts read from the result objects."""
        counts = self.counts
        if name == "numerics.integrate_adaptive":
            quadrature = result if error is None else getattr(error, "result", None)
            if quadrature is not None:
                counts["numerics.integrate_adaptive.evals"] += quadrature.evaluations
        elif name == "continuum.verify_normalization" and result is not None:
            counts["continuum.verify_normalization.x_max"] = max(
                counts["continuum.verify_normalization.x_max"], result.x_max)
        elif name == "discrete.cascade_pmf_table" and result is not None:
            counts["discrete.cascade_pmf_table.rows"] += len(result)
            counts["discrete.cascade_pmf_table.cap_hits"] += len(result) >= self._pmf_row_cap
