"""Command line front end.

Subcommands mirror the library surface: density, pmf, moments,
extinction, simulate, verify.  Exit codes: 0 success, 2 usage or
domain errors, 3 numerical failures (tolerance not met, verification
residual above tolerance).  CSV payloads carry '#' comment lines
echoing the parameters, a fixed header, floats written as
'%.17g' (17 significant digits, 'inf' and 'nan' spelled so) and LF
line endings.  JSON payloads use sorted keys and an indent of 2, with
floats written as their shortest round-trip repr ('Infinity' and 'NaN'
for the non-finite ones).  Tables are formatted in blocks of rows and
streamed to the output: floattext.cells writes each column of a block
as a zero-padded byte matrix, with Python's own bytes for every cell,
and _joined reads the rows out of the cells and separators laid side
by side.  Outputs are byte-reproducible for identical invocations.

Every option may instead be given in a --config file of `key = value`
lines (keys match the long option names without the leading dashes);
setting the same option in both places is an error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from . import continuum, discrete, simulate
from .errors import CascadeError, CriticalityError, DomainError, ToleranceError

__all__ = ["main", "entrypoint"]

_ROUTE_GAP_TOL = 1e-10


class _UsageError(Exception):
    pass


def _real(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("expected a finite real number")
    return value


def _integer(text: str) -> int:
    return int(text, 10)


def _choice(*options: str) -> Callable[[str], str]:
    def convert(text: str) -> str:
        if text not in options:
            raise ValueError(f"expected one of: {', '.join(options)}")
        return text

    convert.__name__ = "|".join(options)
    return convert


@dataclass(frozen=True)
class _Option:
    dest: str
    flag: str
    convert: Callable[[str], object]
    default: object = None
    required: bool = False
    help: str = ""


def _opt_p() -> _Option:
    return _Option("p", "--p", _real, required=True, help="offspring scale p > 0")


def _opt_out() -> _Option:
    return _Option("out", "--out", str, default="-", help="output path, or - for stdout")


def _opt_format(default: str) -> _Option:
    return _Option(
        "format", "--format", _choice("csv", "json"), default=default,
        help=f"output format (default {default})",
    )


# Rows formatted at once: enough that the per-block cost vanishes, few
# enough that a block's byte matrices stay under 1 MB.
_BLOCK_ROWS = 4096

# Stands in for an array in the dumped payload until the array is spliced in.
_ARRAY_MARK = "\0array:"


def _joined(columns: list[np.ndarray], style: str, ends: list[bytes]) -> str:
    """Row i of the text: element i of each column, each followed by its end.

    floattext.cells writes each column in style ("csv" or "json") as a
    zero-padded byte matrix.  The matrices and the ends are laid side by
    side in one matrix, read out row by row without the zeros.
    """
    # Imported here, by CSV and JSON arrays only: compiling the module and
    # building its tables takes milliseconds that other JSON output skips.
    from . import floattext

    texts = [floattext.cells(column, style)[0] for column in columns]
    full = np.empty((len(texts[0]), sum(t.shape[1] + len(e) for t, e in zip(texts, ends))),
                    np.uint8)
    at = 0
    for text, end in zip(texts, ends):
        full[:, at:at + text.shape[1]] = text
        at += text.shape[1]
        full[:, at:at + len(end)] = np.frombuffer(end, np.uint8)
        at += len(end)
    return full[full != 0].tobytes().decode()


def _csv_text(comments: list[str], header: list[str], columns,
              trailer: Iterable[str] = ()) -> Iterator[str]:
    """A CSV table in pieces: '#' comments, header, rows, '#' trailer lines.

    columns[j][i] is the cell in row i, column j.  Integer columns are
    written as '%d', float columns as '%.17g' (equal to format(v, '.17g')
    for every float) and any other column as text, by floattext.cells;
    no cell needs CSV quoting.
    """
    columns = [np.asarray(column) for column in columns]
    ends = [b","] * (len(columns) - 1) + [b"\n"]
    yield "".join(f"# {line}\n" for line in comments) + ",".join(header) + "\n"
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        yield _joined([column[start:start + _BLOCK_ROWS] for column in columns], "csv", ends)
    yield "".join(f"# {line}\n" for line in trailer)


def _json_text(payload: dict, arrays: dict[str, np.ndarray] | None = None) -> Iterator[str]:
    """payload plus the arrays as sorted-key, indent-2 JSON, in pieces.

    An array's key is its path of payload keys joined by dots: "x" is
    payload["x"] and "histogram.counts" is payload["histogram"]["counts"].
    The rest goes through json.dumps(indent=2), which any indent keeps
    on the pure-Python encoder.  Each array is written block by block by
    floattext.cells, items as json.dumps writes them, with the item
    separator indent 2 would use at its depth, and spliced in at its key,
    so the bytes equal one json.dumps of the whole dict.
    """
    arrays = arrays or {}
    doc = dict(payload)
    for key in arrays:
        *parents, leaf = key.split(".")
        node = doc
        for name in parents:
            inner = dict(node[name])
            node[name] = inner
            node = inner
        node[leaf] = _ARRAY_MARK + key
    text = json.dumps(doc, indent=2, sort_keys=True)
    # sort_keys writes the arrays in the order of their sorted key paths.
    for key in sorted(arrays, key=lambda key: key.split(".")):
        head, text = text.split(json.dumps(_ARRAY_MARK + key), 1)
        values = arrays[key]
        if not len(values):
            yield head + "[]"
            continue
        indent = "\n" + "  " * (key.count(".") + 1)
        separator = "," + indent + "  "
        ends = [separator.encode()]
        yield head + "[" + indent + "  "
        for start in range(0, len(values), _BLOCK_ROWS):
            block = _joined([values[start:start + _BLOCK_ROWS]], "json", ends)
            yield block if start + _BLOCK_ROWS < len(values) else block[:-len(separator)]
        yield indent + "]"
    yield text + "\n"


def _emit(pieces: Iterable[str], out: str) -> None:
    if out == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", encoding="utf-8", newline="") as stream:
            stream.writelines(pieces)


def _cmd_density(ns) -> int:
    params = continuum.ModelParams(ns.p)
    table = continuum.density_table(params, ns.x_min, ns.x_max, ns.steps)
    if ns.format == "csv":
        comments = [
            "cascade-gamma density",
            f"p = {params.p!r}",
            f"x-min = {ns.x_min!r}",
            f"x-max = {ns.x_max!r}",
            f"steps = {ns.steps!r}",
        ]
        text = _csv_text(comments, ["x", "density", "asymptotic"],
                         [table.x, table.density, table.asymptotic])
    else:
        text = _json_text(
            {"p": params.p, "x_min": ns.x_min, "x_max": ns.x_max, "steps": ns.steps},
            {"x": table.x, "density": table.density, "asymptotic": table.asymptotic},
        )
    _emit(text, ns.out)
    return 0


def _cmd_pmf(ns) -> int:
    params = discrete.DiscretizationParams(ns.p, ns.m)
    table = discrete.cascade_pmf_table(params, params.m, n_max=ns.n_max)
    rescaled = params.m * table.probabilities
    if ns.format == "csv":
        comments = [
            "cascade-gamma pmf",
            f"p = {params.p!r}",
            f"m = {params.m!r}",
            f"delta = {params.delta!r}",
            f"r-star = {params.r_star!r}",
            f"q-star = {params.q_star!r}",
            f"tail-bound = {table.tail_bound!r}",
            f"truncated = {str(table.truncated).lower()}",
        ]
        text = _csv_text(comments, ["n", "pmf", "rescaled_density"],
                         [table.n_values, table.probabilities, rescaled],
                         [f"cumulative-mass = {table.total_mass!r}"])
    else:
        text = _json_text(
            {
                "p": params.p,
                "m": params.m,
                "delta": params.delta,
                "r_star": params.r_star,
                "q_star": params.q_star,
                "n_start": params.m,
                "cumulative_mass": table.total_mass,
                "tail_bound": table.tail_bound,
                "truncated": table.truncated,
            },
            {"pmf": table.probabilities, "rescaled_density": rescaled},
        )
    _emit(text, ns.out)
    return 0


def _flat(payload: dict, prefix: str = "") -> dict:
    """payload with nested keys joined by "_": {"a": {"b": 1}} gives {"a_b": 1}."""
    flat = {}
    for key, value in payload.items():
        if isinstance(value, dict):
            flat.update(_flat(value, f"{prefix}{key}_"))
        else:
            flat[prefix + key] = value
    return flat


def _row_csv(title: str, payload: dict) -> Iterator[str]:
    """payload as a one-row CSV table under the comment title."""
    flat = _flat(payload)
    return _csv_text([title], list(flat), [[value] for value in flat.values()])


def _cmd_moments(ns) -> int:
    params = continuum.ModelParams(ns.p)
    result = continuum.moments(params)
    payload = {"p": params.p, "mean": result.mean, "variance": result.variance}
    if ns.m is not None:
        dparams = discrete.DiscretizationParams(ns.p, ns.m)
        dmoments = discrete.discrete_moments(dparams)
        payload["m"] = dparams.m
        payload["delta"] = dparams.delta
        payload["per_atom"] = {
            "mean": dmoments.per_atom.mean,
            "variance": dmoments.per_atom.variance,
        }
        payload["total"] = {
            "mean": dmoments.total.mean,
            "variance": dmoments.total.variance,
        }
    if ns.format == "csv":
        text = _row_csv("cascade-gamma moments", payload)
    else:
        text = _json_text(payload)
    _emit(text, ns.out)
    return 0


def _extinction_routes(params: continuum.ModelParams) -> tuple[continuum.ExtinctionReport, float, float]:
    """The Lambert route's report, the root route's gap and the distance between the gaps."""
    report = continuum.extinction(params)
    fixed_point = continuum.extinction_gap_root(params)
    return report, fixed_point, abs(report.decay_gap - fixed_point)


def _cmd_extinction(ns) -> int:
    params = continuum.ModelParams(ns.p)
    report, fixed_point, route_gap = _extinction_routes(params)
    payload = {
        "p": params.p,
        "decay_gap": report.decay_gap,
        "log_prob_finite": report.log_prob_finite,
        "prob_finite": report.prob_finite,
        "decay_gap_fixed_point": fixed_point,
        "route_gap": route_gap,
    }
    if ns.format == "csv":
        text = _row_csv("cascade-gamma extinction", payload)
    else:
        text = _json_text(payload)
    _emit(text, ns.out)
    return 0


def _histogram_csv(summary: simulate.SimSummary) -> Iterator[str]:
    config = summary.config
    comments = [
        "cascade-gamma simulate histogram",
        f"mode = {config.mode}",
        f"p = {config.p!r}",
        f"m = {config.m!r}",
        f"trials = {config.trials!r}",
        f"seed = {config.seed!r}",
        f"cap = {config.cap!r}",
        f"epsilon = {config.epsilon!r}",
        f"workers = {config.workers!r}",
        f"n-finite = {summary.n_finite!r}",
        f"n-censored = {summary.n_censored!r}",
        f"mean = {summary.mean!r}",
        f"variance = {summary.variance!r}",
    ]
    # The last row is the overflow bucket [HIST_HI, inf).
    edges = simulate.HIST_EDGES
    columns = [
        np.append(edges[:-1], simulate.HIST_HI),
        np.append(edges[1:], math.inf),
        np.append(summary.bin_counts, summary.overflow),
    ]
    return _csv_text(comments, ["bin_lo", "bin_hi", "count"], columns)


def _cmd_simulate(ns) -> int:
    config = simulate.SimConfig(
        mode=ns.mode,
        p=ns.p,
        trials=ns.trials,
        seed=ns.seed,
        m=ns.m,
        cap=ns.cap,
        workers=ns.workers,
    )
    summary = simulate.run_campaign(config)
    histogram = None
    if ns.format == "csv" or ns.hist_out is not None:
        # Formatted once, when both the output and --hist-out want it.
        histogram = list(_histogram_csv(summary))
    if ns.hist_out is not None:
        _emit(histogram, ns.hist_out)
    if ns.format == "csv":
        text = histogram
    else:
        text = _json_text(summary.to_json_dict(), {"histogram.counts": summary.bin_counts})
    _emit(text, ns.out)
    fraction_se = math.sqrt(
        max(summary.finite_fraction * (1.0 - summary.finite_fraction), 0.0) / summary.trials
    )
    print(
        f"cascade-gamma simulate: mean = {summary.mean!r} +- {summary.se_mean!r}, "
        f"finite fraction = {summary.finite_fraction!r} +- {fraction_se!r}, "
        f"censored = {summary.n_censored}",
        file=sys.stderr,
    )
    return 0


def _cmd_verify(ns) -> int:
    params = continuum.ModelParams(ns.p)
    lambert_report, fixed_point, route_gap = _extinction_routes(params)
    root_target = math.exp(-fixed_point)
    payload = {
        "p": params.p,
        "abs_tol": ns.abs_tol,
        "lambert_target": lambert_report.prob_finite,
        "root_target": root_target,
        "route_gap": route_gap,
    }
    try:
        check = continuum.verify_normalization(params, abs_tol=ns.abs_tol)
    except ToleranceError as exc:
        payload["error"] = str(exc)
        if exc.result is not None:
            payload["integral"] = exc.result.value
            payload["quadrature_error"] = exc.result.abs_error_estimate
        passed = False
    else:
        payload["integral"] = check.integral
        payload["x_max"] = check.x_max
        payload["quadrature_error"] = check.quadrature.abs_error_estimate
        payload["quadrature_evaluations"] = check.quadrature.evaluations
        residual_lambert = abs(check.integral - lambert_report.prob_finite)
        residual_root = abs(check.integral - root_target)
        payload["residual_vs_lambert"] = residual_lambert
        payload["residual_vs_root"] = residual_root
        passed = (
            residual_lambert <= ns.abs_tol
            and residual_root <= ns.abs_tol
            and route_gap <= _ROUTE_GAP_TOL
        )
    payload["passed"] = passed
    if ns.format == "csv":
        text = _csv_text(["cascade-gamma verify"], *_verify_columns(payload))
    else:
        text = _json_text(payload)
    _emit(text, ns.out)
    return 0 if passed else 3


# The columns of a verify run that ends its quadrature; one that stops
# short of the tolerance writes nan where it has no value, plus its error.
_VERIFY_FLOATS = (
    "abs_tol", "integral", "lambert_target", "p", "quadrature_error", "quadrature_evaluations",
    "residual_vs_lambert", "residual_vs_root", "root_target", "route_gap", "x_max",
)


def _verify_columns(payload: dict) -> tuple[list[str], list]:
    """Sorted header and one-row columns of a verify payload, "passed" last.

    The error message is the one text cell; it is quoted, since it can
    hold commas.
    """
    cells = {key: [float(payload.get(key, math.nan))] for key in _VERIFY_FLOATS}
    if "error" in payload:
        cells["error"] = ['"%s"' % payload["error"].replace('"', '""')]
    header = sorted(cells) + ["passed"]
    cells["passed"] = [str(payload["passed"]).lower()]
    return header, [cells[key] for key in header]


_COMMANDS: dict[str, dict] = {
    "density": {
        "help": "tabulate the exact density and its tail asymptote",
        "handler": _cmd_density,
        "options": [
            _opt_p(),
            _Option("x_min", "--x-min", _real, default=1.0, help="grid start (>= 1)"),
            _Option("x_max", "--x-max", _real, default=20.0, help="grid end"),
            _Option("steps", "--steps", _integer, default=200, help="grid points (>= 2)"),
            _opt_format("csv"),
            _opt_out(),
        ],
    },
    "pmf": {
        "help": "tabulate the atomized cascade-size pmf",
        "handler": _cmd_pmf,
        "options": [
            _opt_p(),
            _Option("m", "--m", _integer, required=True, help="atoms per unit mass (1/m < p)"),
            _Option("n_max", "--n-max", _integer, help="last count to tabulate (default: auto)"),
            _opt_format("csv"),
            _opt_out(),
        ],
    },
    "moments": {
        "help": "subcritical mean and variance (optionally the finite-delta ones)",
        "handler": _cmd_moments,
        "options": [
            _opt_p(),
            _Option("m", "--m", _integer, help="also report the atomized moments for this m"),
            _opt_format("json"),
            _opt_out(),
        ],
    },
    "extinction": {
        "help": "finite-cascade probability by two independent routes",
        "handler": _cmd_extinction,
        "options": [
            _opt_p(),
            _opt_format("json"),
            _opt_out(),
        ],
    },
    "simulate": {
        "help": "run a Monte Carlo campaign",
        "handler": _cmd_simulate,
        "options": [
            _Option("mode", "--mode", _choice("continuous", "discrete", "walk"),
                    required=True,
                    help="engine; walk and discrete share one kernel (Dwass identity), "
                         "so equal seeds give equal numbers"),
            _opt_p(),
            _Option("trials", "--trials", _integer, required=True, help="number of trials"),
            _Option("seed", "--seed", _integer, required=True, help="64-bit campaign seed"),
            _Option("m", "--m", _integer, help="atoms per unit mass (discrete/walk)"),
            _Option("cap", "--cap", _real, default=simulate.SimConfig.cap,
                    help="censoring cap on total mass"),
            _Option("workers", "--workers", _integer, default=simulate.SimConfig.workers,
                    help="worker thread count"),
            _opt_format("json"),
            _opt_out(),
            _Option("hist_out", "--hist-out", str, help="also write the histogram CSV here"),
        ],
    },
    "verify": {
        "help": "integrate the density and compare with the extinction routes",
        "handler": _cmd_verify,
        "options": [
            _opt_p(),
            _Option("abs_tol", "--abs-tol", _real, default=1e-6, help="residual tolerance"),
            _opt_format("json"),
            _opt_out(),
        ],
    },
}


# Built once per process: parsing leaves the parser unchanged, and building
# its ~40 actions would cost a few milliseconds on every main() call.
@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, dict[str, _Option]]]:
    parser = argparse.ArgumentParser(
        prog="cascade-gamma",
        description="cascade-size distribution of a branching process with Gamma(2, p) generations",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    registries: dict[str, dict[str, _Option]] = {}
    for name, entry in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=entry["help"])
        sub.add_argument(
            "--config", default=None, metavar="FILE",
            help="read options from a key = value file",
        )
        table: dict[str, _Option] = {}
        for opt in entry["options"]:
            sub.add_argument(opt.flag, dest=opt.dest, type=opt.convert,
                             default=None, help=opt.help)
            table[opt.dest] = opt
        sub.set_defaults(handler=entry["handler"], command=name)
        registries[name] = table
    return parser, registries


def _apply_config(ns, table: dict[str, _Option]) -> None:
    if not ns.config:
        return
    try:
        text = Path(ns.config).read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read config file {ns.config!r}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise _UsageError(f"{ns.config}:{lineno}: expected key = value")
        key, value = key.strip(), value.strip()
        dest = key.replace("-", "_")
        if dest not in table:
            raise _UsageError(f"{ns.config}:{lineno}: unknown option {key!r}")
        if getattr(ns, dest) is not None:
            raise _UsageError(
                f"option --{key} is set more than once (command line or config)"
            )
        try:
            setattr(ns, dest, table[dest].convert(value))
        except (TypeError, ValueError) as exc:
            raise _UsageError(
                f"{ns.config}:{lineno}: bad value {value!r} for {key!r}: {exc}"
            ) from exc


def _fill_defaults(ns, table: dict[str, _Option]) -> None:
    for dest, opt in table.items():
        if getattr(ns, dest) is None:
            if opt.required:
                raise _UsageError(f"missing required option {opt.flag}")
            setattr(ns, dest, opt.default)


def main(argv: list[str] | None = None) -> int:
    parser, registries = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    table = registries[ns.command]
    try:
        _apply_config(ns, table)
        _fill_defaults(ns, table)
    except _UsageError as exc:
        print(f"cascade-gamma {ns.command}: {exc}", file=sys.stderr)
        return 2
    try:
        return ns.handler(ns)
    except (DomainError, CriticalityError) as exc:
        print(f"cascade-gamma {ns.command}: {exc}", file=sys.stderr)
        return 2
    except CascadeError as exc:
        print(f"cascade-gamma {ns.command}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"cascade-gamma {ns.command}: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
