"""Command line front end.

Subcommands mirror the library surface: density, pmf, moments,
extinction, simulate, verify.  Exit codes: 0 success, 2 usage or domain
errors, 3 numerical failures (tolerance not met, verification residual
above tolerance, or the two extinction routes of extinction and verify
more than 1e-10 apart; the payload is still written).  This module alone
names what each command writes: the library's records carry values, not
output names, and no written value has two sources.  CSV payloads carry
'#' comment lines echoing the parameters, a fixed header, floats written
as '%.17g' (17 significant digits, 'inf' and 'nan' spelled so) and LF
line endings.  A table command states each parameter once, in a dict
whose items JSON writes as they stand and _comments writes as
'# key = value' lines: "-" for "_" in the key, a bool as JSON writes it
('true', 'false'), a str as it stands and any other value as its repr.
JSON payloads use sorted keys and an indent of 2, with floats written as
their shortest round-trip repr ('Infinity' and 'NaN' for the non-finite
ones): _json_text writes each run of scalar items by json's C encoder
and each array as tables are written.  Tables are streamed to the
output in blocks of rows, which floattext.lines writes with Python's
own bytes for every cell; a one-row table is written by _cell in
Python.  Outputs are byte-reproducible for identical invocations.

Every command takes --config, --p, --format and --out.  Each command's
entry in _COMMANDS holds its handler, its help line and every option
but --config, keyed by flag; an option's dest is its flag without the
dashes, "_" for "-".  A --config file of `key = value` lines names
every option by its flag without the dashes ("_" reads as "-");
setting the same option in both places is an error.  main parses an
argv of a command name and exact `--flag value` pairs of its options
from that entry alone (_parse_direct), into the attributes argparse
would give it.  Every other argv, help and every usage error among
them, goes to the top-level argparse parser, which _build_parser
declares from the same entries; argparse is imported only then, and is
the one source of usage text, messages and their exit codes.

discrete and simulate are imported by the commands that use them,
floattext by the writers of tables of more than one row, and numpy on
its first use (cascade_gamma._lazy), so moments and extinction, --help
and usage errors finish without loading numpy, and scalar output
without building floattext's tables.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path
from types import SimpleNamespace

from . import continuum
from ._lazy import np
from ._record import Record
from .errors import CascadeError, CriticalityError, DomainError, ToleranceError

__all__ = ["main", "entrypoint"]

_ROUTE_GAP_TOL = 1e-10


def _real(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("expected a finite real number")
    return value


def _integer(text: str) -> int:
    return int(text, 10)


# argparse names the converter in its message: "invalid real value: 'abc'".
_real.__name__, _integer.__name__ = "real", "integer"


def _choice(*options: str) -> Callable[[str], str]:
    def convert(text: str) -> str:
        if text not in options:
            raise ValueError(f"expected one of: {', '.join(options)}")
        return text

    convert.__name__ = "|".join(options)
    return convert


class _Option(Record):
    """A command option: its --flag, the converter of its text, the value it
    takes unset, and its dest, the namespace attribute it sets: the flag's
    name with "_" for "-"."""

    __slots__ = ("flag", "convert", "default", "required", "help", "dest")

    def __init__(self, flag: str, convert: Callable[[str], object], default: object = None,
                 required: bool = False, help: str = ""):
        super().__init__(flag, convert, default, required, help, flag[2:].replace("-", "_"))


def _csv_text(comments: list[str], header: list[str], columns,
              trailer: Iterable[str] = ()) -> Iterator[str]:
    """A CSV table in pieces: '#' comments, header, rows, '#' trailer lines.

    columns[j][i] is the cell in row i, column j, and there is at least
    one row.  Integer columns are written as '%d' and float columns as
    '%.17g' (equal to format(v, '.17g') for every float), by
    floattext.lines; a one-row table, as the scalar commands write, by
    _cell, which leaves numpy unloaded.  Cells are written unquoted.
    """
    yield "".join(f"# {line}\n" for line in comments) + ",".join(header) + "\n"
    if len(columns[0]) == 1:
        yield ",".join(_cell(column[0]) for column in columns)
    else:
        from . import floattext

        yield from floattext.lines([np.asarray(column) for column in columns], "csv",
                                   [","] * (len(columns) - 1) + ["\n"])
    yield "\n" + "".join(f"# {line}\n" for line in trailer)


def _cell(value) -> str:
    """value as floattext.lines writes it in a CSV column of its type, or
    str(value) for any other type, such as verify's quoted error."""
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, int) and not isinstance(value, bool):
        return "%d" % value
    return str(value)


# A payload value that json's C encoder writes as it stands.
_SCALARS = (str, int, float, type(None))


@functools.cache
def _items_encoder(depth: int) -> json.JSONEncoder:
    """json's C encoder (no indent), writing a dict's items as indent 2 does at depth."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * depth, ": "))


def _json_text(payload: dict, depth: int = 1) -> Iterator[str]:
    """payload as json.dumps(payload, indent=2, sort_keys=True) writes it, in pieces.

    A value is a scalar, a dict or an array (a list or 1-d numpy array
    of numbers, as np.asarray makes it); depth counts the indents of the
    items.  The keys are walked in sorted order.  Each run of consecutive
    scalar items is one call of _items_encoder with the braces stripped,
    so a flat payload is one C-encoder call; a dict recurses one level
    deeper; an array is written by floattext.lines, items as json.dumps
    writes them.
    """
    indent = "\n" + "  " * depth
    lead = "{" + indent
    for scalar, keys in itertools.groupby(sorted(payload),
                                          lambda key: isinstance(payload[key], _SCALARS)):
        if scalar:
            yield lead + _items_encoder(depth).encode({key: payload[key] for key in keys})[1:-1]
            lead = "," + indent
            continue
        for key in keys:
            value = payload[key]
            yield lead + json.dumps(key) + ": "
            lead = "," + indent
            if isinstance(value, dict):
                yield from _json_text(value, depth + 1)
            elif not len(value):
                yield "[]"
            else:
                from . import floattext

                item = "," + indent + "  "
                yield "[" + item[1:]
                yield from floattext.lines([np.asarray(value)], "json", [item])
                yield indent + "]"
    yield (indent[:-2] + "}" if payload else "{}") + ("\n" if depth == 1 else "")


def _emit(pieces: Iterable[str], out: str) -> None:
    if out == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", encoding="utf-8", newline="") as stream:
            stream.writelines(pieces)


def _comments(scalars: dict) -> list[str]:
    """The 'key = value' comment lines of scalars, by the rule of the module docstring."""
    return [f"{key.replace('_', '-')} = "
            + (json.dumps(value) if isinstance(value, bool) else
               value if isinstance(value, str) else repr(value))
            for key, value in scalars.items()]


def _cmd_density(ns) -> int:
    params = continuum.ModelParams(ns.p)
    table = continuum.density_table(params, ns.x_min, ns.x_max, ns.steps)
    scalars = {"p": params.p, "x_min": ns.x_min, "x_max": ns.x_max, "steps": ns.steps}
    columns = {"x": table.x, "density": table.density, "asymptotic": table.asymptotic}
    if ns.format == "csv":
        text = _csv_text(["cascade-gamma density", *_comments(scalars)], list(columns),
                         list(columns.values()))
    else:
        text = _json_text(scalars | columns)
    _emit(text, ns.out)
    return 0


def _cmd_pmf(ns) -> int:
    from . import discrete

    params = discrete.DiscretizationParams(ns.p, ns.m)
    table = discrete.cascade_pmf_table(params, n_max=ns.n_max)
    scalars = {"p": params.p, "m": params.m, "delta": params.delta, "r_star": params.r_star,
               "q_star": params.q_star, "tail_bound": table.tail_bound,
               "truncated": table.truncated}
    columns = {"pmf": table.probabilities, "rescaled_density": params.m * table.probabilities}
    # The mass closes the CSV table, and JSON also gives the first count.
    mass = {"cumulative_mass": table.total_mass}
    if ns.format == "csv":
        text = _csv_text(["cascade-gamma pmf", *_comments(scalars)], ["n", *columns],
                         [np.arange(params.m, params.m + len(table)), *columns.values()],
                         _comments(mass))
    else:
        text = _json_text(scalars | mass | columns | {"n_start": params.m})
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


def _emit_row(ns, payload: dict, row: dict | None = None) -> None:
    """payload as JSON, or row (by default payload flattened) as a one-row CSV table."""
    if ns.format == "csv":
        row = _flat(payload) if row is None else row
        text = _csv_text([f"cascade-gamma {ns.command}"], list(row),
                         [[value] for value in row.values()])
    else:
        text = _json_text(payload)
    _emit(text, ns.out)


def _cmd_moments(ns) -> int:
    params = continuum.ModelParams(ns.p)
    result = continuum.moments(params)
    payload = {"p": params.p, "mean": result.mean, "variance": result.variance}
    if ns.m is not None:
        from . import discrete

        dparams = discrete.DiscretizationParams(ns.p, ns.m)
        per_atom = discrete.discrete_moments(dparams)
        payload |= {"m": dparams.m, "delta": dparams.delta,
                    "per_atom": {"mean": per_atom.mean, "variance": per_atom.variance},
                    "total": {"mean": result.mean, "variance": result.variance}}
    _emit_row(ns, payload)
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
    _emit_row(ns, payload)
    return 0 if route_gap <= _ROUTE_GAP_TOL else 3


def _histogram_csv(summary, scalars: dict) -> Iterator[str]:
    """The histogram of a simulate.SimSummary as CSV under scalars, the overflow bucket last."""
    from . import simulate

    # The last row is the overflow bucket [HIST_HI, inf).
    edges = simulate.HIST_EDGES
    columns = [
        np.append(edges[:-1], simulate.HIST_HI),
        np.append(edges[1:], math.inf),
        np.append(summary.bin_counts, summary.overflow),
    ]
    return _csv_text(["cascade-gamma simulate histogram", *_comments(scalars)],
                     ["bin_lo", "bin_hi", "count"], columns)


def _cmd_simulate(ns) -> int:
    from . import simulate

    # The options left unset take SimConfig's own defaults.
    optional = {name: getattr(ns, name) for name in ("m", "cap", "workers")}
    config = simulate.SimConfig(
        mode=ns.mode, p=ns.p, trials=ns.trials, seed=ns.seed,
        **{name: value for name, value in optional.items() if value is not None},
    )
    summary = simulate.run_campaign(config)
    echo = {key: getattr(config, key)
            for key in ("mode", "p", "m", "trials", "seed", "cap", "epsilon", "workers")}
    stats = {key: getattr(summary, key) for key in ("n_finite", "n_censored", "mean", "variance")}
    histogram = None
    if ns.format == "csv" or ns.hist_out is not None:
        # Formatted once, when both the output and --hist-out want it.
        histogram = list(_histogram_csv(summary, echo | stats))
    if ns.hist_out is not None:
        _emit(histogram, ns.hist_out)
    if ns.format == "csv":
        text = histogram
    else:
        text = _json_text(stats | {
            "config": echo | {"delta": None if config.m is None else 1.0 / config.m},
            "trials": summary.trials,
            "finite_fraction": summary.finite_fraction,
            "se_mean": summary.se_mean,
            "sum_z": float(summary.sum_z),
            "sum_z_sq": float(summary.sum_z_sq),
            "histogram": {"lo": simulate.HIST_LO, "hi": simulate.HIST_HI,
                          "bins": simulate.HIST_BINS, "counts": summary.bin_counts,
                          "overflow": summary.overflow},
        })
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
        integral = check.quadrature.value
        payload |= {
            "integral": integral,
            "x_max": check.x_max,
            "quadrature_error": check.quadrature.abs_error_estimate,
            "quadrature_evaluations": check.quadrature.evaluations,
            "residual_vs_lambert": abs(integral - lambert_report.prob_finite),
            "residual_vs_root": abs(integral - root_target),
        }
        passed = (
            payload["residual_vs_lambert"] <= ns.abs_tol
            and payload["residual_vs_root"] <= ns.abs_tol
            and route_gap <= _ROUTE_GAP_TOL
        )
    payload["passed"] = passed
    row = None
    if ns.format == "csv":
        row = {key: float(payload.get(key, math.nan)) for key in _VERIFY_FLOATS}
        if "error" in payload:
            row["error"] = '"%s"' % payload["error"].replace('"', '""')
        row = dict(sorted(row.items()), passed=str(passed).lower())
    _emit_row(ns, payload, row)
    return 0 if passed else 3


# The float columns of verify's CSV row: those of a run that ends its
# quadrature, nan where a run that stops short has no value.  Such a run
# adds its error, quoted since it can hold commas; "passed" comes last.
_VERIFY_FLOATS = (
    "abs_tol", "integral", "lambert_target", "p", "quadrature_error", "quadrature_evaluations",
    "residual_vs_lambert", "residual_vs_root", "root_target", "route_gap", "x_max",
)


def _command(handler: Callable, help: str, fmt: str, *own: _Option) -> dict:
    """A command's entry: its handler, its help line, its options by flag
    in help order (--p, its own, --format with default fmt, then --out),
    and the dests the direct parse starts unset, "config" first."""
    options = {opt.flag: opt for opt in (
        _Option("--p", _real, required=True, help="offspring scale p > 0"),
        *own,
        _Option("--format", _choice("csv", "json"), default=fmt,
                help=f"output format (default {fmt})"),
        _Option("--out", str, default="-", help="output path, or - for stdout"))}
    dests = ("config", *(opt.dest for opt in options.values()))
    return {"handler": handler, "help": help, "options": options, "dests": dests}


_COMMANDS: dict[str, dict] = {
    "density": _command(
        _cmd_density, "tabulate the exact density and its tail asymptote", "csv",
        _Option("--x-min", _real, default=1.0, help="grid start (>= 1)"),
        _Option("--x-max", _real, default=20.0, help="grid end"),
        _Option("--steps", _integer, default=200, help="grid points (>= 2)"),
    ),
    "pmf": _command(
        _cmd_pmf, "tabulate the atomized cascade-size pmf", "csv",
        _Option("--m", _integer, required=True, help="atoms per unit mass (1/m < p)"),
        _Option("--n-max", _integer, help="last count to tabulate (default: auto)"),
    ),
    "moments": _command(
        _cmd_moments, "subcritical mean and variance (optionally the finite-delta ones)", "json",
        _Option("--m", _integer, help="also report the atomized moments for this m"),
    ),
    "extinction": _command(
        _cmd_extinction, "finite-cascade probability by two independent routes", "json",
    ),
    "simulate": _command(
        _cmd_simulate, "run a Monte Carlo campaign", "json",
        _Option("--mode", _choice("continuous", "discrete", "walk"), required=True,
                help="engine; walk and discrete share one kernel (Dwass identity), "
                     "so equal seeds give equal numbers"),
        _Option("--trials", _integer, required=True, help="number of trials"),
        _Option("--seed", _integer, required=True, help="64-bit campaign seed"),
        _Option("--m", _integer, help="atoms per unit mass (discrete/walk)"),
        _Option("--cap", _real, help="censoring cap on total mass"),
        _Option("--workers", _integer, help="worker thread count"),
        _Option("--hist-out", str, help="also write the histogram CSV here"),
    ),
    "verify": _command(
        _cmd_verify, "integrate the density and compare with the extinction routes", "json",
        _Option("--abs-tol", _real, default=1e-6, help="residual tolerance"),
    ),
}


# Shared by every command and listed first, but in no entry: a config file cannot set it.
_CONFIG = _Option("--config", str, help="read options from a key = value file")


def _parse_direct(argv: list[str]) -> SimpleNamespace | None:
    """The namespace _build_parser().parse_args(argv) gives, or None.

    Parses argv only when argv[0] names a command and the rest are exact
    `--flag value` pairs of its options and --config, no value starting
    with "-" and every value taken by its converter.  A flag given twice
    takes its last value, and every option the argv leaves unset is
    None, as argparse has it.  Any other argv, help included, is None:
    argparse alone writes usage, messages and exit codes.
    """
    entry = _COMMANDS.get(argv[0]) if argv else None
    if entry is None or len(argv) % 2 == 0:
        return None
    options = entry["options"]
    values = dict.fromkeys(entry["dests"])
    for flag, text in zip(argv[1::2], argv[2::2]):
        opt = _CONFIG if flag == "--config" else options.get(flag)
        if opt is None or text.startswith("-"):
            return None
        try:
            values[opt.dest] = opt.convert(text)
        except (TypeError, ValueError):
            return None
    return SimpleNamespace(**values, command=argv[0])


# Built once per process, for the argvs _parse_direct declines: parsing
# leaves the parser unchanged, and building it costs milliseconds.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="cascade-gamma",
        description="cascade-size distribution of a branching process with Gamma(2, p) generations",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, entry in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=entry["help"])
        sub.add_argument(_CONFIG.flag, metavar="FILE", help=_CONFIG.help)
        for opt in entry["options"].values():
            sub.add_argument(opt.flag, dest=opt.dest, type=opt.convert, help=opt.help)
    return parser


def _apply_config(ns, options: dict[str, _Option]) -> None:
    if ns.config is None:
        return
    try:
        text = Path(ns.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read config file {ns.config!r}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DomainError(f"{ns.config}:{lineno}: expected key = value")
        key, value = key.strip(), value.strip()
        opt = options.get("--" + key.replace("_", "-"))
        if opt is None:
            raise DomainError(f"{ns.config}:{lineno}: unknown option {key!r}")
        if getattr(ns, opt.dest) is not None:
            raise DomainError(f"option --{key} is set more than once (command line or config)")
        try:
            setattr(ns, opt.dest, opt.convert(value))
        except (TypeError, ValueError) as exc:
            raise DomainError(
                f"{ns.config}:{lineno}: bad value {value!r} for {key!r}: {exc}"
            ) from exc


def _fill_defaults(ns, options: dict[str, _Option]) -> None:
    for opt in options.values():
        if getattr(ns, opt.dest) is None:
            if opt.required:
                raise DomainError(f"missing required option {opt.flag}")
            setattr(ns, opt.dest, opt.default)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = _parse_direct(argv)
    if ns is None:
        try:
            ns = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    entry = _COMMANDS[ns.command]
    try:
        _apply_config(ns, entry["options"])
        _fill_defaults(ns, entry["options"])
        return entry["handler"](ns)
    except (DomainError, CriticalityError, OSError) as exc:
        error, code = exc, 2
    except CascadeError as exc:
        error, code = exc, 3
    print(f"cascade-gamma {ns.command}: {error}", file=sys.stderr)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
