"""Command line interface: spectra, critical couplings, verification, sweeps.

Exit codes: 0 success, 1 verification failure, 2 usage error (argument
validation only, raised as UsageError, or an --out path or stdout that
cannot be written), 3 numerical or internal failure.
Output is byte-deterministic for fixed inputs and version: levels are
sorted, floats in csv/table output carry 12 significant digits, and json
output is the bytes of json.dumps(payload, indent=2) with the level rows as
dicts.  A command's handler returns its own fields; main writes "schema": 1
and the command name in front of them.  Two writers make the output: level
rows, built once per command as columns, are written with one %-template
per row and format, and every other field by json.dumps or csv.writer.  The
argument parser is built once per process from two tables, _FLAGS and
_COMMANDS, so main can be called repeatedly in one process.
"""

import argparse
import contextlib
import csv
import functools
import importlib
import io
import json
import itertools
import math
import os
import sys

import numpy as np

from .duality import dual_level_arrays
from .spectra import critical_coupling, degenerate_pairs, level_arrays

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# verify suites, in the order --suite all runs them, as (module, function)
# names: a suite's module is imported only when the suite runs, so the level
# commands never load oracle or norms
_SUITES = {
    "tables": ("oracle", "verify_tables"),
    "oracle": ("oracle", "verify_gauge"),
    "factorization": ("spectra", "verify_factorization"),
    "norms": ("norms", "verify_norms"),
    "duality": ("duality", "verify_duality"),
}

MAX_SWEEP_POINTS = 10**6


class UsageError(ValueError):
    pass


# A bool's text, looked up by the bool itself.
_BOOL_TEXT = ("false", "true")


# ---------------------------------------------------------------------------
# Level-row columns, one spec per level command: (key, table header, table
# width, type).  The key names the json field and heads the csv column; the
# width is a %-format field width, "-" padding on the right.  A cell is
# written by its type's %-conversion in _CONVERSIONS, a bool as true or
# false.  A column with no table header is written to json only.  sweep's
# zeta2 column holds one value per coupling (_Levels).

_LEVEL_COLUMNS = (
    ("index", "index", "5", int),
    ("label", "label", "-5", str),
    ("E_re", "E_re", "18", float),
    ("E_im", "E_im", "18", float),
    ("is_real", "real", "", bool),
)

_COLUMNS = {
    "spectrum": _LEVEL_COLUMNS,
    # --model dsg: Ehat_k = -E_{M-1-k}, and source_index is M - 1 - k
    "spectrum-dsg": _LEVEL_COLUMNS + (("source_index", None, "", int),),
    "sweep": (("zeta2", "zeta2", "14", float),) + _LEVEL_COLUMNS,
}

# Each type's %-conversion in json, and in csv and table cells after the
# width.  %r is float.__repr__, the text json writes for a finite float, and
# %.12g is f"{x:.12g}".  A level label is E_P, E_Q or E_R, so it needs no
# json escaping.
_CONVERSIONS = {int: ("%d", "d"), str: ('"%s"', "s"), float: ("%r", ".12g"), bool: ("%s", "s")}


def _cell(value) -> str:
    """One csv or table cell outside the level rows: 12 significant digits
    for a float, true or false for a bool, str otherwise."""
    if isinstance(value, bool):
        return _BOOL_TEXT[value]
    return "%.12g" % value if isinstance(value, float) else str(value)


def _fill(spec, columns, cells, join, sep: str) -> str:
    """All level rows joined by sep, as one %-template: join(cells) is one
    row's template, cells[i] holding column i's conversion, filled from one
    flat tuple of the columns read level by level.  A bool is written as
    true or false.  A column of fewer values than rows holds one per group
    of consecutive rows; each value is formatted once, by its cell, and
    enters the template through %s."""
    k, n = len(columns), max(map(len, columns))
    flat = [None] * (k * n)
    cells = list(cells)
    for i, ((*_, kind), column) in enumerate(zip(spec, columns)):
        if kind is bool:
            column = map(_BOOL_TEXT.__getitem__, column)
        elif len(column) < n:
            texts = list(map(cells[i].__mod__, column))
            # zip of the same list n / len times repeats each text in place
            column = itertools.chain.from_iterable(zip(*[texts] * (n // len(texts))))
            cells[i] = "%s"
        flat[i::k] = column
    return sep.join([join(cells)] * n) % tuple(flat)


def _json_row(cells) -> str:
    return "    {\n" + ",\n".join(cells) + "\n    }"


class _Levels:
    """Level rows held as columns, built once per command: columns[i] holds
    field spec[i] of every level, or, when shorter, of every group of
    consecutive levels (a sweep's zeta2, one per coupling).  Each format
    writes all rows with one %-template derived from spec.  A template
    would print inf or nan as bare words, so every float column must be
    finite: _level_columns refuses non-finite levels, and the zeta2 values
    are checked as arguments."""

    def __init__(self, spec, columns):
        self.spec = spec
        self.columns = columns

    def json(self) -> str:
        cells = [f'      "{key}": {_CONVERSIONS[kind][0]}' for key, _, _, kind in self.spec]
        return "[\n" + _fill(self.spec, self.columns, cells, _json_row, ",\n") + "\n  ]"

    def _shown(self):
        """(spec, columns) of the columns with a table header."""
        return zip(*[(c, column) for c, column in zip(self.spec, self.columns) if c[1]])

    def csv(self) -> str:
        spec, columns = self._shown()
        cells = [f"%{_CONVERSIONS[kind][1]}" for *_, kind in spec]
        return ",".join(key for key, *_ in spec) + "\n" + _fill(spec, columns, cells, ",".join, "\n") + "\n"

    def table(self) -> str:
        spec, columns = self._shown()
        head = "  ".join(f"%{width}s" for _, _, width, _ in spec) % tuple(h for _, h, _, _ in spec)
        cells = [f"%{width}{_CONVERSIONS[kind][1]}" for _, _, width, kind in spec]
        return head + "\n" + _fill(spec, columns, cells, "  ".join, "\n")


# ---------------------------------------------------------------------------
# Commands


def _check_M(args):
    if args.M < 1:
        raise UsageError(f"--M must be >= 1, got {args.M}")
    if args.model == "dsg" and args.M % 2 == 0:
        raise UsageError(f"--model dsg needs odd M, got M={args.M}")


def _level_columns(args, values):
    """(E, columns) of args.model's levels at each zeta^2 in values, the
    (couplings, M) arrays of spectra.level_arrays or
    duality.dual_level_arrays read row by row: E one flat complex array,
    columns the index, label, E_re, E_im and is_real columns.  spectrum is a
    one-coupling stack, so both level commands print from one route; the
    stack costs it 13 to 26 us more than spectra.level_rows would, of a 149
    to 200 us warm call (M = 3, 4, 5, 9, 15 at zeta^2 = 0.01; Python 3.11,
    numpy 2.4, 2 vCPU).  A
    non-finite level part is refused with ValueError, the real parts tested
    first."""
    levels = dual_level_arrays if args.model == "dsg" else level_arrays
    E, labels, real = (part.ravel() for part in levels(args.M, [math.sqrt(z2) for z2 in values]))
    for key, part in (("E_re", E.real), ("E_im", E.imag)):
        if not np.isfinite(part).all():
            raise ValueError(f"non-finite {key} in the level rows")
    return E, [list(range(args.M)) * len(values), labels.tolist(), E.real.tolist(), E.imag.tolist(), real.tolist()]


def _cmd_spectrum(args):
    _check_M(args)
    if not (0 <= args.zeta2 < math.inf):
        raise UsageError(f"--zeta2 must be finite and >= 0, got {args.zeta2}")
    zeta2 = abs(args.zeta2)  # -0.0 -> 0.0, so the payload never shows -0.0
    E, columns = _level_columns(args, [zeta2])
    spec = _COLUMNS["spectrum"]
    if args.model == "dsg":
        spec = _COLUMNS["spectrum-dsg"]
        columns.append(range(args.M - 1, -1, -1))
    payload = {
        "model": args.model,
        "M": args.M,
        "zeta2": zeta2,
        "levels": _Levels(spec, columns),
        "degenerate_pairs": [list(p) for p in degenerate_pairs(E.tolist())],
    }
    return payload, EXIT_OK


def _cmd_critical_zeta(args):
    if args.M < 3 or args.M % 2 == 0:
        raise UsageError(f"critical-zeta needs odd M >= 3, got M={args.M}")
    if not (0 < args.tol < math.inf):
        raise UsageError(f"--tol must be positive and finite, got {args.tol}")
    cc = critical_coupling(args.M, tol=args.tol)
    fields = dict(M=args.M, zeta_c_squared=cc.zeta_c_squared, degenerate_energy=cc.degenerate_energy, tol=args.tol)
    return fields, EXIT_OK


def _cmd_verify(args):
    suites = _SUITES.values() if args.suite == "all" else [_SUITES[args.suite]]
    runs = [getattr(importlib.import_module(f".{module}", __package__), name) for module, name in suites]
    checks = [c for run in runs for c in run()]
    passed = all(c["passed"] for c in checks)
    payload = {
        "suite": args.suite,
        "checks": [{key: c[key] for key in ("name", "passed", "detail")} for c in checks],
        "passed": passed,
    }
    return payload, EXIT_OK if passed else EXIT_VERIFY_FAIL


def _parse_range(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"--zeta2-range must be start:stop:step, got {spec!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad --zeta2-range {spec!r}: {exc}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise UsageError(f"--zeta2-range bounds and step must be finite, got {spec!r}")
    if start < 0 or step <= 0 or stop < start:
        raise UsageError(f"need 0 <= start <= stop and step > 0, got {spec!r}")
    # A point up to 1e-9 steps past stop counts, so rounding keeps the end.
    # Points are start + i * step: adding step stalls below the double spacing.
    span = (stop - start) / step + 1e-9
    if span >= MAX_SWEEP_POINTS:
        raise UsageError(f"--zeta2-range gives more than {MAX_SWEEP_POINTS} points, got {spec!r}")
    return [start + i * step for i in range(math.floor(span) + 1)]


def _cmd_sweep(args):
    _check_M(args)
    values = _parse_range(args.zeta2_range)
    columns = [values, *_level_columns(args, values)[1]]
    payload = {
        "model": args.model,
        "M": args.M,
        "zeta2_range": args.zeta2_range,
        "rows": _Levels(_COLUMNS["sweep"], columns),
    }
    return payload, EXIT_OK


# ---------------------------------------------------------------------------
# Rendering: main builds the payload, "schema" and "command" first, then the
# handler's own fields; json writes all of it, csv and table the fields.


def _render_csv(command: str, fields: dict) -> str:
    if command in ("spectrum", "sweep"):
        return fields["levels" if command == "spectrum" else "rows"].csv()
    rows = fields["checks"] if command == "verify" else [fields]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0])
    writer.writerows([_cell(value) for value in row.values()] for row in rows)
    return buf.getvalue()


def _render_table(command: str, fields: dict) -> str:
    if command == "critical-zeta":
        lines = [f"{key}={_cell(value)}" for key, value in fields.items()]
    elif command == "verify":
        verdict = {True: "PASS", False: "FAIL"}
        lines = [f"{verdict[c['passed']]}  {c['name']:<28}  {c['detail']}" for c in fields["checks"]]
        lines.append(f"OVERALL {verdict[fields['passed']]}")
    elif command == "spectrum":
        head = f"model={fields['model']} M={fields['M']} zeta2={_cell(fields['zeta2'])}"
        lines = [head, fields["levels"].table(), f"degenerate_pairs={fields['degenerate_pairs']}"]
    else:
        head = f"model={fields['model']} M={fields['M']} range={fields['zeta2_range']}"
        lines = [head, fields["rows"].table()]
    return "\n".join(lines) + "\n"


def _json(payload: dict) -> str:
    """json.dumps(payload, indent=2), level rows written as dicts.  Every
    other field is json.dumps(value, indent=2) moved one level in: json
    escapes each newline inside a string, so every newline it writes starts
    an indented line."""
    fields = []
    for key, value in payload.items():
        if isinstance(value, _Levels):
            value = value.json()
        else:
            value = json.dumps(value, indent=2).replace("\n", "\n  ")
        fields.append(f"{json.dumps(key)}: {value}")
    return "{\n  " + ",\n  ".join(fields) + "\n}"


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return _json(payload) + "\n"
    fields = dict(list(payload.items())[2:])  # the fields after schema and command
    return (_render_csv if fmt == "csv" else _render_table)(payload["command"], fields)


# ---------------------------------------------------------------------------
# Parser: each flag's argparse settings, and each command's help, handler
# and own flags in help order; every command also takes --format and --out.

_FLAGS = {
    "--model": dict(choices=("dshg", "dsg"), default="dshg"),
    "--M": dict(type=int, required=True),
    "--zeta2": dict(type=float, required=True, help="coupling squared"),
    "--tol": dict(
        type=float,
        default=1e-10,
        help="zeroin tolerance relative to zeta^2 (default 1e-10); "
        "below the spacing of doubles the result is good to a few ulps",
    ),
    "--suite": dict(choices=(*_SUITES, "all"), default="all"),
    "--zeta2-range": dict(required=True, help="start:stop:step"),
    "--format": dict(choices=("json", "csv", "table"), default="json"),
    "--out": dict(help="write output to this path instead of stdout"),
}

_COMMANDS = {
    "spectrum": ("solvable levels at one coupling", _cmd_spectrum, ("--model", "--M", "--zeta2")),
    "critical-zeta": ("solve for the level-merger coupling", _cmd_critical_zeta, ("--M", "--tol")),
    "verify": ("run self-checks against independent routes", _cmd_verify, ("--suite",)),
    "sweep": ("levels over a range of zeta^2", _cmd_sweep, ("--model", "--M", "--zeta2-range")),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptqes",
        description="Quasi-exactly-solvable spectra of the PT-invariant cosh/cos potentials",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, func, flags) in _COMMANDS.items():
        # Flags are never abbreviated, so a prefix such as --zeta cannot be
        # taken for --zeta2.
        sp = sub.add_parser(command, help=text, allow_abbrev=False)
        for flag in (*flags, "--format", "--out"):
            sp.add_argument(flag, **_FLAGS[flag])
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        fields, code = args.func(args)
        text = _render({"schema": 1, "command": args.command, **fields}, args.format)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"numerical or internal failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    # stdout and --out share one write and one failure: a stderr line, exit 2
    try:
        with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
            fh.write(text)
            fh.flush()
    except OSError as exc:
        where = f"--out {args.out}" if args.out else "stdout"
        print(f"error: cannot write {where}: {exc.strerror or exc}", file=sys.stderr)
        if not args.out:
            # stdout still holds the unwritten rest, and the flush at
            # interpreter exit would fail on it again and print "Exception
            # ignored" (the note on SIGPIPE in Python's signal docs), so the
            # descriptor is pointed at the null device.  A stdout with no
            # descriptor, as an in-process caller may have, is left as it is.
            with contextlib.suppress(OSError, ValueError, AttributeError):
                fileno = sys.stdout.fileno()
                os.dup2(os.open(os.devnull, os.O_WRONLY), fileno)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
