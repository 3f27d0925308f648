"""Command line interface: spectra, critical couplings, verification, sweeps.

Exit codes: 0 success, 1 verification failure, 2 usage error (argument
validation only, raised as UsageError), 3 numerical or internal failure.
Output is byte-deterministic for fixed inputs and version: levels are
sorted, floats in csv/table output carry 12 significant digits, and json
payloads always include "schema": 1.
"""

import argparse
import csv
import io
import json
import math
import sys
from operator import itemgetter

from .duality import dual_spectrum, verify_duality
from .model import ModelParams
from .norms import verify_norms
from .oracle import verify_gauge, verify_tables
from .spectra import critical_coupling, degenerate_pairs, qes_spectrum, verify_factorization

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# verify suites, in the order --suite all runs them
_SUITES = {
    "tables": verify_tables,
    "oracle": verify_gauge,
    "factorization": verify_factorization,
    "norms": verify_norms,
    "duality": verify_duality,
}

MAX_SWEEP_POINTS = 10**6


class UsageError(ValueError):
    pass


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _bool(x) -> str:
    return "true" if x else "false"


# ---------------------------------------------------------------------------
# Output columns, one spec per command: (key, table header, table width as a
# format spec, formatter).  The key names the json field and heads the csv
# column; every csv and table cell is formatter(value).  The critical-zeta
# table is key=value lines and the verify table PASS/FAIL lines, so their
# headers and widths are unused.

_LEVEL_COLUMNS = (
    ("index", "index", ">5", str),
    ("label", "label", "<5", str),
    ("E_re", "E_re", ">18", _fmt),
    ("E_im", "E_im", ">18", _fmt),
    ("is_real", "real", "", _bool),
)

_COLUMNS = {
    "spectrum": _LEVEL_COLUMNS,
    "sweep": (("zeta2", "zeta2", ">14", _fmt),) + _LEVEL_COLUMNS,
    "critical-zeta": (
        ("M", "M", "", str),
        ("zeta_c_squared", "zeta_c_squared", "", _fmt),
        ("degenerate_energy", "degenerate_energy", "", _fmt),
        ("tol", "tol", "", _fmt),
    ),
    "verify": (("name", "name", "", str), ("passed", "passed", "", _bool), ("detail", "detail", "", str)),
}

_KEYS = {command: [key for key, *_ in columns] for command, columns in _COLUMNS.items()}

# The payload field that holds a command's rows; critical-zeta's payload is
# its one row.
_ROWS = {"spectrum": "levels", "sweep": "rows", "verify": "checks"}


def _fields(command: str, values) -> dict:
    """One output row of `command`: its column keys paired with `values`."""
    return dict(zip(_KEYS[command], values))


def _rows(payload: dict) -> list:
    key = _ROWS.get(payload["command"])
    return payload[key] if key else [payload]


def _cells(payload: dict):
    """The csv and table cells of each row: its values through the column
    formatters.  Formatting a column at a time keeps the per-row cost of a
    long sweep at that of a hand-written row."""
    command = payload["command"]
    columns = zip(*map(itemgetter(*_KEYS[command]), _rows(payload)))
    return zip(*(map(fmt, column) for (*_, fmt), column in zip(_COLUMNS[command], columns)))


# ---------------------------------------------------------------------------
# Commands


def _resolve_zeta(args):
    if args.zeta2 is not None:
        if not (0 <= args.zeta2 < math.inf):
            raise UsageError(f"--zeta2 must be finite and >= 0, got {args.zeta2}")
        return math.sqrt(args.zeta2), args.zeta2
    zeta = abs(args.zeta)
    if not math.isfinite(zeta * zeta):
        raise UsageError(f"--zeta must be finite with a finite square, got {args.zeta}")
    return zeta, zeta * zeta


def _check_M(args):
    if args.M < 1:
        raise UsageError(f"--M must be >= 1, got {args.M}")
    if args.model == "dsg" and args.M % 2 == 0:
        raise UsageError(f"--model dsg needs odd M, got M={args.M}")


def _levels(model: str, M: int, zeta: float):
    """The spectrum of one model and its level rows in _LEVEL_COLUMNS order."""
    params = ModelParams(M=M, zeta=zeta)
    spec = dual_spectrum(params) if model == "dsg" else qes_spectrum(params)
    levels = enumerate(zip(spec.levels, spec.energies))
    return spec, [(i, lvl.label, E.real, E.imag, lvl.is_real) for i, (lvl, E) in levels]


def _spectrum_payload(model: str, M: int, zeta2: float, zeta: float) -> dict:
    spec, rows = _levels(model, M, zeta)
    levels = [_fields("spectrum", row) for row in rows]
    if model == "dsg":
        pairs = degenerate_pairs(spec.energies)
        for row, lvl in zip(levels, spec.levels):
            row["source_index"] = lvl.source_index
    else:
        pairs = spec.degenerate_pairs
    return {
        "schema": 1,
        "command": "spectrum",
        "model": model,
        "M": M,
        "zeta2": zeta2,
        "levels": levels,
        "degenerate_pairs": [list(p) for p in pairs],
    }


def _cmd_spectrum(args):
    _check_M(args)
    zeta, zeta2 = _resolve_zeta(args)
    return _spectrum_payload(args.model, args.M, zeta2, zeta), EXIT_OK


def _cmd_critical_zeta(args):
    if args.M < 3 or args.M % 2 == 0:
        raise UsageError(f"critical-zeta needs odd M >= 3, got M={args.M}")
    if not (0 < args.tol < math.inf):
        raise UsageError(f"--tol must be positive and finite, got {args.tol}")
    cc = critical_coupling(args.M, tol=args.tol)
    fields = _fields("critical-zeta", (args.M, cc.zeta_c_squared, cc.degenerate_energy, args.tol))
    return {"schema": 1, "command": "critical-zeta", **fields}, EXIT_OK


def _cmd_verify(args):
    suite = args.suite
    narrowed = args.M is not None or args.zeta2 is not None or args.zeta is not None
    if narrowed and suite != "oracle":
        raise UsageError("--M and --zeta2/--zeta narrow the oracle suite only")
    narrowing = {}
    if args.zeta2 is not None or args.zeta is not None:
        _, narrowing["zeta2"] = _resolve_zeta(args)
    if args.M is not None:
        if not 1 <= args.M <= 9:
            raise UsageError(f"--M must be in 1..9 for the oracle suite, got {args.M}")
        narrowing["M"] = args.M
    runs = _SUITES.values() if suite == "all" else [_SUITES[suite]]
    checks = [c for run in runs for c in run(**narrowing)]
    passed = all(c["passed"] for c in checks)
    payload = {
        "schema": 1,
        "command": "verify",
        "suite": suite,
        "checks": [{key: c[key] for key in _KEYS["verify"]} for c in checks],
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
    # The loop below makes floor((stop - start) / step + 1e-9) + 1 points.
    if (stop - start) / step + 1e-9 >= MAX_SWEEP_POINTS:
        raise UsageError(f"--zeta2-range gives more than {MAX_SWEEP_POINTS} points, got {spec!r}")
    values = []
    while (v := start + len(values) * step) <= stop + 1e-9 * step:
        values.append(v)
    return values


def _cmd_sweep(args):
    _check_M(args)
    values = _parse_range(args.zeta2_range)
    rows = []
    for z2 in values:
        _, levels = _levels(args.model, args.M, math.sqrt(z2))
        rows.extend(_fields("sweep", (z2, *row)) for row in levels)
    payload = {
        "schema": 1,
        "command": "sweep",
        "model": args.model,
        "M": args.M,
        "zeta2_range": args.zeta2_range,
        "rows": rows,
    }
    return payload, EXIT_OK


# ---------------------------------------------------------------------------
# Rendering


def _render_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_KEYS[payload["command"]])
    writer.writerows(_cells(payload))
    return buf.getvalue()


def _render_table(payload: dict) -> str:
    command = payload["command"]
    if command == "critical-zeta":
        lines = [f"{key}={cell}" for key, cell in zip(_KEYS[command], *_cells(payload))]
    elif command == "verify":
        verdict = {True: "PASS", False: "FAIL"}
        lines = [f"{verdict[c['passed']]}  {c['name']:<28}  {c['detail']}" for c in payload["checks"]]
        lines.append(f"OVERALL {verdict[payload['passed']]}")
    else:
        columns = _COLUMNS[command]
        line = "  ".join(f"{{:{width}}}" for _, _, width, _ in columns).format
        if command == "spectrum":
            where = f"zeta2={_fmt(payload['zeta2'])}"
        else:
            where = f"range={payload['zeta2_range']}"
        lines = [f"model={payload['model']} M={payload['M']} {where}"]
        lines.append(line(*(head for _, head, _, _ in columns)))
        lines.extend(line(*cells) for cells in _cells(payload))
        if command == "spectrum":
            pairs = payload["degenerate_pairs"]
            lines.append(f"degenerate_pairs={pairs if pairs else '[]'}")
    return "\n".join(lines) + "\n"


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        return _render_csv(payload)
    return _render_table(payload)


# ---------------------------------------------------------------------------
# Parser


def _add_common(sub):
    sub.add_argument("--format", choices=("json", "csv", "table"), default="json")
    sub.add_argument("--out", default=None, help="write output to this path instead of stdout")


def _add_zeta(sub, required: bool):
    group = sub.add_mutually_exclusive_group(required=required)
    group.add_argument("--zeta2", type=float, default=None, help="coupling squared")
    group.add_argument("--zeta", type=float, default=None, help="coupling (sign ignored)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptqes",
        description="Quasi-exactly-solvable spectra of the PT-invariant cosh/cos potentials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="solvable levels at one coupling")
    sp.add_argument("--model", choices=("dshg", "dsg"), default="dshg")
    sp.add_argument("--M", type=int, required=True, dest="M")
    _add_zeta(sp, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_spectrum)

    cz = sub.add_parser("critical-zeta", help="bisect the level-merger coupling")
    cz.add_argument("--M", type=int, required=True, dest="M")
    cz.add_argument("--tol", type=float, default=1e-10)
    _add_common(cz)
    cz.set_defaults(func=_cmd_critical_zeta)

    vf = sub.add_parser("verify", help="run self-checks against independent routes")
    vf.add_argument("--suite", choices=(*_SUITES, "all"), default="all")
    vf.add_argument("--M", type=int, default=None, dest="M", help="narrow the oracle suite")
    _add_zeta(vf, required=False)
    _add_common(vf)
    vf.set_defaults(func=_cmd_verify)

    sw = sub.add_parser("sweep", help="levels over a range of zeta^2")
    sw.add_argument("--model", choices=("dshg", "dsg"), default="dshg")
    sw.add_argument("--M", type=int, required=True, dest="M")
    sw.add_argument("--zeta2-range", required=True, dest="zeta2_range", help="start:stop:step")
    _add_common(sw)
    sw.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.func(args)
        text = _render(payload, args.format)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError) as exc:
        print(f"numerical or internal failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
