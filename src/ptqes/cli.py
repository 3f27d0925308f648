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

import numpy as np

from .duality import dual_closed_form_levels, dual_spectrum
from .model import ModelParams
from .norms import gram_matrix, norm, sign_report, weights
from .oracle import (
    ROOT_MATCH_TOL,
    dshg_closed_form_levels,
    gauge_char_poly,
    gauge_matrix_eigs,
    ode_residual_dsg,
    reproduce_tables,
)
from .polyengine import backward_error, matching_distance
from .recursion import build_R
from .spectra import check_factorization, critical_coupling, degenerate_pairs, qes_spectrum

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_SUITES = ("tables", "oracle", "factorization", "norms", "duality", "all")

# Backward error of R_M at the gauge eigenvalues, relative to its coefficients.
R_RESIDUAL_TOL = 1e-12

MAX_SWEEP_POINTS = 10**6


class UsageError(ValueError):
    pass


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _bool(x) -> str:
    return "true" if x else "false"


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


def _spectrum_payload(model: str, M: int, zeta2: float, zeta: float) -> dict:
    params = ModelParams(M=M, zeta=zeta)
    if model == "dsg":
        spec = dual_spectrum(params)
        pairs = degenerate_pairs(spec.energies)
    else:
        spec = qes_spectrum(params)
        pairs = spec.degenerate_pairs
    levels = []
    for i, (lvl, E) in enumerate(zip(spec.levels, spec.energies)):
        row = {"index": i, "label": lvl.label, "E_re": E.real, "E_im": E.imag, "is_real": lvl.is_real}
        if model == "dsg":
            row["source_index"] = lvl.source_index
        levels.append(row)
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
    payload = {
        "schema": 1,
        "command": "critical-zeta",
        "M": args.M,
        "zeta_c_squared": cc.zeta_c_squared,
        "degenerate_energy": cc.degenerate_energy,
        "tol": args.tol,
    }
    return payload, EXIT_OK


def _cmd_verify(args):
    suite = args.suite
    narrowed = args.M is not None or args.zeta2 is not None or args.zeta is not None
    if narrowed and suite != "oracle":
        raise UsageError("--M and --zeta2/--zeta narrow the oracle suite only")
    checks = []
    if suite in ("tables", "all"):
        checks.extend(_suite_tables())
    if suite in ("oracle", "all"):
        z2 = None
        if args.zeta2 is not None or args.zeta is not None:
            _, z2 = _resolve_zeta(args)
        m = args.M
        if m is not None and not 1 <= m <= 9:
            raise UsageError(f"--M must be in 1..9 for the oracle suite, got {m}")
        checks.extend(_suite_oracle(m, z2))
    if suite in ("factorization", "all"):
        checks.extend(_suite_factorization())
    if suite in ("norms", "all"):
        checks.extend(_suite_norms())
    if suite in ("duality", "all"):
        checks.extend(_suite_duality())
    passed = all(c["passed"] for c in checks)
    payload = {
        "schema": 1,
        "command": "verify",
        "suite": suite,
        "checks": checks,
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
        payload = _spectrum_payload(args.model, args.M, z2, math.sqrt(z2))
        for lvl in payload["levels"]:
            rows.append(
                {
                    "zeta2": z2,
                    "index": lvl["index"],
                    "label": lvl["label"],
                    "E_re": lvl["E_re"],
                    "E_im": lvl["E_im"],
                    "is_real": lvl["is_real"],
                }
            )
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
# Verification suites


def _suite_tables():
    checks = []
    for name in ("I", "II", "III"):
        report = reproduce_tables(name)
        checks.append(
            {
                "name": f"tables.{name}",
                "passed": report.passed,
                "detail": f"max_abs_err={report.max_abs_err:.3e} over {len(report.cells)} cells",
            }
        )
    return checks


def _suite_oracle(M=None, zeta2=None):
    # The gauge matrix is complex and built from its own formula, so its
    # eigenvalues are independent of the real sector blocks behind
    # qes_spectrum and of the R_M coefficients.
    ms = [M] if M is not None else list(range(1, 10))
    z2s = [zeta2] if zeta2 is not None else [0.0, 0.005, 0.01, 0.02, 0.025]
    worst_res = (0.0, "-")
    worst_spec = (0.0, "-")
    worst_char = (0.0, "-")
    char_cells = 0
    for m in ms:
        for z2 in z2s:
            params = ModelParams(M=m, zeta=math.sqrt(z2))
            eigs = gauge_matrix_eigs(params)
            where = f"M={m} zeta2={z2:g}"
            r_m = build_R(params, m)[m]
            res = max(backward_error(r_m, z) for z in eigs)
            if res > worst_res[0]:
                worst_res = (res, where)
            if m <= 6:
                cp = gauge_char_poly(params)
                scale = max(abs(c) for c in r_m.coeffs)
                dc = max(abs(a - b) for a, b in zip(cp.coeffs, r_m.coeffs)) / scale
                char_cells += 1
                if dc > worst_char[0]:
                    worst_char = (dc, where)
            d = matching_distance(qes_spectrum(params).energies, eigs)
            if d > worst_spec[0]:
                worst_spec = (d, where)
    checks = [
        {
            "name": "oracle.R_residual",
            "passed": worst_res[0] <= R_RESIDUAL_TOL,
            "detail": (
                f"max_backward_error={worst_res[0]:.3e} of R_M at the gauge eigenvalues "
                f"at {worst_res[1]} (bound {R_RESIDUAL_TOL:.1e})"
            ),
        },
        {
            "name": "oracle.spectrum_match",
            "passed": worst_spec[0] <= ROOT_MATCH_TOL,
            "detail": f"max_distance={worst_spec[0]:.3e} at {worst_spec[1]} (bound {ROOT_MATCH_TOL:.1e})",
        },
    ]
    if char_cells:
        checks.append(
            {
                "name": "oracle.char_poly",
                "passed": worst_char[0] <= 1e-8,
                "detail": f"max_rel_coeff_err={worst_char[0]:.3e} at {worst_char[1]}",
            }
        )
    return checks


def _suite_factorization():
    checks = []
    for m in (1, 2, 3, 4, 5, 7):
        worst = 0.0
        for z2 in (0.005, 0.02):
            report = check_factorization(ModelParams(M=m, zeta=math.sqrt(z2)), n_extra=4)
            worst = max(worst, report.max_deviation)
        checks.append(
            {
                "name": f"factorization.M{m}",
                "passed": worst <= 1e-9,
                "detail": f"max_deviation={worst:.3e}",
            }
        )
    return checks


def _suite_norms():
    worst_gram = 0.0
    worst_imag = 0.0
    endpoints_ok = True
    for m in (3, 5):
        for z2 in (0.005, 0.01, 0.02):
            params = ModelParams(M=m, zeta=math.sqrt(z2))
            table = weights(params)
            if table.gamma[0] != 1.0 or table.gamma[m] != 0.0:
                endpoints_ok = False
            G = gram_matrix(table)
            target = np.diag([norm(n, params) for n in range(m)]).astype(complex)
            scale = 1.0 + max(abs(g) for g in table.gamma)
            worst_gram = max(worst_gram, float(np.max(np.abs(G - target))) / scale)
            worst_imag = max(worst_imag, table.max_weight_imag)
    report = sign_report(ModelParams(M=5, zeta=math.sqrt(0.01)))
    return [
        {
            "name": "norms.gamma_endpoints",
            "passed": endpoints_ok,
            "detail": "gamma_0 == 1 and gamma_M == 0 exactly",
        },
        {
            "name": "norms.gram_identity",
            "passed": worst_gram <= 1e-9,
            "detail": f"max_error={worst_gram:.3e} (M in 3,5; zeta^2 in 0.005,0.01,0.02)",
        },
        {
            "name": "norms.weight_reality",
            "passed": worst_imag <= 1e-9,
            "detail": f"max_rel_imag={worst_imag:.3e}",
        },
        {
            "name": "norms.sign_pattern",
            "passed": True,
            "detail": "observed signs " + "".join(report["signs"]) + " (M=5); " + report["note"],
        },
    ]


def _suite_duality():
    checks = []
    exact_ok = True
    for m in (1, 3, 5, 7, 9):
        params = ModelParams(M=m, zeta=math.sqrt(0.01))
        base = tuple(qes_spectrum(params).energies)
        dual = tuple(dual_spectrum(params).energies)
        manual = tuple(-e for e in reversed(base))
        if dual != manual:
            exact_ok = False
        if tuple(-e for e in reversed(manual)) != base:
            exact_ok = False
    checks.append(
        {
            "name": "duality.negation_reversal",
            "passed": exact_ok,
            "detail": "exact float equality and involution, M in 1,3,5,7,9",
        }
    )
    worst = 0.0
    for z2 in (0.01, 0.1, 0.24):
        params = ModelParams(M=3, zeta=math.sqrt(z2))
        computed = dual_spectrum(params).energies
        closed = sorted(x.real for x in dual_closed_form_levels(params))
        for a, b in zip(computed, closed):
            worst = max(worst, abs(a - b))
    checks.append(
        {
            "name": "duality.closed_form_m3",
            "passed": worst <= 1e-12,
            "detail": f"max_error={worst:.3e}",
        }
    )
    worst_res = 0.0
    for params in (ModelParams(M=1, zeta=0.2), ModelParams(M=3, zeta=math.sqrt(0.1))):
        for tag, E in dshg_closed_form_levels(params).items():
            worst_res = max(worst_res, ode_residual_dsg(params, -E, tag))
    checks.append(
        {
            "name": "duality.ode_residual",
            "passed": worst_res <= 1e-6,
            "detail": f"max_residual={worst_res:.3e} on 50-point grids",
        }
    )
    return checks


# ---------------------------------------------------------------------------
# Rendering


def _render_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    command = payload["command"]
    if command == "spectrum":
        writer.writerow(["index", "label", "E_re", "E_im", "is_real"])
        for lvl in payload["levels"]:
            writer.writerow(
                [lvl["index"], lvl["label"], _fmt(lvl["E_re"]), _fmt(lvl["E_im"]), _bool(lvl["is_real"])]
            )
    elif command == "critical-zeta":
        writer.writerow(["M", "zeta_c_squared", "degenerate_energy", "tol"])
        writer.writerow(
            [
                payload["M"],
                _fmt(payload["zeta_c_squared"]),
                "" if payload["degenerate_energy"] is None else _fmt(payload["degenerate_energy"]),
                _fmt(payload["tol"]),
            ]
        )
    elif command == "verify":
        writer.writerow(["name", "passed", "detail"])
        for c in payload["checks"]:
            writer.writerow([c["name"], _bool(c["passed"]), c["detail"]])
    elif command == "sweep":
        writer.writerow(["zeta2", "index", "label", "E_re", "E_im", "is_real"])
        for row in payload["rows"]:
            writer.writerow(
                [
                    _fmt(row["zeta2"]),
                    row["index"],
                    row["label"],
                    _fmt(row["E_re"]),
                    _fmt(row["E_im"]),
                    _bool(row["is_real"]),
                ]
            )
    else:
        raise ValueError(f"no csv renderer for {command!r}")
    return buf.getvalue()


def _render_table(payload: dict) -> str:
    command = payload["command"]
    lines = []
    if command == "spectrum":
        lines.append(
            f"model={payload['model']} M={payload['M']} zeta2={_fmt(payload['zeta2'])}"
        )
        lines.append(f"{'index':>5}  {'label':<5}  {'E_re':>18}  {'E_im':>18}  real")
        for lvl in payload["levels"]:
            lines.append(
                f"{lvl['index']:>5}  {lvl['label']:<5}  {_fmt(lvl['E_re']):>18}  "
                f"{_fmt(lvl['E_im']):>18}  {_bool(lvl['is_real'])}"
            )
        pairs = payload["degenerate_pairs"]
        lines.append(f"degenerate_pairs={pairs if pairs else '[]'}")
    elif command == "critical-zeta":
        lines.append(f"M={payload['M']}")
        lines.append(f"zeta_c_squared={_fmt(payload['zeta_c_squared'])}")
        de = payload["degenerate_energy"]
        lines.append(f"degenerate_energy={'-' if de is None else _fmt(de)}")
        lines.append(f"tol={_fmt(payload['tol'])}")
    elif command == "verify":
        for c in payload["checks"]:
            lines.append(f"{'PASS' if c['passed'] else 'FAIL'}  {c['name']:<28}  {c['detail']}")
        lines.append(f"OVERALL {'PASS' if payload['passed'] else 'FAIL'}")
    elif command == "sweep":
        lines.append(f"model={payload['model']} M={payload['M']} range={payload['zeta2_range']}")
        lines.append(f"{'zeta2':>14}  {'index':>5}  {'label':<5}  {'E_re':>18}  {'E_im':>18}  real")
        for row in payload["rows"]:
            lines.append(
                f"{_fmt(row['zeta2']):>14}  {row['index']:>5}  {row['label']:<5}  "
                f"{_fmt(row['E_re']):>18}  {_fmt(row['E_im']):>18}  {_bool(row['is_real'])}"
            )
    else:
        raise ValueError(f"no table renderer for {command!r}")
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
    vf.add_argument("--suite", choices=_SUITES, default="all")
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
