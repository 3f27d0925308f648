import csv
import dataclasses
import functools
import io
import json
import math
import resource
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptqes.cli
import ptqes.duality
import ptqes.model
import ptqes.norms
import ptqes.oracle
import ptqes.spectra


def run(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "ptqes.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_spectrum_json():
    p = run("spectrum", "--M", "3", "--zeta2", "0.01")
    assert p.returncode == 0
    payload = json.loads(p.stdout)
    assert payload["schema"] == 1
    assert payload["command"] == "spectrum"
    assert payload["model"] == "dshg"
    assert payload["M"] == 3
    levels = payload["levels"]
    assert [lvl["index"] for lvl in levels] == [0, 1, 2]
    res = [lvl["E_re"] for lvl in levels]
    assert res == sorted(res)
    assert {lvl["label"] for lvl in levels} == {"E_P", "E_Q"}
    assert payload["degenerate_pairs"] == []


def test_spectrum_csv_header():
    p = run("spectrum", "--M", "3", "--zeta2", "0.01", "--format", "csv")
    assert p.returncode == 0
    lines = p.stdout.splitlines()
    assert lines[0] == "index,label,E_re,E_im,is_real"
    assert len(lines) == 4
    rows = list(csv.DictReader(io.StringIO(p.stdout)))
    assert rows[0]["is_real"] == "true"
    assert float(rows[2]["E_re"]) == pytest.approx(8.949591794226542, abs=1e-9)


def test_spectrum_huge_coupling_pair_prints_false():
    # the E_P pair -1e18 +- 4e9 i is complex, however small Im is against |E|
    p = run("spectrum", "--M", "3", "--zeta2", "1e18", "--format", "csv")
    assert p.returncode == 0
    rows = list(csv.DictReader(io.StringIO(p.stdout)))
    assert [r["is_real"] for r in rows if r["label"] == "E_P"] == ["false", "false"]


def test_spectrum_table_format():
    p = run("spectrum", "--M", "2", "--zeta2", "0.04", "--format", "table")
    assert p.returncode == 0
    assert p.stdout.startswith("model=dshg M=2 zeta2=0.04")
    assert "E_R" in p.stdout
    assert "false" in p.stdout  # the complex pair is not real


def test_spectrum_dsg_model():
    p = run("spectrum", "--M", "3", "--zeta2", "0.01", "--model", "dsg")
    assert p.returncode == 0
    payload = json.loads(p.stdout)
    assert payload["model"] == "dsg"
    assert all("source_index" in lvl for lvl in payload["levels"])
    q = run("spectrum", "--M", "3", "--zeta2", "0.01")
    base = [lvl["E_re"] for lvl in json.loads(q.stdout)["levels"]]
    dual = [lvl["E_re"] for lvl in payload["levels"]]
    assert dual == [-e for e in reversed(base)]


def test_critical_zeta_json_and_csv():
    p = run("critical-zeta", "--M", "3")
    assert p.returncode == 0
    payload = json.loads(p.stdout)
    assert payload["schema"] == 1
    assert abs(payload["zeta_c_squared"] - 0.25) <= 1e-9
    assert payload["degenerate_energy"] == pytest.approx(6.75, abs=1e-4)
    q = run("critical-zeta", "--M", "3", "--format", "csv")
    lines = q.stdout.splitlines()
    assert lines[0] == "M,zeta_c_squared,degenerate_energy,tol"
    assert lines[1].startswith("3,0.25")


def test_critical_zeta_tol_below_double_spacing():
    # the bisection once never ended when tol was below the spacing of
    # doubles near zeta_c^2; the timeout turns that into a failure
    p = run("critical-zeta", "--M", "3", "--tol", "1e-300", timeout=30)
    assert p.returncode == 0, p.stderr
    assert abs(json.loads(p.stdout)["zeta_c_squared"] - 0.25) <= 1e-14


@pytest.mark.parametrize(
    "args",
    [
        ("spectrum", "--M", "3", "--zeta2", "0.01", "--zeta", "0.1"),
        ("spectrum", "--M", "3"),
        ("spectrum", "--M", "0", "--zeta2", "0.01"),
        ("spectrum", "--M", "3", "--zeta2", "-0.1"),
        ("critical-zeta", "--M", "4"),
        ("critical-zeta", "--M", "3", "--tol", "0"),
        ("verify", "--suite", "tables", "--M", "3"),
        ("verify", "--suite", "oracle", "--M", "10"),
        ("sweep", "--M", "1", "--zeta2-range", "0.02:0:0.01"),
        ("sweep", "--M", "1", "--zeta2-range", "1:2"),
        ("sweep", "--M", "0", "--zeta2-range", "0:0.02:0.01"),
        ("spectrum", "--M", "4", "--zeta2", "0.01", "--model", "dsg"),
        ("sweep", "--M", "2", "--zeta2-range", "0:0.02:0.01", "--model", "dsg"),
        ("spectrum", "--M", "3", "--zeta2", "nan"),
        ("spectrum", "--M", "3", "--zeta2", "inf"),
        ("spectrum", "--M", "3", "--zeta", "inf"),
        ("spectrum", "--M", "3", "--zeta", "nan"),
        ("spectrum", "--M", "3", "--zeta", "1e200"),
        ("verify", "--suite", "oracle", "--zeta2", "nan"),
        ("critical-zeta", "--M", "3", "--tol", "nan"),
        ("sweep", "--M", "1", "--zeta2-range", "0:inf:0.01"),
        ("sweep", "--M", "1", "--zeta2-range", "0:1:inf"),
        ("sweep", "--M", "1", "--zeta2-range", "nan:1:0.1"),
        ("sweep", "--M", "1", "--zeta2-range", "0:nan:0.1"),
        ("sweep", "--M", "1", "--zeta2-range", "0:1:nan"),
        ("sweep", "--M", "1", "--zeta2-range", "0:1:1e-6"),
    ],
)
def test_usage_errors_exit_2(args):
    # a non-finite sweep range once looped without end; the timeout turns
    # such a regression into a failure instead of a hang
    p = run(*args, timeout=30)
    assert p.returncode == 2
    assert p.stderr != ""
    assert p.stdout == ""


def test_sweep_point_cap():
    # 0:1:1e-6 asks for MAX_SWEEP_POINTS + 1 couplings
    with pytest.raises(ptqes.cli.UsageError):
        ptqes.cli._parse_range("0:1:1e-6")
    assert len(ptqes.cli._parse_range("0:0.999999:1e-6")) == ptqes.cli.MAX_SWEEP_POINTS


def test_sweep_step_below_double_spacing_ends():
    # 1e300 + 1 == 1e300: stepping from start once appended 1e300 without
    # end while memory grew.  The address-space limit makes such a
    # regression fail on its own memory, and the timeout on its time.
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    p = subprocess.run(
        [sys.executable, "-m", "ptqes.cli", "sweep", "--M", "3", "--zeta2-range", "1e300:1e300:1", "--format", "csv"],
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=limit_memory,
    )
    assert p.returncode == 0, p.stderr
    assert len(p.stdout.splitlines()) == 1 + 3


def test_internal_value_error_exits_3(monkeypatch, capsys):
    # only argument validation maps to usage exit 2; a ValueError raised
    # inside the package is an internal failure
    def broken(M, zetas):
        raise ValueError("internal fault")

    # the parser is built once per process; a patch made after it was built
    # must still reach the command
    assert ptqes.cli.main(["spectrum", "--M", "3", "--zeta2", "0.01"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(ptqes.cli, "level_rows", broken)
    assert ptqes.cli.main(["spectrum", "--M", "3", "--zeta2", "0.01"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal fault" in captured.err


def test_memory_error_exits_3(monkeypatch, capsys):
    # numpy raises MemoryError when a pencil stack does not fit; that is a
    # numerical failure, not a traceback with the verification exit code
    def exhausted(M, zetas):
        raise MemoryError("cannot allocate the stacked pencil")

    monkeypatch.setattr(ptqes.cli, "level_rows", exhausted)
    assert ptqes.cli.main(["spectrum", "--M", "3", "--zeta2", "0.01"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical or internal failure: cannot allocate the stacked pencil\n"


def _assert_one_failure_line(p):
    assert p.returncode == 3
    assert p.stdout == ""
    assert "Warning" not in p.stderr
    assert p.stderr.startswith("numerical or internal failure: ")
    assert len(p.stderr.splitlines()) == 1


def test_overflow_exits_3():
    # R_M's coefficients overflow at zeta^2 = 1e100; the build refuses them
    # and the CLI prints one line, with the code of a numerical failure.
    _assert_one_failure_line(run("verify", "--suite", "oracle", "--zeta2", "1e100", timeout=60))


def test_pencil_overflow_exits_3():
    # zeta^2 S overflows at zeta^2 = 1e308 for M = 3; level_rows refuses it.
    _assert_one_failure_line(run("spectrum", "--M", "3", "--zeta2", "1e308", timeout=60))


@functools.cache
def _critical_zeta2(M):
    return ptqes.spectra.critical_coupling(M).zeta_c_squared


@pytest.mark.parametrize(
    "model, M", [(model, M) for model in ("dshg", "dsg") for M in range(1, 16) if model == "dshg" or M % 2]
)
def test_spectrum_command_matches_the_library(capsys, model, M):
    # M = 1 and even M have no level merger of their own; they take the
    # critical coupling of the next odd M
    zc2 = _critical_zeta2(M if M % 2 and M > 1 else max(3, M + 1))
    solve = ptqes.duality.dual_spectrum if model == "dsg" else ptqes.spectra.qes_spectrum
    for z2 in (0.0, 0.9 * zc2, 1.1 * zc2):
        assert ptqes.cli.main(["spectrum", "--M", str(M), "--zeta2", repr(z2), "--model", model]) == 0
        payload = json.loads(capsys.readouterr().out)
        spec = solve(ptqes.model.ModelParams(M=M, zeta=math.sqrt(z2)))
        got = [
            (r["E_re"].hex(), r["E_im"].hex(), r["label"], r["is_real"], r.get("source_index"))
            for r in payload["levels"]
        ]
        want = [
            (E.real.hex(), E.imag.hex(), lvl.label, lvl.is_real, getattr(lvl, "source_index", None))
            for E, lvl in zip(spec.energies, spec.levels)
        ]
        assert got == want
        assert payload["degenerate_pairs"] == [list(p) for p in ptqes.spectra.degenerate_pairs(spec.energies)]


@pytest.mark.parametrize("suite", ["oracle", "factorization", "norms", "duality"])
def test_verify_suites_pass(suite):
    p = run("verify", "--suite", suite)
    assert p.returncode == 0, p.stdout + p.stderr
    payload = json.loads(p.stdout)
    assert payload["passed"] is True
    assert all(c["passed"] for c in payload["checks"])


def test_verify_tables_reports_golden_defects():
    # the bundled golden file carries one digit slip in its middle table and
    # a systematically corrupted third table; verify must say so and exit 1
    p = run("verify", "--suite", "tables")
    assert p.returncode == 1
    payload = json.loads(p.stdout)
    status = {c["name"]: c["passed"] for c in payload["checks"]}
    assert status == {"tables.I": True, "tables.II": False, "tables.III": False}
    assert payload["passed"] is False


def test_verify_all_includes_every_suite():
    p = run("verify")
    assert p.returncode == 1  # tables fail, everything else passes
    payload = json.loads(p.stdout)
    names = [c["name"] for c in payload["checks"]]
    for prefix in ("tables.", "oracle.", "factorization.", "norms.", "duality."):
        assert any(n.startswith(prefix) for n in names)
    failing = {n for n, c in zip(names, payload["checks"]) if not c["passed"]}
    assert failing == {"tables.II", "tables.III"}


def test_verify_oracle_narrowed_floor_cell():
    # M = 6, zeta^2 = 0.005 holds a level pair 1e-7 apart near E = 11
    p = run("verify", "--suite", "oracle", "--M", "6", "--zeta2", "0.005")
    assert p.returncode == 0
    checks = {c["name"]: c for c in json.loads(p.stdout)["checks"]}
    assert set(checks) == {"oracle.R_residual", "oracle.spectrum_match", "oracle.char_poly"}
    assert all(c["passed"] for c in checks.values())
    assert "at M=6 zeta2=0.005 (bound 1.0e-08)" in checks["oracle.spectrum_match"]["detail"]
    assert "(bound 1.0e-12)" in checks["oracle.R_residual"]["detail"]


def test_verify_csv_format():
    p = run("verify", "--suite", "factorization", "--format", "csv")
    assert p.returncode == 0
    lines = p.stdout.splitlines()
    assert lines[0] == "name,passed,detail"
    assert all(line.split(",")[1] == "true" for line in lines[1:])


def test_sweep_csv():
    p = run("sweep", "--M", "1", "--zeta2-range", "0:0.02:0.01", "--format", "csv")
    assert p.returncode == 0
    lines = p.stdout.splitlines()
    assert lines[0] == "zeta2,index,label,E_re,E_im,is_real"
    rows = list(csv.DictReader(io.StringIO(p.stdout)))
    assert len(rows) == 3
    for row in rows:
        z2 = float(row["zeta2"])
        assert float(row["E_re"]) == pytest.approx(1.0 - z2, abs=1e-12)
        assert row["label"] == "E_P"


# (M, zeta2 range); the M = 61 range has more couplings than fit in one
# stacked eigvals call.
SWEEP_RANGES = [(M, "0:0.3:0.0125") for M in (1, 2, 3, 4, 9, 15, 21)] + [(61, "0:0.0075:0.0001")]


@pytest.mark.parametrize(
    "model, M, spec", [(model, M, spec) for model in ("dshg", "dsg") for M, spec in SWEEP_RANGES if model == "dshg" or M % 2]
)
def test_sweep_rows_equal_spectrum_levels(capsys, model, M, spec):
    def levels(*args):
        assert ptqes.cli.main([*args, "--M", str(M), "--model", model]) == 0
        payload = json.loads(capsys.readouterr().out)
        return payload["rows" if args[0] == "sweep" else "levels"]

    rows = levels("sweep", "--zeta2-range", spec)
    if M == 61:
        # the E_P blocks of this sweep need more than one stacked call
        assert len(rows) // M > ptqes.spectra._STACK_ENTRIES // (M // 2 + 1) ** 2
    by_zeta2 = {}
    for row in rows:
        by_zeta2.setdefault(row["zeta2"], []).append(row)
    assert len(by_zeta2) == len(ptqes.cli._parse_range(spec))
    for z2, sweep_rows in by_zeta2.items():
        want = levels("spectrum", "--zeta2", repr(z2))
        got = [(r["index"], r["label"], r["E_re"].hex(), r["E_im"].hex(), r["is_real"]) for r in sweep_rows]
        assert got == [(w["index"], w["label"], w["E_re"].hex(), w["E_im"].hex(), w["is_real"]) for w in want]


def test_out_writes_file(tmp_path):
    out = tmp_path / "sweep.csv"
    p = run("sweep", "--M", "1", "--zeta2-range", "0:0.02:0.01", "--format", "csv", "--out", str(out))
    assert p.returncode == 0
    assert p.stdout == ""
    assert out.read_text().splitlines()[0] == "zeta2,index,label,E_re,E_im,is_real"


def test_unwritable_out_exits_2(tmp_path):
    out = tmp_path / "missing" / "x.json"
    p = run("spectrum", "--M", "3", "--zeta2", "0.1", "--out", str(out))
    assert p.returncode == 2
    assert p.stdout == ""
    assert p.stderr == f"error: cannot write --out {out}: No such file or directory\n"
    assert not out.parent.exists()


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_negative_zero_coupling_prints_zero(capsys, fmt):
    # --zeta2 -0 once printed "zeta2": -0.0 where --zeta -0.0 gives 0.0
    out = []
    for coupling in (("--zeta2", "-0"), ("--zeta2", "0"), ("--zeta", "-0.0")):
        assert ptqes.cli.main(["spectrum", "--M", "3", *coupling, "--format", fmt]) == 0
        out.append(capsys.readouterr().out)
    assert out[0] == out[1] == out[2]


def test_output_is_deterministic():
    args = ("sweep", "--M", "3", "--zeta2-range", "0:0.02:0.005")
    a = run(*args)
    b = run(*args)
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


@pytest.mark.parametrize(
    "args",
    [
        ("spectrum", "--M", "2", "--zeta", "0.3"),
        ("critical-zeta", "--M", "5"),
        ("verify", "--suite", "norms"),
        ("sweep", "--M", "1", "--zeta2-range", "0:0.01:0.01"),
    ],
)
def test_json_payloads_carry_schema(args):
    p = run(*args)
    assert p.returncode == 0
    assert json.loads(p.stdout)["schema"] == 1


# Corruptions for test_verify_checks_can_fail: each maps the original
# callable to one that turns the named check red.
def _negated(gram_matrix):
    return lambda table: -gram_matrix(table)


def _gamma0_doubled(weights):
    def corrupted(params):
        table = weights(params)
        return dataclasses.replace(table, gamma=(2.0 * table.gamma[0], *table.gamma[1:]))

    return corrupted


def _first_level_nudged(dual_spectrum):
    # one ulp off: every tolerance-based check still passes
    def corrupted(params):
        spec = dual_spectrum(params)
        first = spec.levels[0]
        Ehat = complex(math.nextafter(first.Ehat.real, math.inf), first.Ehat.imag)
        return dataclasses.replace(spec, levels=(dataclasses.replace(first, Ehat=Ehat), *spec.levels[1:]))

    return corrupted


def _shifted(qes_spectrum):
    return lambda params: SimpleNamespace(energies=[E + 1e-6 for E in qes_spectrum(params).energies])


@pytest.mark.parametrize(
    "suite, name, module, attr, corrupt",
    [
        ("norms", "norms.sign_pattern", ptqes.norms, "gram_matrix", _negated),
        ("norms", "norms.gamma_endpoints", ptqes.norms, "weights", _gamma0_doubled),
        ("duality", "duality.negation_reversal", ptqes.duality, "dual_spectrum", _first_level_nudged),
        ("oracle", "oracle.spectrum_match", ptqes.oracle, "qes_spectrum", _shifted),
    ],
)
def test_verify_checks_can_fail(monkeypatch, capsys, suite, name, module, attr, corrupt):
    monkeypatch.setattr(module, attr, corrupt(getattr(module, attr)))
    assert ptqes.cli.main(["verify", "--suite", suite]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert {c["name"]: c["passed"] for c in payload["checks"]}[name] is False
    assert payload["passed"] is False


@pytest.mark.parametrize(
    "args",
    [
        ("spectrum", "--M", "4", "--zeta2", "0.1"),
        ("spectrum", "--M", "5", "--zeta2", "0.05", "--model", "dsg"),
        ("sweep", "--M", "3", "--zeta2-range", "0:0.3:0.1", "--model", "dsg"),
        ("critical-zeta", "--M", "5"),
        ("verify", "--suite", "tables"),
    ],
)
def test_formats_show_the_json_values(capsys, args):
    out = {}
    for fmt in ("json", "csv", "table"):
        ptqes.cli.main([*args, "--format", fmt])
        out[fmt] = capsys.readouterr().out
    payload = json.loads(out["json"])
    command = payload["command"]
    columns = ptqes.cli._COLUMNS[command]
    rows = ptqes.cli._rows(payload)
    cells = [[fmt(row[key]) for key, _, _, fmt in columns] for row in rows]

    header, *csv_rows = csv.reader(io.StringIO(out["csv"]))
    assert header == [key for key, *_ in columns]
    assert csv_rows == cells

    table = out["table"].splitlines()
    if command == "critical-zeta":
        assert table == [f"{key}={cell}" for (key, *_), cell in zip(columns, cells[0])]
    elif command == "verify":
        verdicts = [["PASS" if passed == "true" else "FAIL", name, detail] for name, passed, detail in cells]
        assert [line.split(None, 2) for line in table[:-1]] == verdicts
    else:
        assert table[1].split() == [head for _, head, *_ in columns]
        assert [line.split() for line in table[2 : 2 + len(rows)]] == cells
        assert len(table) == 2 + len(rows) + (command == "spectrum")


# ---------------------------------------------------------------------------
# The json renderer: the bytes of json.dumps(x, indent=2), from the C encoder.

_TRICKY = ["}", "]", "{", "[", ",", '": "', "\n", '"', "\\", "é", "\u2192", "\U0001d49c", "a", " ", "\x00"]
_texts = st.text() | st.lists(st.sampled_from(_TRICKY), max_size=6).map("".join)
_floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e308, 5e-324])
_scalars = st.none() | st.booleans() | st.integers() | st.integers(min_value=-(10**40), max_value=10**40) | _floats | _texts
_flat_containers = st.dictionaries(_texts, _scalars, max_size=4) | st.lists(_scalars, max_size=4)
_json_values = st.recursive(
    _scalars | _flat_containers | st.lists(_flat_containers, max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_texts, inner, max_size=4),
    max_leaves=24,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(x=_json_values)
def test_json_render_matches_stdlib(x):
    assert ptqes.cli._render(x, "json") == json.dumps(x, indent=2) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--M", "4", "--zeta2", "0.3"),
        ("spectrum", "--M", "5", "--zeta2", "0.05", "--model", "dsg"),
        ("sweep", "--M", "3", "--zeta2-range", "0:0.3:0.01"),
        ("sweep", "--M", "5", "--zeta2-range", "0:0.1:0.01", "--model", "dsg"),
        ("critical-zeta", "--M", "5"),
        ("verify", "--suite", "all"),
    ],
)
def test_json_render_matches_stdlib_on_payloads(argv):
    args = ptqes.cli._build_parser().parse_args(argv)
    payload, _ = args.func(args)
    assert ptqes.cli._render(payload, "json") == json.dumps(payload, indent=2) + "\n"


def test_json_render_stays_on_the_c_encoder(monkeypatch, capsys):
    # json's pure-Python encoder is built by _make_iterencode; indent=2 took it
    def refuse(*args, **kwargs):
        raise AssertionError("pure-Python json encoder used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    assert ptqes.cli.main(["sweep", "--M", "9", "--zeta2-range", "0:0.05:0.002"]) == 0
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 9 * 26


def test_parser_is_built_once():
    assert ptqes.cli._build_parser() is ptqes.cli._build_parser()


def test_main_repeats_in_one_process(capsys):
    # every subcommand through one parser, with argparse rejections between
    # them; each call prints what a fresh interpreter prints
    calls = [
        ("spectrum", "--M", "3", "--zeta2", "0.01"),
        ("spectrum", "--M", "3"),
        ("sweep", "--M", "3", "--zeta2-range", "0:0.3:0.1", "--model", "dsg", "--format", "table"),
        ("nosuch",),
        ("critical-zeta", "--M", "5", "--format", "csv"),
        ("verify", "--suite", "factorization"),
        ("spectrum", "--M", "x", "--zeta2", "0.01"),
        ("spectrum", "--M", "2", "--zeta", "0.3", "--format", "table"),
    ]
    for argv in calls:
        try:
            code = ptqes.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = run(*argv)
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
