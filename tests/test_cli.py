import contextlib
import csv
import dataclasses
import functools
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ptqes.cli
import ptqes.duality
import ptqes.model
import ptqes.norms
import ptqes.oracle
import ptqes.polyengine
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


def test_spectrum_dsg_real_levels_print_positive_zero(capsys):
    # Ehat = -E once turned a real level's 0j into -0j, printed as -0
    assert ptqes.cli.main(["spectrum", "--M", "3", "--zeta2", "0.01", "--model", "dsg", "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["E_im"] for r in rows] == ["0", "0", "0"]
    levels = ptqes.duality.dual_spectrum(ptqes.model.ModelParams(M=3, zeta=0.1)).levels
    assert [math.copysign(1, lvl.Ehat.imag) for lvl in levels if lvl.is_real] == [1.0, 1.0, 1.0]


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
    # the zeta^2 solve once never ended when tol was below the spacing of
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


@pytest.mark.parametrize(
    "command, flags",
    [
        ("spectrum", ["--model", "--M", "--zeta2", "--format", "--out"]),
        ("critical-zeta", ["--M", "--tol", "--format", "--out"]),
        ("verify", ["--suite", "--format", "--out"]),
        ("sweep", ["--model", "--M", "--zeta2-range", "--format", "--out"]),
    ],
)
def test_help_lists_each_flag(capsys, command, flags):
    # in printed order: once in the usage line, then after --help in the
    # option list
    with pytest.raises(SystemExit) as exc:
        ptqes.cli.main([command, "--help"])
    assert exc.value.code == 0
    assert re.findall(r"--[\w-]+", capsys.readouterr().out) == [*flags, "--help", *flags]


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
    monkeypatch.setattr(ptqes.cli, "level_arrays", broken)
    assert ptqes.cli.main(["spectrum", "--M", "3", "--zeta2", "0.01"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal fault" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--M", "3", "--zeta2-range", "0:0.02:0.01", "--model", "dshg"],
        ["sweep", "--M", "3", "--zeta2-range", "0:0.02:0.01", "--model", "dsg"],
        ["spectrum", "--M", "3", "--zeta2", "0.01"],
    ],
    ids=["dshg", "dsg", "spectrum"],
)
def test_memory_error_in_a_sweep_exits_3(monkeypatch, capsys, argv):
    # numpy raises MemoryError when a pencil stack does not fit; that is a
    # numerical failure, not a traceback with the verification exit code.
    # spectrum and sweep read the stacked level arrays, and the dsg arrays
    # are the dshg ones mapped, so one fault reaches every level command
    def exhausted(M, zetas):
        raise MemoryError("cannot allocate the stacked pencil")

    monkeypatch.setattr(ptqes.duality, "level_arrays", exhausted)
    monkeypatch.setattr(ptqes.cli, "level_arrays", exhausted)
    assert ptqes.cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical or internal failure: cannot allocate the stacked pencil\n"


@pytest.mark.parametrize(
    "error, message",
    [(KeyError("E_R"), "'E_R'"), (IndexError("no such level"), "no such level"), (TypeError("bad operand"), "bad operand")],
    ids=["KeyError", "IndexError", "TypeError"],
)
def test_any_internal_error_exits_3(monkeypatch, capsys, error, message):
    # a LookupError or TypeError raised inside a command once escaped with a
    # traceback and exit 1, the code of a failed verification
    def broken(M, zetas):
        raise error

    monkeypatch.setattr(ptqes.cli, "level_arrays", broken)
    assert ptqes.cli.main(["spectrum", "--M", "3", "--zeta2", "0.01"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"numerical or internal failure: {message}\n"


def test_keyboard_interrupt_passes_through(monkeypatch):
    def interrupted(M, zetas):
        raise KeyboardInterrupt

    monkeypatch.setattr(ptqes.cli, "level_arrays", interrupted)
    with pytest.raises(KeyboardInterrupt):
        ptqes.cli.main(["spectrum", "--M", "3", "--zeta2", "0.01"])


def test_pencil_overflow_exits_3():
    # zeta^2 S overflows at zeta^2 = 1e308 for M = 3; level_arrays refuses it
    # and the CLI prints one line, with the code of a numerical failure.
    p = run("spectrum", "--M", "3", "--zeta2", "1e308", timeout=60)
    assert p.returncode == 3
    assert p.stdout == ""
    assert "Warning" not in p.stderr
    assert p.stderr.startswith("numerical or internal failure: ")
    assert len(p.stderr.splitlines()) == 1


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
    # the bundled golden file carries two digit slips in its middle table,
    # one past the 1e-6 cell bound, and a systematically corrupted third
    # table; verify must say so and exit 1
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


def test_verify_oracle_full_grid():
    p = run("verify", "--suite", "oracle")
    assert p.returncode == 0
    checks = {c["name"]: c for c in json.loads(p.stdout)["checks"]}
    assert list(checks) == ["oracle.R_residual", "oracle.spectrum_match", "oracle.char_poly"]
    assert all(c["passed"] for c in checks.values())
    cell = re.compile(r" at M=[1-9] zeta2=(0|0\.005|0\.01|0\.02|0\.025)( |$)")
    assert all(cell.search(c["detail"]) for c in checks.values())
    assert checks["oracle.R_residual"]["detail"].endswith("(bound 1.0e-12)")
    assert checks["oracle.spectrum_match"]["detail"].endswith("(bound 1.0e-11)")
    assert checks["oracle.char_poly"]["detail"].endswith("(bound 1.0e-12)")


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


# Python's stdout as a shell gives it: buffered.  Under PYTHONUNBUFFERED its
# text layer drops the count of a partial write, so a write that a closing
# reader cuts short never fails, and no data is left for the flush at exit.
_BUFFERED = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_exits_2():
    # a full stdout once raised OSError out of main: exit 1, which means a
    # failed check, with a traceback; the one stderr line also shows that
    # the flush at interpreter exit printed no "Exception ignored"
    cmd = [sys.executable, "-m", "ptqes.cli", "spectrum", "--M", "3", "--zeta2", "0.01"]
    with open("/dev/full", "w") as full:
        p = subprocess.run(cmd, stdout=full, stderr=subprocess.PIPE, text=True, env=_BUFFERED)
    assert p.returncode == 2
    assert p.stderr == "error: cannot write stdout: No space left on device\n"


def test_closed_stdout_pipe_exits_2():
    # a reader that stops after 10 bytes of a csv longer than a pipe buffer
    args = ("sweep", "--M", "3", "--zeta2-range", "0:1:0.0005", "--format", "csv")
    cmd = [sys.executable, "-m", "ptqes.cli", *args]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_BUFFERED) as p:
        assert len(p.stdout.read(10)) == 10
        p.stdout.close()
        stderr = p.stderr.read().decode()
    assert p.returncode == 2
    assert stderr == "error: cannot write stdout: Broken pipe\n"


def _open_descriptors():
    """The numbers of this process's open file descriptors below 256."""
    fds = set()
    for fd in range(256):
        with contextlib.suppress(OSError):
            os.fstat(fd)
            fds.add(fd)
    return fds


def test_unwritable_stdout_leaves_no_descriptor_open(capsys, monkeypatch):
    # an in-process call whose stdout is a pipe with its read end closed
    # points that descriptor at the null device and closes the one it opened
    # for that, so repeated calls do not pile up descriptors
    read_end, write_end = os.pipe()
    os.close(read_end)
    stdout = os.fdopen(write_end, "w")
    monkeypatch.setattr(sys, "stdout", stdout)
    before = _open_descriptors()
    try:
        assert ptqes.cli.main(["spectrum", "--M", "3", "--zeta2", "0.01"]) == 2
        after = _open_descriptors()
        assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
    finally:
        with contextlib.suppress(OSError):
            stdout.close()
    assert capsys.readouterr().err == "error: cannot write stdout: Broken pipe\n"
    assert after == before


def test_unwritable_stdout_without_a_descriptor_exits_2(capsys, monkeypatch):
    # an in-process caller's stdout with no file descriptor to redirect
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(sys, "stdout", Full())
    assert ptqes.cli.main(["critical-zeta", "--M", "3", "--format", "csv"]) == 2
    assert capsys.readouterr().err == "error: cannot write stdout: No space left on device\n"


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_negative_zero_coupling_prints_zero(capsys, fmt):
    # --zeta2 -0 once printed "zeta2": -0.0
    out = []
    for zeta2 in ("-0", "0"):
        assert ptqes.cli.main(["spectrum", "--M", "3", "--zeta2", zeta2, "--format", fmt]) == 0
        out.append(capsys.readouterr().out)
    assert out[0] == out[1]


def test_output_is_deterministic():
    args = ("sweep", "--M", "3", "--zeta2-range", "0:0.02:0.005")
    a = run(*args)
    b = run(*args)
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


@pytest.mark.parametrize(
    "args",
    [
        ("spectrum", "--M", "2", "--zeta2", "0.09"),
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


def _one_weight_imaginary(weights):
    # below the critical coupling every weight is exactly real, so the
    # smallest imaginary part is already a failure
    def corrupted(params):
        table = weights(params)
        return dataclasses.replace(table, weights=(table.weights[0] + 1e-300j, *table.weights[1:]))

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
        ("norms", "norms.weight_reality", ptqes.norms, "weights", _one_weight_imaginary),
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


def _nan_property(self):
    return math.nan


@pytest.mark.parametrize(
    "suite, name, target, attr, nan_input, detail",
    [
        (
            "oracle",
            "oracle.spectrum_match",
            ptqes.oracle,
            "matching_distance",
            lambda a, b: math.nan,
            "max_distance=nan at M=1 zeta2=0 (bound 1.0e-11)",
        ),
        (
            "norms",
            "norms.weight_reality",
            ptqes.norms.WeightTable,
            "max_weight_imag",
            property(_nan_property),
            "max_rel_imag=nan (M in 3,5,7,9,21,41); NaN at M=3 zeta2=0.005",
        ),
        (
            "factorization",
            "factorization.M1",
            ptqes.spectra.FactorizationReport,
            "max_deviation",
            property(_nan_property),
            "max_deviation=nan; NaN at M=1 zeta2=0.005",
        ),
        (
            "duality",
            "duality.closed_form_m3",
            ptqes.duality,
            "dual_closed_form_levels",
            lambda params: [complex(math.nan, math.nan)] * 3,
            "max_error=nan; NaN at zeta2=0 level 0",
        ),
    ],
    ids=["oracle", "norms", "factorization", "duality"],
)
def test_verify_fails_an_all_nan_measurement(monkeypatch, capsys, suite, name, target, attr, nan_input, detail):
    # every value the check reduces is NaN: the check fails and its detail
    # names the first cell, where a running max(worst, value) kept 0.0
    monkeypatch.setattr(target, attr, nan_input)
    assert ptqes.cli.main(["verify", "--suite", suite, "--format", "json"]) == 1
    check = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}[name]
    assert check["passed"] is False
    assert check["detail"] == detail


def _golden_cell(abs_err):
    return ptqes.oracle.CellComparison("I", 3, 0.01, "E_P", 0, 1.0, computed=1.0, abs_err=abs_err, passed=False)


@pytest.mark.parametrize(
    "measure",
    [
        lambda: ptqes.polyengine.matching_distance([1, 2], [1, complex(math.nan, 0.0)]),
        lambda: ptqes.spectra._coeff_distance(
            ptqes.polyengine.EnergyPolynomial((1.0, 2.0, 1.0)), ptqes.polyengine.EnergyPolynomial((1.0, math.nan, 1.0))
        ),
        lambda: ptqes.spectra.FactorizationReport(
            ptqes.model.ModelParams(M=3, zeta=0.1),
            tuple(ptqes.spectra.FactorizationCheck("R = P*Q", 3, deviation) for deviation in (1e-15, math.nan)),
        ).max_deviation,
        lambda: ptqes.norms.WeightTable(
            ptqes.model.ModelParams(M=2, zeta=0.1), (1.0, 2.0), (0.5 + 0j, complex(0.5, math.nan)), (1.0, -0.01, 0.0)
        ).max_weight_imag,
        lambda: ptqes.oracle.ode_residual(lambda x: math.nan if x.real > 0.5 else 1.0, lambda x: 0.0, 0.0, [0.0, 1.0]),
        lambda: ptqes.oracle.TableReport("I", (_golden_cell(1e-7), _golden_cell(math.nan))).max_abs_err,
    ],
    ids=[
        "oracle.spectrum_match",
        "oracle.char_poly",
        "factorization",
        "norms.weight_reality",
        "duality.ode_residual",
        "tables",
    ],
)
def test_per_cell_measures_keep_a_single_nan(measure):
    # one NaN among finite values: a builtin max keeps the finite maximum,
    # so the check the measure feeds (its id) would pass on a NaN cell
    assert math.isnan(measure())


def _text(value) -> str:
    """A csv or table cell as the CLI documents it: 12 significant digits
    for a float, true or false for a bool."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.12g}" if isinstance(value, float) else str(value)


@pytest.mark.parametrize(
    "args",
    [
        ("spectrum", "--M", "4", "--zeta2", "0.1"),
        ("spectrum", "--M", "5", "--zeta2", "0.05", "--model", "dsg"),
        ("sweep", "--M", "3", "--zeta2-range", "0:0.3:0.1", "--model", "dsg"),
        ("critical-zeta", "--M", "5"),
        ("verify", "--suite", "tables"),
        ("verify", "--suite", "all"),
    ],
)
def test_formats_show_the_json_values(capsys, args):
    out = {}
    for fmt in ("json", "csv", "table"):
        ptqes.cli.main([*args, "--format", fmt])
        out[fmt] = capsys.readouterr().out
    payload = json.loads(out["json"])
    command = payload["command"]
    if command == "critical-zeta":
        # the payload is its one row, and csv shows each of its fields
        rows = [payload]
        keys = [key for key in payload if key not in ("schema", "command")]
    elif command == "verify":
        rows = payload["checks"]
        keys = list(rows[0])
    else:
        columns = ptqes.cli._COLUMNS[command]
        rows = payload["levels" if command == "spectrum" else "rows"]
        keys = [key for key, *_ in columns]
    cells = [[_text(row[key]) for key in keys] for row in rows]

    header, *csv_rows = csv.reader(io.StringIO(out["csv"]))
    assert header == keys
    assert csv_rows == cells

    table = out["table"].splitlines()
    if command == "critical-zeta":
        assert table == [f"{key}={cell}" for key, cell in zip(keys, cells[0])]
    elif command == "verify":
        verdicts = [["PASS" if passed == "true" else "FAIL", name, detail] for name, passed, detail in cells]
        assert [line.split(None, 2) for line in table[:-1]] == verdicts
    else:
        assert table[1].split() == [head for _, head, *_ in columns]
        assert [line.split() for line in table[2 : 2 + len(rows)]] == cells
        assert len(table) == 2 + len(rows) + (command == "spectrum")


# ---------------------------------------------------------------------------
# The json renderer: the bytes of json.dumps(x, indent=2).

_TRICKY = ["}", "]", "{", "[", ",", '": "', "\n", '"', "\\", "é", "\u2192", "\U0001d49c", "a", " ", "\x00"]
_texts = st.text() | st.lists(st.sampled_from(_TRICKY), max_size=6).map("".join)
_floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e308, 5e-324])
_scalars = st.none() | st.booleans() | st.integers() | st.integers(min_value=-(10**40), max_value=10**40) | _floats | _texts
# A payload: a dict of scalar fields and row lists, each list's rows all
# dicts or all lists, flat and non-empty, as the commands build them, or of
# any nested json value.
_dict_rows = st.dictionaries(_texts, _scalars, min_size=1, max_size=4)
_list_rows = st.lists(_scalars, min_size=1, max_size=4)
_nested = st.recursive(_scalars, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_texts, inner, max_size=3))
_fields = _scalars | st.lists(_dict_rows, max_size=4) | st.lists(_list_rows, max_size=4) | _nested
_payloads = st.dictionaries(_texts, _fields, min_size=1, max_size=6)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(x=_payloads)
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
        ("spectrum", "--M", "5", "--zeta2", "0"),  # degenerate_pairs [[0, 1], [2, 3]]
    ],
)
def test_json_render_matches_stdlib_on_payloads(argv):
    # level rows are held as columns, a sweep's zeta2 one value per
    # coupling; json.dumps takes them as row dicts
    def rows(levels):
        n = len(levels.columns[-1])
        columns = [[x for x in column for _ in range(n // len(column))] for column in levels.columns]
        return [dict(zip([k for k, *_ in levels.spec], row)) for row in zip(*columns)]

    args = ptqes.cli._build_parser().parse_args(argv)
    payload, _ = args.func(args)
    as_dicts = {key: rows(v) if isinstance(v, ptqes.cli._Levels) else v for key, v in payload.items()}
    assert ptqes.cli._render(payload, "json") == json.dumps(as_dicts, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Level output against an independent reference: the rows rebuilt as dicts
# from level_rows / dual_spectrum, one coupling per call (the 2-D solve,
# which shares no code with the stacked level arrays the CLI reads), and written
# by json.dumps, csv.writer and f"{x:.12g}" padded to the _COLUMNS widths.


def _stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert ptqes.cli.main(argv) == 0
    return buf.getvalue()


def _reference(command, model, M, where, couplings, fmt) -> str:
    """What `command` prints at these couplings; `where` is the --zeta2 value
    of spectrum or the --zeta2-range of sweep."""
    rows = []
    for z2 in couplings:
        if model == "dsg":
            levels = ptqes.duality.dual_spectrum(ptqes.model.ModelParams(M, math.sqrt(z2))).levels
            tagged = [(lvl.Ehat, lvl.label, lvl.is_real) for lvl in levels]
        else:
            tagged = ptqes.spectra.level_rows(M, math.sqrt(z2))
        for k, (E, label, real) in enumerate(tagged):
            row = {"zeta2": z2} if command == "sweep" else {}
            row.update(index=k, label=label, E_re=E.real, E_im=E.imag, is_real=real)
            if command == "spectrum" and model == "dsg":
                row["source_index"] = M - 1 - k
            rows.append(row)
    if command == "spectrum":
        energies = [complex(row["E_re"], row["E_im"]) for row in rows]
        pairs = [list(p) for p in ptqes.spectra.degenerate_pairs(energies)]
    columns = ptqes.cli._COLUMNS[command]
    if fmt == "json":
        payload = {"schema": 1, "command": command, "model": model, "M": M}
        if command == "spectrum":
            payload.update(zeta2=where, levels=rows, degenerate_pairs=pairs)
        else:
            payload.update(zeta2_range=where, rows=rows)
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([key for key, *_ in columns])
        writer.writerows([_text(row[key]) for key, *_ in columns] for row in rows)
        return buf.getvalue()

    def pad(text, width):
        width = int(width or 0)
        return text.rjust(width) if width > 0 else text.ljust(-width)

    where = f"zeta2={_text(where)}" if command == "spectrum" else f"range={where}"
    lines = [f"model={model} M={M} {where}"]
    lines.append("  ".join(pad(head, width) for _, head, width, _ in columns))
    lines.extend("  ".join(pad(_text(row[key]), width) for key, _, width, _ in columns) for row in rows)
    if command == "spectrum":
        lines.append(f"degenerate_pairs={pairs}")
    return "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    model=st.sampled_from(["dshg", "dsg"]),
    M=st.integers(1, 41),
    start=st.sampled_from([0.0, 1e300]) | st.floats(0, 1e3),
    step=st.floats(1e-6, 10.0),
    count=st.integers(1, 5),
)
@example(model="dshg", M=4, start=0.3, step=0.1, count=1)
@example(model="dsg", M=5, start=0.05, step=0.01, count=1)
@example(model="dshg", M=3, start=0.0, step=0.01, count=31)
@example(model="dsg", M=5, start=0.0, step=0.01, count=11)
@example(model="dshg", M=5, start=0.0, step=0.01, count=3)  # degenerate_pairs [[0, 1], [2, 3]]
@example(model="dshg", M=3, start=1e300, step=1.0, count=1)
@example(model="dsg", M=41, start=1e300, step=1.0, count=1)
# 150 couplings of M = 41 span two stacks of 148
@example(model="dshg", M=41, start=0.0, step=0.0002, count=150)
@example(model="dsg", M=41, start=0.0, step=0.0002, count=150)
def test_level_output_matches_an_independent_reference(model, M, start, step, count):
    if model == "dsg":
        M |= 1
    spec = f"{start!r}:{start + (count - 1) * step!r}:{step!r}"
    couplings = ptqes.cli._parse_range(spec)
    common = ["--M", str(M), "--model", model, "--format"]
    for fmt in ("json", "csv", "table"):
        got = _stdout(["spectrum", "--zeta2", repr(start), *common, fmt])
        assert got == _reference("spectrum", model, M, start, [start], fmt)
        got = _stdout(["sweep", "--zeta2-range", spec, *common, fmt])
        assert got == _reference("sweep", model, M, spec, couplings, fmt)


def test_sweep_at_a_huge_coupling_is_strict_json(capsys):
    def refuse(constant):
        raise ValueError(f"json constant {constant}")

    assert ptqes.cli.main(["sweep", "--M", "3", "--zeta2-range", "1e300:1e300:1"]) == 0
    rows = json.loads(capsys.readouterr().out, parse_constant=refuse)["rows"]
    assert [row["zeta2"] for row in rows] == [1e300] * 3
    assert all(math.isfinite(row["E_re"]) for row in rows)


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("args", [("spectrum", "--zeta2", "0.01"), ("sweep", "--zeta2-range", "0:0.02:0.01")])
def test_non_finite_level_exits_3(monkeypatch, capsys, args, fmt):
    # a template would print nan as a bare word, which is not json; spectrum
    # and sweep read the stacked level arrays
    arrays = ptqes.spectra.level_arrays

    def nan_arrays(M, zetas):
        E, labels, real = arrays(M, zetas)
        E = E.copy()
        E[:, 0] = complex(math.nan, 0.0)
        return E, labels, real

    monkeypatch.setattr(ptqes.cli, "level_arrays", nan_arrays)
    assert ptqes.cli.main([args[0], "--M", "3", *args[1:], "--format", fmt]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numerical or internal failure: non-finite E_re in the level rows\n"


@pytest.mark.parametrize("args", [("spectrum", "--zeta2", "0.01"), ("sweep", "--zeta2-range", "0:0.02:0.01")])
def test_non_finite_imaginary_level_exits_3(monkeypatch, capsys, args):
    # the real parts are tested first, so this level's finite E_re passes
    arrays = ptqes.spectra.level_arrays

    def nan_arrays(M, zetas):
        E, labels, real = arrays(M, zetas)
        E = E.copy()
        E[:, -1] = complex(E[0, -1].real, math.nan)
        return E, labels, real

    monkeypatch.setattr(ptqes.cli, "level_arrays", nan_arrays)
    assert ptqes.cli.main([args[0], "--M", "3", *args[1:]]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numerical or internal failure: non-finite E_im in the level rows\n"


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
        ("spectrum", "--M", "2", "--zeta2", "0.09", "--format", "table"),
    ]
    for argv in calls:
        try:
            code = ptqes.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = run(*argv)
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


class _ShortThenClosedPipe(io.RawIOBase):
    """A binary stdout layer that takes 10 bytes of its first write, as a
    pipe whose reader is about to close, and then raises BrokenPipeError."""

    def __init__(self):
        self.taken = []

    def writable(self):
        return True

    def write(self, data):
        if not self.taken:
            self.taken.append(bytes(data[:10]))
            return 10
        raise BrokenPipeError(32, "Broken pipe")


def test_short_write_then_closed_pipe_exits_2(capsys, monkeypatch):
    # an unbuffered text stdout drops the count of a short write: main must
    # write the rest and so meet the closed pipe, not exit 0 on 10 bytes
    pipe = _ShortThenClosedPipe()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(pipe, encoding="utf-8", write_through=True))
    assert ptqes.cli.main(["spectrum", "--M", "3", "--zeta2", "0.01"]) == 2
    assert pipe.taken == [b'{\n  "schem']
    assert capsys.readouterr().err == "error: cannot write stdout: Broken pipe\n"


def test_closed_unbuffered_stdout_pipe_exits_2():
    # test_closed_stdout_pipe_exits_2 under PYTHONUNBUFFERED: once exit 0
    args = ("sweep", "--M", "3", "--zeta2-range", "0:1:0.0005", "--format", "csv")
    cmd = [sys.executable, "-m", "ptqes.cli", *args]
    env = {**_BUFFERED, "PYTHONUNBUFFERED": "1"}
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as p:
        assert len(p.stdout.read(10)) == 10
        p.stdout.close()
        stderr = p.stderr.read().decode()
    assert p.returncode == 2
    assert stderr == "error: cannot write stdout: Broken pipe\n"
