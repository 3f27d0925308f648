import dataclasses
import json
import math

import numpy as np
import pytest

import ptqes.cli
import ptqes.oracle
from ptqes.model import ModelParams
from ptqes.oracle import (
    default_sample_points,
    dshg_closed_form,
    dshg_closed_form_levels,
    gauge_char_poly,
    gauge_matrix,
    gauge_matrix_eigs,
    load_golden_levels,
    ode_residual,
    ode_residual_dsg,
    ode_residual_dshg,
    reproduce_tables,
    wedge_decay_probe,
)
from ptqes.polyengine import matching_distance
from ptqes.recursion import build_R
from ptqes.spectra import qes_spectrum


def test_gauge_matrix_entries_m3():
    z2 = 0.01
    A = gauge_matrix(ModelParams(M=3, zeta=math.sqrt(z2)))
    zeta = math.sqrt(z2)
    want = np.array(
        [
            [5.0 - z2, 2j * zeta, 0.0],
            [4j * zeta, 9.0 - z2, 4j * zeta],
            [0.0, 2j * zeta, 5.0 - z2],
        ]
    )
    assert np.allclose(A, want, atol=1e-15)
    assert not A.flags.writeable


def test_gauge_eigs_match_closed_forms():
    z2 = 0.01
    eigs = gauge_matrix_eigs(ModelParams(M=3, zeta=math.sqrt(z2)))
    r = math.sqrt(1.0 - 4.0 * z2)
    want = sorted([5.0 - z2, 7.0 - z2 - 2 * r, 7.0 - z2 + 2 * r])
    assert matching_distance(eigs, want) < 1e-12


def test_gauge_trace_identity():
    # trace equals the level sum: 19 - 3*zeta^2 at M = 3
    z2 = 0.02
    p = ModelParams(M=3, zeta=math.sqrt(z2))
    eigs = gauge_matrix_eigs(p)
    assert sum(eigs).real == pytest.approx(19.0 - 3 * z2, abs=1e-12)
    assert sum(eigs).imag == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("M", [2, 3, 6])
def test_char_poly_equals_recursion(M):
    p = ModelParams(M=M, zeta=math.sqrt(0.01))
    cp = gauge_char_poly(p)
    rm = build_R(p, M)[M]
    scale = max(abs(c) for c in rm.coeffs)
    worst = max(abs(a - b) for a, b in zip(cp.coeffs, rm.coeffs))
    assert worst / scale < 1e-12


def test_ode_residual_validation():
    psi = lambda x: 1.0
    pot = lambda x: 0.0
    with pytest.raises(ValueError):
        ode_residual(psi, pot, 0.0, [])
    with pytest.raises(ValueError):
        ode_residual(lambda x: 0.0, pot, 0.0, [0.0])


def test_closed_form_levels_and_tags():
    p1 = ModelParams(M=1, zeta=0.2)
    assert dshg_closed_form_levels(p1) == {"ground": pytest.approx(0.96)}
    p3 = ModelParams(M=3, zeta=0.2)
    lv = dshg_closed_form_levels(p3)
    assert set(lv) == {"odd", "even_minus", "even_plus"}
    assert lv["even_minus"].real < lv["even_plus"].real
    with pytest.raises(ValueError):
        dshg_closed_form_levels(ModelParams(M=5, zeta=0.2))
    with pytest.raises(ValueError):
        dshg_closed_form(p3, "nope")


def test_ode_residual_closed_forms():
    p1 = ModelParams(M=1, zeta=0.2)
    assert ode_residual_dshg(p1, 1.0 - 0.04, "ground") < 1e-6
    p3 = ModelParams(M=3, zeta=math.sqrt(0.01))
    for tag, E in dshg_closed_form_levels(p3).items():
        assert ode_residual_dshg(p3, E, tag) < 1e-6
    # a shifted energy must be rejected loudly, otherwise the check is vacuous
    assert ode_residual_dshg(p1, 1.0 - 0.04 + 0.1, "ground") > 1e-2


def test_ode_residual_dsg_takes_the_negated_level():
    # the hyperbolic closed form at x = i*theta solves the periodic equation
    # at -E, and the check rejects the unmapped level +E
    for p in (ModelParams(M=1, zeta=0.2), ModelParams(M=3, zeta=math.sqrt(0.01))):
        for tag, E in dshg_closed_form_levels(p).items():
            assert ode_residual_dsg(p, -E, tag) < 1e-6
            assert ode_residual_dsg(p, E, tag) > 1.0


def test_ode_residual_fd_order(monkeypatch):
    # central difference: halving the step cuts the defect by about 4
    p1 = ModelParams(M=1, zeta=0.2)
    monkeypatch.setattr(ptqes.oracle, "_FD_STEP", 2e-3)
    r1 = ode_residual_dshg(p1, 0.96, "ground")
    monkeypatch.setattr(ptqes.oracle, "_FD_STEP", 1e-3)
    r2 = ode_residual_dshg(p1, 0.96, "ground")
    assert 3.5 < r1 / r2 < 4.5


def test_default_sample_points():
    pts = default_sample_points()
    assert len(pts) == 21
    assert all(z.imag == pytest.approx(-math.pi / 4) for z in pts)


def test_wedge_probe_validation():
    p = ModelParams(M=1, zeta=0.2)
    with pytest.raises(ValueError):
        wedge_decay_probe(ModelParams(M=3, zeta=0.2), 1, -0.5)
    with pytest.raises(ValueError):
        wedge_decay_probe(ModelParams(M=1, zeta=0.0), 1, -0.5)
    with pytest.raises(ValueError):
        wedge_decay_probe(p, 2, -0.5)


def test_wedge_probe_two_rays():
    # |psi| = exp(-(zeta/2) sinh(2u) sin(2v)): at v = -pi/4 the left ray
    # decays and the right ray grows
    p = ModelParams(M=1, zeta=0.2)
    decaying = wedge_decay_probe(p, -1, -math.pi / 4)
    assert decaying.expected_decay and decaying.decays and decaying.consistent
    growing = wedge_decay_probe(p, 1, -math.pi / 4)
    assert not growing.expected_decay and not growing.decays and growing.consistent
    assert len(decaying.magnitudes) == len(decaying.radii) == 5


def test_golden_loading():
    # the bundled file is the only source of golden rows; each table's M
    # comes from its rows, and every row names a level its spectrum has, once
    rows = load_golden_levels()
    assert len(rows) == 63
    assert [g.table for g in rows] == ["I"] * 15 + ["II"] * 21 + ["III"] * 27
    assert all(g.M == {"I": 5, "II": 7, "III": 9}[g.table] for g in rows)
    assert {g.label for g in rows} <= {"E_P", "E_Q"}
    # M = 2k + 1 has k + 1 E_P levels and k E_Q levels
    for g in rows:
        k = g.M // 2
        assert 0 <= g.rank < (k + 1 if g.label == "E_P" else k), g
    keys = [(g.table, g.zeta2, g.label, g.rank) for g in rows]
    assert len(set(keys)) == len(keys)


def test_empty_golden_path_reads_the_bundled_table(tmp_path, monkeypatch, capsys):
    # no environment variable picks the golden file: a cleared, missing or
    # one-row QES_GOLDEN_PATH gives the checks of the unset variable
    monkeypatch.delenv("QES_GOLDEN_PATH", raising=False)
    unset = ptqes.cli.main(["verify", "--suite", "tables", "--format", "json"]), capsys.readouterr()
    assert unset[0] == 1 and unset[1].err == ""
    one_row = tmp_path / "one.csv"
    one_row.write_text("table,M,zeta2,label,rank,energy\nI,5,0.01,E_P,0,9.0\n")
    for value in ("", str(tmp_path / "missing.csv"), str(one_row)):
        monkeypatch.setenv("QES_GOLDEN_PATH", value)
        got = ptqes.cli.main(["verify", "--suite", "tables", "--format", "json"]), capsys.readouterr()
        assert got == unset, value


def test_reproduce_table_validation():
    with pytest.raises(ValueError, match=r"unknown table 'IV'; expected one of \['I', 'II', 'III'\]"):
        reproduce_tables("IV")


def test_reproduce_table_i_passes():
    report = reproduce_tables("I")
    assert report.passed
    assert len(report.cells) == 15
    assert report.max_abs_err < 1e-6


def test_reproduce_table_ii_single_defect():
    # two golden cells, E_P and E_Q at zeta^2 = 0.025, rank 0, carry a digit
    # slip in their 6th decimal: E_P's is off by 1.004e-6 and fails the 1e-6
    # bound, E_Q's by 9.98e-7 and passes it; every other cell agrees far below
    # tolerance
    report = reproduce_tables("II")
    assert not report.passed
    bad = [c for c in report.cells if not c.passed]
    assert len(bad) == 1
    cell = bad[0]
    assert (cell.zeta2, cell.label, cell.rank) == (0.025, "E_P", 0)
    # the cell heads with its golden row's six fields
    row = next(g for g in load_golden_levels() if (g.table, g.zeta2, g.label, g.rank) == ("II", 0.025, "E_P", 0))
    assert dataclasses.astuple(cell)[:6] == dataclasses.astuple(row)
    assert 1.0e-6 < cell.abs_err < 1.1e-6
    good = [c for c in report.cells if c.passed]
    assert max(c.abs_err for c in good) < 1e-6


def test_a_level_missing_from_the_spectrum_fails_its_cell(monkeypatch, capsys):
    # with E_P and E_Q swapped, an odd-M E_P cell of rank k asks for a level
    # the k-level E_Q sector lacks: each table fails by name, not by an
    # internal error (exit 3)
    swap = {"E_P": "E_Q", "E_Q": "E_P"}

    def swapped(params):
        spec = qes_spectrum(params)
        levels = tuple(dataclasses.replace(lvl, label=swap.get(lvl.label, lvl.label)) for lvl in spec.levels)
        return dataclasses.replace(spec, levels=levels)

    monkeypatch.setattr(ptqes.oracle, "qes_spectrum", swapped)
    missing = [c for c in reproduce_tables("I").cells if math.isinf(c.abs_err)]
    assert missing and all(math.isinf(c.computed) and not c.passed for c in missing)
    assert ptqes.cli.main(["verify", "--suite", "tables"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert {c["name"]: c["passed"] for c in payload["checks"]} == {"tables.I": False, "tables.II": False, "tables.III": False}


def test_reproduce_table_iii_systematic_defects():
    # the golden M = 9 table derives from corrupted polynomial coefficients;
    # every cell misses by far more than the spectra's own accuracy
    report = reproduce_tables("III")
    assert not report.passed
    assert len(report.cells) == 27
    assert all(not c.passed for c in report.cells)
    errs = [c.abs_err for c in report.cells]
    assert min(errs) > 3.0e-5
    assert max(errs) < 3.2e-3


# Reference levels from an independent Hermitian route: on the line
# Im x = -pi/4 the hyperbolic potential turns into the real confining well
# (zeta*sinh(2t) + M)^2, whose low-lying levels sit at the centers of the
# near-degenerate level pairs.  Values from a second-order finite-difference
# eigensolve, N = 12000/24000/48000 on |t| <= 4.75 with double Richardson
# extrapolation, self-consistent to 2e-8.  The identification of well level
# with pair center is itself only exact up to a correction quadratic in the
# pair splitting (measured at 0.1..0.4 times split^2), hence the split-aware
# tolerance below; where the splitting is small the comparison bites at 1.5e-7.
_WELL_CENTERS = {
    (5, 0.01): [9.0033314864],
    (7, 0.025): [13.0049981223],
    (9, 0.01): [17.0014284884, 45.0065698904, 65.0219644630],
    (9, 0.02): [17.0028567562, 45.0131367121, 65.0438590065],
    (9, 0.025): [17.0035708110, 45.0164190056, 65.0547806279],
}


@pytest.mark.parametrize("key", sorted(_WELL_CENTERS))
def test_pair_centers_match_hermitian_well(key):
    M, z2 = key
    es = [e.real for e in qes_spectrum(ModelParams(M=M, zeta=math.sqrt(z2))).energies]
    for i, want in enumerate(_WELL_CENTERS[key]):
        center = 0.5 * (es[2 * i] + es[2 * i + 1])
        split = es[2 * i + 1] - es[2 * i]
        tol = max(1.5e-7, split * split)
        assert center == pytest.approx(want, abs=tol)
