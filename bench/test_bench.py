"""Tests of the benchmark itself: the reference and the checks.

    python3 -m pytest bench
"""

import dataclasses
import json
import math
import os

import pytest

import checks
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))


def _reference(workload):
    with open(os.path.join(HERE, "reference", f"{workload}.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def ptqes():
    return wl.import_ptqes()


def test_reference_reproduces_closed_forms():
    reference = pytest.importorskip("reference", reason="needs mpmath")
    assert reference.self_check() == []


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_operation_has_a_reference_value(workload):
    ref = _reference(workload)
    for seed in range(5):
        for op in wl.build_round(workload, seed):
            if workload in ("spectrum", "norms"):
                assert any(p["M"] == op["M"] and p["zeta2"] == op["zeta2"] for p in ref["points"])
            elif workload == "sweep":
                assert op["start"] + wl.SWEEP_POINTS <= len(ref["grids"][str(op["M"])])
            else:
                assert str(op["M"]) in ref["critical"]


def test_rounds_depend_on_the_seed_only():
    for workload in wl.WORKLOADS:
        assert wl.build_round(workload, 7) == wl.build_round(workload, 7)
        assert wl.first_op(workload) == wl.build_round(workload, 8)[0]
    assert wl.build_round("spectrum", 1) != wl.build_round("spectrum", 2)


def _spectrum_checker():
    return checks.Checker("spectrum", _reference("spectrum"))


def _perturb(spec, index, factor):
    levels = list(spec.levels)
    levels[index] = dataclasses.replace(levels[index], E=levels[index].E * factor)
    return dataclasses.replace(spec, levels=tuple(levels))


def test_true_levels_pass(ptqes):
    checker = _spectrum_checker()
    for M, z2 in ((5, wl.spectrum_points(5)[0][3]), (5, wl.spectrum_points(5)[1][2]), (4, 0.01)):
        op = {"model": "dshg", "M": M, "zeta2": z2}
        checker.check(op, wl.run_op(ptqes, "spectrum", op), ptqes)
    assert checker.faults == []
    assert 8.0 < checker.digits_min <= checks.DIGITS_CAP


def test_perturbed_level_set_is_rejected(ptqes):
    op = {"model": "dshg", "M": 7, "zeta2": wl.spectrum_points(7)[0][4]}
    spec = wl.run_op(ptqes, "spectrum", op)
    checker = _spectrum_checker()
    checker.check(op, _perturb(spec, 3, 1.0 + 1e-6), ptqes)
    assert any("rel err" in f for f in checker.faults)
    assert checker.digits_min < 6.5


def test_missing_or_relabelled_level_is_rejected(ptqes):
    op = {"model": "dshg", "M": 5, "zeta2": wl.spectrum_points(5)[0][2]}
    spec = wl.run_op(ptqes, "spectrum", op)
    checker = _spectrum_checker()
    checker.check(op, dataclasses.replace(spec, levels=spec.levels[1:]), ptqes)
    relabelled = [dataclasses.replace(lvl, label="E_P") for lvl in spec.levels]
    checker.check(op, dataclasses.replace(spec, levels=tuple(relabelled)), ptqes)
    assert len(checker.faults) == 2


def test_dsg_must_mirror_dshg_exactly(ptqes):
    op = {"model": "dsg", "M": 5, "zeta2": wl.spectrum_points(5)[0][2]}
    spec = wl.run_op(ptqes, "spectrum", op)
    checker = _spectrum_checker()
    checker.check(op, spec, ptqes)
    assert checker.faults == []
    levels = list(spec.levels)
    levels[0] = dataclasses.replace(levels[0], Ehat=complex(math.nextafter(levels[0].Ehat.real, 0.0), 0.0))
    checker.check(op, dataclasses.replace(spec, levels=tuple(levels)), ptqes)
    assert checker.faults == ["spectrum " + json.dumps(op, sort_keys=True) + ": dsg levels are not exactly the negated, reversed dshg levels"]


def test_complex_level_flagged_real_is_rejected(ptqes):
    op = {"model": "dshg", "M": 3, "zeta2": wl.spectrum_points(3)[1][3]}
    spec = wl.run_op(ptqes, "spectrum", op)
    flagged = [dataclasses.replace(lvl, is_real=True) for lvl in spec.levels]
    checker = _spectrum_checker()
    checker.check(op, dataclasses.replace(spec, levels=tuple(flagged)), ptqes)
    assert any("flagged real" in f for f in checker.faults)


def test_critical_coupling_outside_tol_is_rejected(ptqes):
    op = {"M": 5, "tol": 1e-10}
    cc = wl.run_op(ptqes, "critical", op)
    checker = checks.Checker("critical", _reference("critical"))
    checker.check(op, cc, ptqes)
    assert checker.faults == []
    checker.check(op, dataclasses.replace(cc, zeta_c_squared=cc.zeta_c_squared + 3e-10), ptqes)
    assert len(checker.faults) == 1


def test_wrong_weight_is_rejected(ptqes):
    op = {"M": 3, "zeta2": wl.norms_points(3)[0][2]}
    table, gram, pq = wl.run_op(ptqes, "norms", op)
    checker = checks.Checker("norms", _reference("norms"))
    checker.check(op, (table, gram, pq), ptqes)
    assert checker.faults == []
    weights = list(table.weights)
    weights[0] *= 1.0 + 1e-6
    checker.check(op, (dataclasses.replace(table, weights=tuple(weights)), gram, pq), ptqes)
    assert any("weights off" in f for f in checker.faults)
