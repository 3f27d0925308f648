import functools
import json
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

import ptqes.cli
import ptqes.recursion
import ptqes.spectra
from ptqes.duality import dual_level_arrays, dual_spectrum
from ptqes.model import ModelParams
from ptqes.norms import weights
from ptqes.polyengine import evaluate, matching_distance, taylor_shift
from ptqes.recursion import build_P, build_Q, recurrence_a, recurrence_b
from ptqes.spectra import (
    _STACK_ENTRIES,
    _eig,
    _sectors,
    check_factorization,
    critical_coupling,
    critical_polynomials,
    degenerate_pairs,
    _pencil,
    even_M_pairing,
    level_arrays,
    level_rows,
    qes_spectrum,
)

# Couplings where the top level pair of each odd-M spectrum merges, located
# by critical_coupling and frozen for the reality-switch test.
ZC2 = {3: 0.25, 5: 0.0875655, 7: 0.0443525, 9: 0.0267356}


def closed_m3(z2):
    r = math.sqrt(1.0 - 4.0 * z2)
    return [5.0 - z2, 7.0 - z2 - 2.0 * r, 7.0 - z2 + 2.0 * r]


def test_m1_single_level():
    for z2 in (0.0, 0.01, 0.1, 0.24):
        spec = qes_spectrum(ModelParams(M=1, zeta=math.sqrt(z2)))
        assert len(spec.levels) == 1
        lvl = spec.levels[0]
        assert lvl.E == pytest.approx(1.0 - z2, abs=1e-13)
        assert lvl.label == "E_P"
        assert lvl.is_real


def test_m3_closed_triple():
    for z2 in (0.01, 0.1, 0.24):
        spec = qes_spectrum(ModelParams(M=3, zeta=math.sqrt(z2)))
        expected = sorted(closed_m3(z2))
        assert len(spec.levels) == 3
        for lvl, want in zip(spec.levels, expected):
            assert lvl.E == pytest.approx(want, abs=1e-12)
            assert lvl.is_real
        by_label = {lvl.label for lvl in spec.levels}
        assert by_label == {"E_P", "E_Q"}
        assert spec.degenerate_pairs == ()


def test_m3_zero_coupling_cross_sector_degeneracy():
    spec = qes_spectrum(ModelParams(M=3, zeta=0.0))
    assert [lvl.E for lvl in spec.levels] == pytest.approx([5.0, 5.0, 9.0], abs=1e-12)
    assert (0, 1) in spec.degenerate_pairs


def test_m3_double_root_flagged_at_critical():
    spec = qes_spectrum(ModelParams(M=3, zeta=0.5))  # zeta^2 = 0.25 exactly
    assert (1, 2) in spec.degenerate_pairs
    assert spec.levels[1].E == pytest.approx(6.75, abs=1e-9)
    assert spec.levels[2].E == pytest.approx(6.75, abs=1e-9)
    assert spec.levels[0].E == pytest.approx(4.75, abs=1e-12)


def test_m2_exact_complex_pair():
    z2 = 0.02
    spec = qes_spectrum(ModelParams(M=2, zeta=math.sqrt(z2)))
    # R_2 = (E - 3 + z2)^2 + 4 z2
    want = 3.0 - z2
    s = 2.0 * math.sqrt(z2)
    assert spec.levels[0].E == pytest.approx(complex(want, -s), abs=1e-12)
    assert spec.levels[1].E == pytest.approx(complex(want, s), abs=1e-12)
    assert all(lvl.label == "E_R" for lvl in spec.levels)
    assert not any(lvl.is_real for lvl in spec.levels)
    assert spec.levels[0].E == spec.levels[1].E.conjugate()


def test_degenerate_pairs_helper():
    assert degenerate_pairs([1.0, 1.0 + 1e-9, 5.0]) == ((0, 1),)
    assert degenerate_pairs([1.0, 2.0]) == ()
    assert degenerate_pairs([]) == degenerate_pairs([3.0]) == ()
    # the bound follows the spread of the set, so a shift keeps the pairs
    assert degenerate_pairs([-1e9 + 5.0, -1e9 + 5.0 + 1e-6, -1e9 + 9.0 + 2j]) == ((0, 1),)
    # every pair is tested on its full distance: 1 - 1j shares the real part
    # of the pair (1, 2) and joins neither level
    assert degenerate_pairs([1.0 - 1j, 1.0 + 0j, 1.0 + 1e-9j]) == ((1, 2),)
    # the levels need not be sorted: the pairs come out as (i, j), i < j,
    # ascending, in the caller's numbering
    assert degenerate_pairs([5.0, 1.0, 1.0 + 1e-9]) == ((1, 2),)
    # a three-level cluster gives all three pairs, sorted or not
    assert degenerate_pairs([1.0, 1.0 + 4e-7, 1.0 + 8e-7]) == ((0, 1), (0, 2), (1, 2))
    assert degenerate_pairs([1.0 + 8e-7, 1.0, 1.0 + 4e-7]) == ((0, 1), (0, 2), (1, 2))
    energies = qes_spectrum(ModelParams(M=9, zeta=1.0)).energies
    pairs = degenerate_pairs(energies)
    assert pairs
    perm = np.random.default_rng(0).permutation(len(energies))
    where = {int(p): n for n, p in enumerate(perm)}
    want = tuple(sorted(tuple(sorted((where[i], where[j]))) for i, j in pairs))
    assert degenerate_pairs([energies[p] for p in perm]) == want


@pytest.mark.parametrize("M", [2, 3, 4, 5, 21, 41])
def test_large_coupling_levels_are_not_degenerate(M):
    # the bound scales with the spread of the levels, not with |E|: at
    # zeta^2 = 1e18 the -zeta^2 shift made a bound of 1e-6 (1 + |E|) = 1e12
    # swallow levels 4e9 apart (M = 3: the E_P pair -1e18 +- 4e9i and E_Q)
    spec = qes_spectrum(ModelParams(M=M, zeta=1e9))
    assert spec.degenerate_pairs == ()
    assert degenerate_pairs([0j - E for E in reversed(spec.energies)]) == ()


def test_critical_polynomials_m1():
    p1, q0 = critical_polynomials(ModelParams(M=1, zeta=0.3))
    assert q0.degree == 0
    assert q0.coeffs == (1.0,)
    assert p1.degree == 1
    assert -p1.coeffs[0].real == pytest.approx(1.0 - 0.09, rel=1e-13)


def test_critical_polynomials_match_printed_m3():
    params = ModelParams(M=3, zeta=math.sqrt(0.01))
    p2, q1 = critical_polynomials(params)
    p_cal = taylor_shift(p2, params.M**2 - params.zeta2)
    q_cal = taylor_shift(q1, params.M**2 - params.zeta2)
    for got, want in zip(p_cal.coeffs, (16 * 0.01, 4.0, 1.0)):
        assert got.real == pytest.approx(want, abs=1e-12)
        assert abs(got.imag) < 1e-12
    for got, want in zip(q_cal.coeffs, (4.0, 1.0)):
        assert got.real == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("M", range(1, 22, 2))
def test_critical_polynomials_match_complex_families(M):
    # Taken from the real R recursion, P_{k+1} and Q_k are exactly real and
    # agree with the paper's complex P and Q families to rounding.
    k = (M - 1) // 2
    for z2 in (0.001, 0.01, 0.1, 1.0, 100.0):
        params = ModelParams(M=M, zeta=math.sqrt(z2))
        got = critical_polynomials(params)
        want = (build_P(params, k + 1)[k + 1], build_Q(params, k)[k])
        for g, w in zip(got, want):
            assert g.degree == w.degree
            assert all(c.imag == 0.0 for c in g.coeffs)
            scale = max(abs(c) for c in w.coeffs)
            assert max(abs(a - b) for a, b in zip(g.coeffs, w.coeffs)) <= 1e-12 * scale


def test_level_rows_refuses_non_integer_m():
    # M is validated before it sizes the pencil, also once M = 3 is cached
    level_rows(3, 0.1)
    for M in (3.0, 2.0):
        with pytest.raises(ValueError, match="plain integer"):
            level_rows(M, 0.1)


def test_critical_coupling_m1_infinite():
    cc = critical_coupling(1)
    assert math.isinf(cc.zeta_c_squared)
    assert not cc.is_finite
    assert cc.degenerate_energy is None


def test_critical_coupling_m3():
    # the paper's exact double level E = 27/4 at zeta^2 = 1/4: zeta_c^2 to
    # 1e-13 relative, and E to sqrt(eps) |E| with margin, at every tol the
    # critical workload runs
    for tol in (1e-8, 1e-9, 1e-10):
        cc = critical_coupling(3, tol=tol)
        assert abs(cc.zeta_c_squared - 0.25) <= 1e-13 * 0.25, tol
        assert abs(cc.degenerate_energy - 6.75) <= 1e-7, tol
        assert cc.is_finite


def test_critical_coupling_validation():
    with pytest.raises(ValueError):
        critical_coupling(4)
    with pytest.raises(ValueError):
        critical_coupling(3, tol=0.0)


@pytest.mark.parametrize("tol", [math.inf, math.nan, -math.inf])
def test_critical_coupling_refuses_non_finite_tol(tol):
    # tol=inf once skipped the refinement of the scan bracket and returned
    # its midpoint, 0.25125 at M = 3
    with pytest.raises(ValueError, match="positive and finite"):
        critical_coupling(3, tol=tol)


def test_critical_coupling_in_scan_window():
    # zeta_c^2 peaks at exactly 1/4 (M = 3), inside the scan (0, 1/2], and
    # zeroin stops within tol of it; the merged energy is the mean of the
    # two largest E_P levels at zeta_c^2.
    tol = 1e-10
    for M in range(3, 102, 2):
        cc = critical_coupling(M, tol)
        assert 0.0 < cc.zeta_c_squared <= 0.25 + tol
        p_levels = sorted(
            lvl.E.real
            for lvl in qes_spectrum(ModelParams(M=M, zeta=math.sqrt(cc.zeta_c_squared))).levels
            if lvl.label == "E_P"
        )
        assert cc.degenerate_energy == 0.5 * (p_levels[-2] + p_levels[-1])


def test_critical_coupling_never_unbracketed(monkeypatch):
    # a squared gap that stays positive past the merger leaves no sign change
    # to solve on: an error naming M, never an unbracketed value
    gap2 = ptqes.spectra._top_gap2
    monkeypatch.setattr(ptqes.spectra, "_top_gap2", lambda A, S, zeta2: abs(gap2(A, S, zeta2)))
    with pytest.raises(RuntimeError, match="M=5"):
        critical_coupling(5)


def _probe(M, zeta2):
    # the probe on the blocks critical_coupling binds once per call
    return ptqes.spectra._top_gap2(ptqes.spectra._shifted_p_block(M), _pencil(M)[1], zeta2)


@pytest.mark.parametrize("M", [3, 5, 21, 81, 401])
def test_top_gap2_is_16_at_zero_coupling(M):
    # critical_coupling takes gap^2 = 16 at zeta = 0 without a solve: the
    # top two E_P levels are b_k and b_{k-1} = b_k - 4 there
    assert _probe(M, 0.0) == 16.0


@pytest.mark.parametrize("M", sorted(ZC2))
def test_top_gap2_changes_sign_at_the_merger(M):
    assert _probe(M, 0.9 * ZC2[M]) > 0.0
    pair = [lvl.E for lvl in qes_spectrum(ModelParams(M=M, zeta=math.sqrt(1.1 * ZC2[M]))).levels if not lvl.is_real]
    assert _probe(M, 1.1 * ZC2[M]) == pytest.approx(-4.0 * pair[0].imag ** 2, rel=1e-9)


def _count_eigen_solves(monkeypatch, M, tol):
    calls = []
    geev = ptqes.spectra._geev

    def counted(*args, **kwargs):
        calls.append(args)
        return geev(*args, **kwargs)

    monkeypatch.setattr(ptqes.spectra, "_geev", counted)
    critical_coupling(M, tol)
    return len(calls)


@pytest.mark.parametrize("M", [21, 41, 81])
def test_critical_coupling_takes_at_most_ten_eigen_solves(monkeypatch, M):
    # the bisection that preceded zeroin took 27 or 28 solves at these M
    assert _count_eigen_solves(monkeypatch, M, 1e-10) <= 10


@pytest.mark.parametrize("M, bound", [(3, 4), (5, 21), (7, 15), (9, 12), (11, 10)])
def test_critical_coupling_eigen_solves_at_small_m(monkeypatch, M, bound):
    # the scan starts below the Gershgorin bound; from i = 1 it took
    # 102/40/23/16/12
    assert _count_eigen_solves(monkeypatch, M, 1e-10) <= bound


def test_gershgorin_bound_at_m3_is_the_merger():
    # 1/4 in exact arithmetic, where the M = 3 pair merges; _pencil's
    # doubled entry sqrt(8) sqrt(2) rounds 1 ulp above 4, which puts the
    # computed bound 4 ulps below 1/4, on the safe side
    assert ptqes.spectra._gershgorin_zeta2(3) == float.fromhex("0x1.ffffffffffffcp-3")


@pytest.mark.parametrize("M", [*range(3, 202, 2), 401])
def test_gershgorin_bound_keeps_every_odd_m_level_real(M):
    zeta2 = ptqes.spectra._gershgorin_zeta2(M) * (1.0 - 1e-9)
    rows = level_rows(M, math.sqrt(zeta2))
    assert {label for _, label, _ in rows} == {"E_P", "E_Q"}
    assert all(E.imag == 0.0 and real for E, _, real in rows)


def _full_scan_critical_coupling(M, tol):
    # critical_coupling as it was before the scan started at the Gershgorin
    # bound: every grid point from i = 1, then the same zeroin and merged-
    # energy solve
    C, S = _pencil(M)
    gap2 = functools.partial(ptqes.spectra._top_gap2, ptqes.spectra._shifted_p_block(M), S)
    lo, g_lo = 0.0, 16.0
    with np.errstate(**ptqes.spectra._GEEV_ERRSTATE):
        for i in range(1, 201):
            up = 0.5 * i / 200
            g_up = gap2(up)
            if g_up < 0.0:
                break
            lo, g_lo = up, g_up
        zc2 = ptqes.spectra._zeroin(gap2, lo, up, g_lo, g_up, tol)
        z = math.sqrt(zc2)
        below, top = sorted(E.real - z * z for E in np.linalg.eigvals(C + z * S).tolist())[-2:]
    return zc2, 0.5 * (below + top)


@pytest.mark.parametrize("M", [*range(3, 102, 2), 161, 401])
def test_critical_coupling_matches_the_full_scan(M):
    for tol in (1e-8, 1e-10, 1e-13, 1e-300):
        got = critical_coupling(M, tol)
        zc2, energy = _full_scan_critical_coupling(M, tol)
        assert (got.zeta_c_squared.hex(), got.degenerate_energy.hex()) == (zc2.hex(), energy.hex()), tol


@pytest.mark.parametrize("M", [3, 5, 7, 9, 11, 21, 81])
@pytest.mark.parametrize("factor", [0.0, 0.5, 1.0, 1.1])
def test_top_gap2_is_the_inline_shifted_block(M, factor):
    # neither the cached shifted block nor the in-place sort by a C key
    # changes a bit of a probe, so the scan's bracket and zeroin's iterates
    # are those of a block built per call and sorted by a Python key.  The
    # levels stay complex: eigvals returns a real array when every level is
    # real, and float ** 2 (libm pow) then differs from complex ** 2 (a
    # product) by an ulp at M = 9, factor 1.0
    zeta2 = factor * critical_coupling(M).zeta_c_squared
    C, S = _pencil(M)
    B = (C - C[-1, -1] * np.eye(len(C))) + math.sqrt(zeta2) * S
    below, top = sorted(np.linalg.eigvals(B).astype(complex).tolist(), key=lambda E: E.real)[-2:]
    assert _probe(M, zeta2) == ((top - below) ** 2).real


def test_shifted_p_block_is_read_only():
    A = ptqes.spectra._shifted_p_block(5)
    with pytest.raises(ValueError, match="read-only"):
        A[0, 0] = 1.0
    assert A[-1, -1] == 0.0


def test_overflowing_coupling_is_refused():
    with pytest.raises(ValueError, match="overflows"):
        qes_spectrum(ModelParams(M=3, zeta=1e154))
    # a coupling a decade below the overflow is still solved
    assert len(qes_spectrum(ModelParams(M=3, zeta=1e153)).levels) == 3
    # a stack of couplings is refused when any one of them overflows
    with pytest.raises(ValueError, match="overflows"):
        level_arrays(3, [0.1, 1e154])


@pytest.mark.parametrize("arrays", [level_arrays, dual_level_arrays], ids=["level_arrays", "dual_level_arrays"])
@pytest.mark.parametrize("zetas", [[math.nan, 1.0], [1.0, math.nan], [0.1, math.inf], [math.nan], [math.inf]])
def test_non_finite_coupling_is_refused(arrays, zetas):
    # a NaN after the first coupling once slipped past the overflow guard
    # into numpy, and a leading one was reported as an overflow; a single
    # coupling is refused by level_rows and by a one-coupling stack alike
    with pytest.raises(ValueError, match="non-finite coupling"):
        arrays(3, zetas)
    if len(zetas) == 1:
        with pytest.raises(ValueError, match="non-finite coupling"):
            level_rows(3, zetas[0])


@pytest.mark.parametrize("M", [3, 5, 7, 9])
def test_reality_switches_at_critical_coupling(M):
    below = qes_spectrum(ModelParams(M=M, zeta=math.sqrt(0.9 * ZC2[M])))
    assert all(lvl.is_real for lvl in below.levels)
    above = qes_spectrum(ModelParams(M=M, zeta=math.sqrt(1.1 * ZC2[M])))
    complex_levels = [lvl for lvl in above.levels if not lvl.is_real]
    assert len(complex_levels) == 2
    a, b = (lvl.E for lvl in complex_levels)
    assert a == pytest.approx(b.conjugate(), rel=1e-9)


def test_factorization_m3():
    report = check_factorization(ModelParams(M=3, zeta=math.sqrt(0.02)))
    assert report.max_deviation < 1e-12
    names = {c.identity for c in report.checks}
    assert names == {"R = P*Q", "P = P_crit*Pbar", "Q = Q_crit*Qbar", "R = R_M*Rbar"}


def test_factorization_even_m():
    report = check_factorization(ModelParams(M=4, zeta=math.sqrt(0.02)))
    assert report.max_deviation < 1e-12
    names = {c.identity for c in report.checks}
    assert names == {"R = R_M*Rbar"}


@pytest.mark.parametrize("M", range(1, 62))
def test_factorization_holds_to_rounding_up_to_m61(M):
    # Each identity is checked as a product, so the check reads only the
    # rounding of the builders and of one convolution.
    for z2 in (1e-4, 1e-3, 0.005, 0.02, 0.1, 1, 10, 100):
        assert check_factorization(ModelParams(M=M, zeta=math.sqrt(z2))).max_deviation <= 1e-12


@pytest.mark.parametrize("M", [3, 7, 21])
def test_factorization_sees_a_perturbed_truncating_tail(M, monkeypatch):
    # P's tail vanishes at n = k + 2 through the factor M + 3 - 2n; offset
    # that factor by 1e-6 there, so P_{k+1} no longer divides P_{k+1+n}.
    lins, exact = ptqes.recursion._STEPS["P"]

    def perturbed(params, ns):
        return [
            8j * params.zeta * (n - 1) * (2 * n - 3) * 1e-6 if n == M // 2 + 2 else tail
            for n, tail in zip(ns, exact(params, ns))
        ]

    monkeypatch.setitem(ptqes.recursion._STEPS, "P", (lins, perturbed))
    report = check_factorization(ModelParams(M=M, zeta=math.sqrt(0.02)))
    p_checks = [c.deviation for c in report.checks if c.identity == "P = P_crit*Pbar"]
    others = [c.deviation for c in report.checks if c.identity != "P = P_crit*Pbar"]
    assert max(p_checks) >= 1e-8
    assert max(others) <= 1e-12


def test_even_m_imaginary_parts_are_absolute_not_relative():
    # README, Accuracy notes.  The reference is a 100-digit mpmath eig of the
    # same E_R block: rows and columns k..M-1 of T, with 2i k zeta added to
    # its first diagonal entry, from the same double zeta.  At M = 24, g = 10
    # the smallest true |Im E| is 1.8e-35, far below eps |E|, and the library
    # prints rounding there (-7.8e-23), yet every level, its imaginary part
    # included, is within 1e-12 |E| (measured 3.0e-15) and none is real.
    M, k = 24, 12
    zeta = 10 / M
    with mpmath.workdps(100):
        z = mpmath.mpf(zeta)
        block = mpmath.matrix(k, k)
        for i, n in enumerate(range(k, M)):
            block[i, i] = 4 * n * (M - 1 - n) + 2 * M - 1 - z * z
            if i:
                block[i, i - 1], block[i - 1, i] = -4 * n * (M - n) * z * z, 1
        block[0, 0] += 2j * k * z
        half = mpmath.eig(block, left=False, right=False)
        ref = [complex(e) for e in half] + [complex(mpmath.conj(e)) for e in half]
        tiny = min(abs(mpmath.im(e)) for e in half)
    spec = qes_spectrum(ModelParams(M=M, zeta=zeta))
    assert not any(lvl.is_real for lvl in spec.levels)
    for E in spec.energies:
        nearest = min(ref, key=lambda R: abs(R - E))
        assert abs(nearest - E) <= 1e-12 * abs(E)
    assert tiny < 1e-30


def test_even_m_pairing_quick():
    assert even_M_pairing(ModelParams(M=2, zeta=math.sqrt(0.02)))
    assert even_M_pairing(ModelParams(M=4, zeta=math.sqrt(0.1)))
    with pytest.raises(ValueError):
        even_M_pairing(ModelParams(M=3, zeta=0.1))


def test_spectrum_energies_sorted():
    spec = qes_spectrum(ModelParams(M=7, zeta=math.sqrt(0.01)))
    es = spec.energies
    assert len(es) == 7
    assert list(es) == sorted(es, key=lambda z: (z.real, z.imag))
    # critical polynomials evaluate to ~0 at every reported level
    p4, q3 = critical_polynomials(ModelParams(M=7, zeta=math.sqrt(0.01)))
    for lvl in spec.levels:
        poly = p4 if lvl.label == "E_P" else q3
        assert abs(evaluate(poly, lvl.E)) < 1e-6 * max(abs(c) for c in poly.coeffs)


@pytest.mark.parametrize("M", [31, 61])
def test_zero_coupling_levels_are_exactly_b_n(M):
    # At zeta = 0 the Jacobi matrix is bidiagonal and its eigenvalues are
    # its diagonal, b_n = 4n(M-1-n) + 2M - 1, with no rounding at all.
    spec = qes_spectrum(ModelParams(M=M, zeta=0.0))
    assert all(lvl.E.imag == 0.0 and lvl.is_real for lvl in spec.levels)
    want = sorted(4.0 * n * (M - 1 - n) + 2 * M - 1 for n in range(M))
    assert sorted(lvl.E.real for lvl in spec.levels) == want


# 40-digit levels at M = 12, zeta^2 = 0.01, rounded to doubles; generated by
#   python3 -c 'import sys; sys.path.insert(0, "bench"); import reference as r;
#               print([complex(z) for z in r.levels(12, 0.01)["E_R"]])'
M12_LEVELS = [
    23.000999969446735 - 5.922442232098846e-20j,
    23.000999969446735 + 5.922442232098846e-20j,
    63.00399972059154 - 1.744940857464144e-14j,
    63.00399972059154 + 1.744940857464144e-14j,
    95.00999790075235 + 1.0952886311557503e-09j,
    95.00999790075235 - 1.0952886311557503e-09j,
    119.02497584145041 - 1.4647149183834323e-05j,
    119.02497584145041 + 1.4647149183834323e-05j,
    135.08350351908072 - 0.026964986544871068j,
    135.08350351908072 + 0.026964986544871068j,
    142.81652304867825 - 1.2269503404909585j,
    142.81652304867825 + 1.2269503404909585j,
]


def _worst_relative_error(M, zeta, reference):
    """Largest |E - E_ref| / |E_ref|, each reference level matched greedily
    to the nearest unmatched level at (M, zeta)."""
    got = [E for E, _, _ in level_rows(M, zeta)]
    worst = 0.0
    for want in reference:
        nearest = min(got, key=lambda E: abs(E - want))
        got.remove(nearest)
        worst = max(worst, abs(nearest - want) / abs(want))
    return worst


def test_even_m_levels_match_reference_m12():
    assert _worst_relative_error(12, math.sqrt(0.01), M12_LEVELS) <= 1e-12


# 50-digit levels of the unbalanced sector blocks, built from the same
# double zeta^2, at odd M in 21, 41, 61, 81 and even M in 20, 40, 80 for
# g = M zeta in 1, 5, 10, 20, 30, 36.7; written by tests/make_reference_data.py.
# zeta_c^2 at M = 41 and 81: roots of the same blocks' top E_P squared gap at
# 60 and 80 digits, from the same file.
REFERENCE = json.loads((Path(__file__).parent / "reference_data.json").read_text())
LEVEL_REFERENCE = REFERENCE["levels"]


@pytest.mark.parametrize("cell", LEVEL_REFERENCE, ids=lambda cell: f"M{cell['M']}-g{cell['g']}")
def test_large_coupling_levels_match_the_reference(cell):
    # the unbalanced blocks lost digits as g grew: 7.6e-8 at (M, g) =
    # (21, 30), 3.5e-6 at (41, 30), 4.2e-10 at (20, 30) and 1.9e-2 at
    # (81, 36.7), where 12 levels were flagged complex against 8
    M, zeta = cell["M"], cell["zeta"]
    assert _worst_relative_error(M, zeta, [complex(*pair) for pair in cell["levels"]]) <= 1e-13
    if M % 2:
        assert sum(real for _, _, real in level_rows(M, zeta)) == cell["real_count"]


@pytest.mark.parametrize("M", [6, 8, 12, 20])
@pytest.mark.parametrize("z2", [1e-3, 1e-2])
def test_even_m_levels_never_flagged_real(M, z2):
    # at zeta != 0 every even-M level is one of a conjugate pair from a
    # complex block, however small its imaginary part
    spec = qes_spectrum(ModelParams(M=M, zeta=math.sqrt(z2)))
    assert not any(lvl.is_real for lvl in spec.levels)
    assert even_M_pairing(spec.params)


def test_huge_coupling_pair_is_not_real():
    # the E_P pair is -1e18 +- 4e9 i: small against |E|, but not real
    spec = qes_spectrum(ModelParams(M=3, zeta=1e9))
    pair = [lvl for lvl in spec.levels if lvl.label == "E_P"]
    assert [lvl.E for lvl in pair] == pytest.approx([-1e18 - 4e9j, -1e18 + 4e9j], rel=1e-12)
    assert not any(lvl.is_real for lvl in pair)


# zeta_c^2 from bench/reference.py's critical(M), which solves p = dp/dE = 0
# for the E_P block at 40 digits: M = 3..15 as bench/reference/critical.json
# holds them, and M = 17 and 21.
CRITICAL_REFERENCE = [
    (int(M), cell["zeta_c_squared"])
    for M, cell in json.loads(
        (Path(__file__).parents[1] / "bench" / "reference" / "critical.json").read_text()
    )["critical"].items()
] + [(17, 0.00747403225327626), (21, 0.00489582468825987)]


@pytest.mark.parametrize("M, zc2", CRITICAL_REFERENCE)
def test_critical_coupling_large_m(M, zc2):
    # at tol = 1e-13 the bisection that preceded zeroin was 3.1e-13 off at
    # M = 5 and 2.7e-12 at M = 21
    assert abs(critical_coupling(M).zeta_c_squared - zc2) <= 1e-10
    assert abs(critical_coupling(M, tol=1e-13).zeta_c_squared - zc2) <= 1e-13 * zc2


@pytest.mark.parametrize("cell", REFERENCE["critical"], ids=lambda cell: f"M{cell['M']}")
def test_critical_coupling_matches_the_multiprecision_root(cell):
    # measured 1.2e-15 (M = 41) and 3.3e-16 (M = 81) relative at tol = 1e-13;
    # the bisection that preceded zeroin was 2.0e-11 and 7.5e-11 off
    zc2 = cell["zeta_c_squared"]
    assert abs(critical_coupling(cell["M"], tol=1e-13).zeta_c_squared - zc2) <= 1e-12 * zc2
    # the default tol is relative to zeta^2: 1.2e-15 and 1.2e-13 measured,
    # where an absolute tol gave 3.0e-10 and 6.5e-8
    assert abs(critical_coupling(cell["M"]).zeta_c_squared - zc2) <= 1e-10 * zc2


@pytest.mark.parametrize("tol", [1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13])
def test_critical_coupling_within_relative_tol(tol):
    for M, zc2 in CRITICAL_REFERENCE:
        assert abs(critical_coupling(M, tol).zeta_c_squared - zc2) <= tol * zc2, M


@pytest.mark.parametrize("M", sorted(ZC2))
def test_odd_m_levels_exactly_real_below_critical(M):
    for factor in (0.1, 0.5, 0.9):
        spec = qes_spectrum(ModelParams(M=M, zeta=math.sqrt(factor * ZC2[M])))
        assert all(lvl.E.imag == 0.0 for lvl in spec.levels)


@pytest.mark.parametrize("M", range(1, 62))
def test_spectrum_exactly_closed_under_conjugation(M):
    for z2 in (0.0, 0.005, 0.03, 0.3, 2.0):
        es = qes_spectrum(ModelParams(M=M, zeta=math.sqrt(z2))).energies
        assert matching_distance(es, [E.conjugate() for E in es]) == 0.0


def _recursion_block(params):
    """The sector's block of the R Jacobi matrix written out entry by entry
    from the recursion: rows and columns 0..k of T with the last sub-diagonal
    entry doubled (the E_P block) for odd M = 2k + 1, rows and columns k..M-1
    of T for even M = 2k."""
    M = params.M
    k = M // 2
    first, size = (0, k + 1) if M % 2 else (k, k)
    T = np.zeros((size, size))
    for i in range(size):
        T[i, i] = recurrence_b(first + i, params)
        if i:
            T[i - 1, i] = 1.0
            T[i, i - 1] = recurrence_a(first + i, params)
    if M % 2 and size > 1:
        T[-1, -2] *= 2.0
    return T


def test_pencil_is_the_recursion_block():
    # B(zeta) = C + |zeta| S is D^-1 T D with D diagonal: C's diagonal is
    # b_n at zeta = 0, S is tridiagonal, and each off-diagonal pair of B
    # multiplies to T's a_n (2 a_k at E_P's last entry); for even M, S[0, 0]
    # is i sqrt(-a_k) / |zeta| = 2ik
    for M in range(1, 62):
        C, S = _pencil(M)
        free = _recursion_block(ModelParams(M=M, zeta=0.0))
        assert np.array_equal(np.diag(C), np.diag(free)) and np.array_equal(C, np.diag(np.diag(C)))
        assert np.array_equal(S, np.triu(np.tril(S, 1), -1))
        assert np.array_equal(np.diag(S), [2j * len(S)] + [0] * (len(S) - 1) if M % 2 == 0 else np.zeros(len(S)))
        for zeta in (0.01, 0.1, 0.5, 1.3, -2.0):
            params = ModelParams(M=M, zeta=zeta)
            B, T = C + abs(zeta) * S, _recursion_block(params)
            pairs = np.diag(B, 1) * np.diag(B, -1)
            want = np.diag(T, 1) * np.diag(T, -1)
            assert np.allclose(pairs, want, rtol=4 * np.finfo(float).eps, atol=0.0)
    with pytest.raises(ValueError):
        C[0, 0] = 0.0
    with pytest.raises(ValueError):
        S[0, 0] = 0.0


def _public_levels(M, zeta, label):
    """np.linalg.eigvals of one sector block at one coupling minus zeta^2,
    the block B = C + |zeta| S built as level_rows builds it; for even M
    each level and its conjugate (the level itself when Im E == 0)."""
    C, S = _pencil(M)
    B = C + abs(zeta) * S
    size = _sectors(M)[label]
    levels = np.linalg.eigvals(B[:size, :size]).astype(complex) - np.square(abs(zeta))
    if M % 2 == 0:
        levels = np.concatenate([levels, np.where(levels.imag != 0.0, levels.conj(), levels)])
    return levels


def _bits(levels):
    """The levels as a sorted multiset of bit patterns."""
    return sorted(np.array(levels, dtype=complex).view(np.uint64).reshape(-1, 2).tolist())


def _row_bits(rows):
    """(E, label, is_real) rows, in their order, with E as bit patterns and
    each field's type."""
    return [(E.real.hex(), E.imag.hex(), label, real, type(E), type(label), type(real)) for E, label, real in rows]


def _stacked_rows(M, zetas, arrays=level_arrays):
    """Each coupling's (E, label, is_real) rows, read off the stacked level
    arrays."""
    E, labels, real = arrays(M, zetas)
    return [list(zip(*row)) for row in zip(E.tolist(), labels.tolist(), real.tolist())]


def _assert_kernel_matches_public(M, zetas):
    # the stack against the public solve, and each coupling solved alone
    # (level_rows, the calls built on it and a one-coupling stack, the
    # route of ptqes spectrum) against the stack
    rows = _stacked_rows(M, zetas)
    assert len(rows) == len(zetas)
    duals = _stacked_rows(M, zetas, dual_level_arrays) if M % 2 else None
    for i, (zeta, row) in enumerate(zip(zetas, rows)):
        assert len(row) == M
        for label in _sectors(M):
            ours = [E for E, tag, _ in row if tag == label]
            assert _bits(ours) == _bits(_public_levels(M, zeta, label)), (M, zeta, label)
        want = _row_bits(row)
        assert _row_bits(level_rows(M, zeta)) == want, (M, zeta)
        assert [_row_bits(one) for one in _stacked_rows(M, [zeta])] == [want], (M, zeta)
        levels = qes_spectrum(ModelParams(M=M, zeta=zeta)).levels
        assert _row_bits((lvl.E, lvl.label, lvl.is_real) for lvl in levels) == want, (M, zeta)
        if M % 2:
            dual = _row_bits((0j - E, label, real) for E, label, real in reversed(row))
            assert _row_bits(duals[i]) == dual, (M, zeta)
            assert [_row_bits(one) for one in _stacked_rows(M, [zeta], dual_level_arrays)] == [dual], (M, zeta)
            levels = dual_spectrum(ModelParams(M=M, zeta=zeta)).levels
            assert [lvl.source_index for lvl in levels] == list(range(M - 1, -1, -1))
            assert _row_bits((lvl.Ehat, lvl.label, lvl.is_real) for lvl in levels) == dual, (M, zeta)


@pytest.mark.parametrize("M", range(1, 42))
def test_kernel_matches_public_eigvals_bit_for_bit(M):
    # spectra calls the private gufunc behind np.linalg.eigvals; a numpy
    # release that changes it fails here rather than shifting levels
    zc2 = critical_coupling(max(3, M | 1)).zeta_c_squared
    z2s = (0.0, 1e-12, zc2 * (1 - 1e-6), zc2 * (1 + 1e-6), 1e6)
    # a signed zeta in B = C + zeta S gives other bits at zeta = -10 for 20 of
    # these M, and at -1e3 for M = 5 as well
    _assert_kernel_matches_public(M, [math.sqrt(z2) for z2 in z2s] + [-10.0, -1e3])


@pytest.mark.parametrize("M", [40, 41])
def test_kernel_matches_public_eigvals_across_stack_chunks(M):
    zetas = [math.sqrt(z2) for z2 in np.linspace(0.0, 0.05, 2 * (_STACK_ENTRIES // _pencil(M)[0].size) + 3)]
    _assert_kernel_matches_public(M, zetas)


def test_no_stack_exceeds_the_entry_bound(monkeypatch):
    # a long sweep's memory on top of its output is bounded by the stack size
    per = _STACK_ENTRIES // _pencil(41)[0].size
    zetas = [math.sqrt(z2) for z2 in np.linspace(0.0, 0.05, 3 * per + 1)]
    seen, geev = [], ptqes.spectra._geev

    def spy(a):
        seen.append(a.shape)
        return geev(a)

    monkeypatch.setattr(ptqes.spectra, "_geev", spy)
    E, _, _ = level_arrays(41, zetas)
    assert E.shape == (len(zetas), 41)
    assert len(seen) == 2 * 4  # E_P and E_Q blocks of four stacks
    assert max(couplings for couplings, _, _ in seen) <= per
    for size in _sectors(41).values():
        assert sum(n for n, rows, _ in seen if rows == size) == len(zetas)


@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_no_couplings_give_empty_level_arrays(M):
    arrays = [level_arrays] + ([dual_level_arrays] if M % 2 else [])
    for parts in (solve(M, []) for solve in arrays):
        assert [part.shape for part in parts] == [(0, M)] * 3


def _unconverged(a):
    """Stands in for geev on blocks that do not converge: NaN eigenvalues and
    numpy's invalid flag, as the real kernel reports it."""
    return np.multiply(np.full(a.shape[:-1], np.inf), 0.0).astype(complex)


def test_unconverged_stand_in_raises_the_invalid_flag():
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        _unconverged(np.eye(2)[None])


@pytest.mark.parametrize(
    "solve",
    [
        lambda: level_arrays(3, [0.1, 0.2]),
        lambda: level_rows(4, 0.1),
        lambda: level_arrays(4, [0.1, 0.2]),
        lambda: qes_spectrum(ModelParams(M=5, zeta=0.1)),
        lambda: critical_coupling(5),
    ],
    ids=["level_rows-odd", "level_rows-even", "level_rows-even-stacked", "qes_spectrum", "critical_coupling"],
)
def test_non_convergence_raises_linalgerror(monkeypatch, solve):
    monkeypatch.setattr(ptqes.spectra, "_geev", _unconverged)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            solve()
    assert caught == []


def test_non_convergence_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(ptqes.spectra, "_geev", _unconverged)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert ptqes.cli.main(["spectrum", "--M", "3", "--zeta2", "0.01"]) == ptqes.cli.EXIT_NUMERICAL == 3
    assert caught == []
    out, err = capsys.readouterr()
    assert out == ""
    assert "did not converge" in err


def _unconverged_vectors(a):
    """Stands in for the eigenvector geev on blocks that do not converge:
    NaN eigenvalues and eigenvectors and numpy's invalid flag."""
    return _unconverged(a), np.multiply(np.full(a.shape, np.inf), 0.0).astype(complex)


def test_eigenvector_non_convergence_raises_linalgerror(monkeypatch):
    monkeypatch.setattr(ptqes.spectra, "_geev_vectors", _unconverged_vectors)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            weights(ModelParams(M=5, zeta=0.1))
    assert caught == []


def test_eigenvector_non_convergence_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(ptqes.spectra, "_geev_vectors", _unconverged_vectors)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert ptqes.cli.main(["verify", "--suite", "norms"]) == ptqes.cli.EXIT_NUMERICAL == 3
    assert caught == []
    out, err = capsys.readouterr()
    assert out == ""
    assert "did not converge" in err


@pytest.mark.parametrize(
    "M, zeta, message",
    [
        (3, 1e200, r"zeta\^2=.* overflows the M=3 recursion coefficients"),
        (4, math.nan, "non-finite coupling zeta=nan for M=4"),
        (3, math.inf, "non-finite coupling zeta=inf for M=3"),
    ],
    ids=["overflow", "nan", "inf"],
)
def test_eig_refuses_a_bad_coupling_before_any_solve(capfd, M, zeta, message):
    # geev skips the finiteness check: a non-finite block makes LAPACK print
    # "illegal value" to stderr, and an overflowing coupling gives -inf levels
    with pytest.raises(ValueError, match=message):
        _eig(M, zeta)
    assert "illegal value" not in capfd.readouterr().err


@pytest.mark.parametrize("M", list(range(1, 42)) + [61, 80, 81, 161])
def test_geev_eigenvectors_have_unit_norm(M):
    # _eig's condition number is 1 / |x^T S x| because geev returns each
    # eigenvector with ||x|| = 1; the grid includes points 1e-7 from a merger,
    # where x^T S x is small, and the largest deviation measured is 4 eps
    z2s = [0.0, 1e-8, 1e-4, 0.01, 0.25, 1.0, 100.0, 1e6, 1e12]
    if M > 1 and M % 2:
        zc2 = critical_coupling(M).zeta_c_squared
        z2s += [zc2 * (1 + d) for d in (-1e-3, -1e-7, 1e-7, 1e-3)]
    C, S = _pencil(M)
    for z2 in z2s:
        B = C + math.sqrt(z2) * S
        for size in _sectors(M).values():
            _, X = ptqes.spectra._geev_vectors(B[:size, :size])
            sq_norms = np.sum(np.abs(X) ** 2, axis=0)
            assert np.max(np.abs(sq_norms - 1.0)) <= 16 * np.finfo(float).eps, (M, z2, size)


def test_every_geev_block_is_float64_for_odd_m_and_complex128_for_even_m(monkeypatch):
    # no signature is passed to geev: the block's dtype picks its loop, so a
    # float32 or object block would silently pick another one
    seen = []

    def spy(solve):
        def recorded(a):
            seen.append((M, a.dtype))
            return solve(a)

        return recorded

    monkeypatch.setattr(ptqes.spectra, "_geev", spy(ptqes.spectra._geev))
    monkeypatch.setattr(ptqes.spectra, "_geev_vectors", spy(ptqes.spectra._geev_vectors))
    for M in (1, 2, 3, 4, 5, 6, 15, 16):
        level_rows(M, 0.1)
        level_arrays(M, [0.0, 0.1, 1.0])
        _eig(M, 0.1)
        if M % 2:
            critical_coupling(M)
    assert {M for M, _ in seen} == {1, 2, 3, 4, 5, 6, 15, 16}
    assert all(dtype == (np.float64 if M % 2 else np.complex128) for M, dtype in seen)


def _plain_eig_rows(M, zeta):
    """_eig's docstring formula written out with plain generator sums over
    _geev_vectors' output: (E, label, omega, kappa) in level_rows' order."""
    z = abs(zeta)
    C, S = _pencil(M)
    B, rows = C + z * S, []
    lead = 0 if M % 2 else len(C) - 1
    fold = 0.5 * (-1) ** lead if M > 1 else 1.0
    for label, size in _sectors(M).items():
        levels, X = ptqes.spectra._geev_vectors(B[:size, :size])
        for E, x in zip(levels.tolist(), X.T.tolist()):
            E, den = E - z * z, sum(v * v for v in x[::2]) - sum(v * v for v in x[1::2])
            w, kappa = (fold * x[lead] * x[lead] / den, 1.0 / abs(den)) if den else (math.nan, math.inf)
            if M % 2 and not E.imag:
                w = complex(w.real, w.imag + 0.0)
            rows.append((E, label, w, kappa))
            if M % 2 == 0:
                rows.append((E.conjugate() if E.imag else E, label, w.conjugate(), kappa))
    return sorted(rows, key=lambda row: (row[0].real, row[0].imag, row[1]))


@pytest.mark.parametrize("M", list(range(1, 42)) + [61, 81])
def test_eig_rows_are_the_docstring_formula(M):
    # bit for bit, below the first merger, 1e-7 (relative, in zeta^2) below
    # it, above it and at g = M zeta = 36.7; an even M, and M = 1, which
    # has no merger, take the merger of the next odd M
    zc2 = critical_coupling(max(3, M + 1 - M % 2)).zeta_c_squared
    for z2 in (0.5 * zc2, zc2 * (1 - 1e-7), 1.5 * zc2, (36.7 / M) ** 2):
        zeta = math.sqrt(z2)
        assert repr(_eig(M, zeta)) == repr(_plain_eig_rows(M, zeta)), (M, z2)


@pytest.mark.parametrize("M", [1, 2, 3, 4, 5, 8, 9, 41])
def test_numpy_and_int_couplings_give_the_float_couplings_levels(M):
    # the one-coupling check converts the coupling once: a numpy scalar or an
    # int gives built-in complex levels with the float coupling's bits
    for zeta in (np.float64(0.3 / M), np.float64(-0.3 / M), 0, 1, -2):
        for solve in (level_rows, _eig):
            rows = solve(M, zeta)
            assert all(type(row[0]) is complex for row in rows)
            assert repr(rows) == repr(solve(M, float(zeta)))
