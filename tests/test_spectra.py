import math

import numpy as np
import pytest

import ptqes.spectra
from ptqes.model import ModelParams
from ptqes.polyengine import evaluate, matching_distance, to_variable
from ptqes.recursion import recurrence_a, recurrence_b
from ptqes.spectra import (
    check_factorization,
    critical_coupling,
    critical_polynomials,
    degenerate_pairs,
    _pencil,
    even_M_pairing,
    qes_spectrum,
)

# Couplings where the top level pair of each odd-M spectrum merges, located
# by the bisection below and frozen for the reality-switch test.
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
    # a level with the same real part that is not a partner does not end the scan
    assert degenerate_pairs([1.0 - 1j, 1.0 + 0j, 1.0 + 1e-9j]) == ((1, 2),)


def test_critical_polynomials_m1():
    p1, q0 = critical_polynomials(ModelParams(M=1, zeta=0.3))
    assert q0.degree == 0
    assert q0.coeffs == (1.0,)
    assert p1.degree == 1
    assert -p1.coeffs[0].real == pytest.approx(1.0 - 0.09, rel=1e-13)


def test_critical_polynomials_match_printed_m3():
    params = ModelParams(M=3, zeta=math.sqrt(0.01))
    p2, q1 = critical_polynomials(params)
    p_cal = to_variable(p2, "calE", params)
    q_cal = to_variable(q1, "calE", params)
    for got, want in zip(p_cal.coeffs, (16 * 0.01, 4.0, 1.0)):
        assert got.real == pytest.approx(want, abs=1e-12)
        assert abs(got.imag) < 1e-12
    for got, want in zip(q_cal.coeffs, (4.0, 1.0)):
        assert got.real == pytest.approx(want, abs=1e-12)


def test_critical_coupling_m1_infinite():
    cc = critical_coupling(1)
    assert math.isinf(cc.zeta_c_squared)
    assert not cc.is_finite
    assert cc.degenerate_energy is None


def test_critical_coupling_m3():
    cc = critical_coupling(3, tol=1e-10)
    assert abs(cc.zeta_c_squared - 0.25) <= 1e-10
    assert cc.degenerate_energy == pytest.approx(6.75, abs=1e-5)
    assert cc.is_finite


def test_critical_coupling_validation():
    with pytest.raises(ValueError):
        critical_coupling(4)
    with pytest.raises(ValueError):
        critical_coupling(3, tol=0.0)


def test_critical_coupling_in_scan_window():
    # zeta_c^2 peaks at exactly 1/4 (M = 3), inside the scan (0, 1/2], and
    # the bisection stops within tol of it; the merged energy is the mean of
    # the two largest E_P levels at zeta_c^2.
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
    monkeypatch.setattr(ptqes.spectra, "_has_complex_p_level", lambda M, zeta2: False)
    with pytest.raises(RuntimeError, match="M=5"):
        critical_coupling(5)


def test_overflowing_coupling_is_refused():
    with pytest.raises(ValueError, match="overflows"):
        qes_spectrum(ModelParams(M=3, zeta=1e154))
    # a coupling a decade below the overflow is still solved
    assert len(qes_spectrum(ModelParams(M=3, zeta=1e153)).levels) == 3


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
    report = check_factorization(ModelParams(M=3, zeta=math.sqrt(0.02)), n_extra=3)
    assert report.max_deviation < 1e-12
    names = {c.identity for c in report.checks}
    assert names == {"R = P*Q", "P = P_crit*Pbar", "Q = Q_crit*Qbar", "R = R_M*Rbar", "Rbar quotient"}


def test_factorization_even_m():
    report = check_factorization(ModelParams(M=4, zeta=math.sqrt(0.02)), n_extra=2)
    assert report.max_deviation < 1e-12
    names = {c.identity for c in report.checks}
    assert names == {"R = R_M*Rbar", "Rbar quotient"}
    with pytest.raises(ValueError):
        check_factorization(ModelParams(M=4, zeta=0.1), n_extra=0)


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


def _worst_relative_error(M, z2, reference):
    got = list(qes_spectrum(ModelParams(M=M, zeta=math.sqrt(z2))).energies)
    worst = 0.0
    for want in reference:
        nearest = min(got, key=lambda E: abs(E - want))
        got.remove(nearest)
        worst = max(worst, abs(nearest - want) / abs(want))
    return worst


def test_even_m_levels_match_reference_m12():
    assert _worst_relative_error(12, 0.01, M12_LEVELS) <= 1e-12


# 40-digit levels at M = 20 with Im >= 0, rounded to doubles; the other ten
# are their conjugates.  Generated by
#   python3 -c 'import sys; sys.path.insert(0, "bench"); import reference as r;
#               print([complex(z) for z in r.levels(20, z2)["E_R"]][::2])'
# with the sign of each imaginary part dropped.
M20_UPPER_LEVELS = {
    0.0625: [
        39.00347203509591 + 8.245227171552303e-32j,
        111.01215175341144 + 2.6016793425284736e-26j,
        175.02455003747048 + 2.665946831214937e-21j,
        231.0431433298661 + 1.1094982497649927e-16j,
        279.0728774297379 + 1.9376745743475047e-12j,
        319.12484248268976 + 1.3461433151532563e-08j,
        351.22832126511236 + 3.260175688206416e-05j,
        375.4816610126866 + 0.02167417632090119j,
        391.3558814987182 + 1.765184981416767j,
        397.02809915521135 + 6.743543393393252j,
    ],
    1.0: [
        39.05550773762144 + 2.3010998595449954e-20j,
        111.19418301753605 + 4.566539908817525e-16j,
        175.39195755490596 + 2.9546513491589994e-12j,
        231.68758148020933 + 7.823716702461306e-09j,
        280.1568515253712 + 8.834698123568014e-06j,
        320.9618391428068 + 0.004122951852863424j,
        354.396610820036 + 0.7278706636824781j,
        372.2956618097898 + 7.874436531525447j,
        381.773672120413 + 20.696286035339067j,
        393.0861347913103 + 33.545606042520596j,
    ],
}


@pytest.mark.parametrize("z2, bound", [(0.0625, 1e-13), (1.0, 1e-10)])
def test_even_m_levels_match_reference_m20(z2, bound):
    # g = M zeta = 5 and 20; the half-size block keeps even M accurate there
    upper = M20_UPPER_LEVELS[z2]
    assert _worst_relative_error(20, z2, upper + [E.conjugate() for E in upper]) <= bound


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


@pytest.mark.parametrize("M, zc2", [(17, 0.00747403225327626), (21, 0.00489582468825987)])
def test_critical_coupling_large_m(M, zc2):
    # reference values from bench/reference.py's critical(M), which solves
    # p = dp/dE = 0 for the E_P block at 40 digits
    assert abs(critical_coupling(M).zeta_c_squared - zc2) <= 1e-10


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
    """The pencil's matrix written out entry by entry from the recursion: rows
    and columns 0..k of T with the last sub-diagonal entry doubled (the E_P
    block) for odd M = 2k + 1, rows and columns k..M-1 of T for even M = 2k."""
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
    for M in range(1, 62):
        C, S = _pencil(M)
        for zeta in (0.0, 0.01, 0.1, 0.5, 1.3, -2.0):
            params = ModelParams(M=M, zeta=zeta)
            assert np.array_equal(C + params.zeta2 * S, _recursion_block(params))
    with pytest.raises(ValueError):
        C[0, 0] = 0.0
    with pytest.raises(ValueError):
        S[0, 0] = 0.0
