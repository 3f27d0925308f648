import math

import numpy as np
import pytest

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


def test_even_m_levels_match_reference_m12():
    got = list(qes_spectrum(ModelParams(M=12, zeta=math.sqrt(0.01))).energies)
    for want in M12_LEVELS:
        nearest = min(got, key=lambda E: abs(E - want))
        got.remove(nearest)
        assert abs(nearest - want) <= 1e-12 * abs(want)


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
    """The sector matrix written out entry by entry from the recursion: all of
    T for even M, the E_P block with its last sub-diagonal entry doubled for
    odd M."""
    M = params.M
    size = M if M % 2 == 0 else M // 2 + 1
    T = np.zeros((size, size))
    for n in range(size):
        T[n, n] = recurrence_b(n, params)
        if n:
            T[n - 1, n] = 1.0
            T[n, n - 1] = recurrence_a(n, params)
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
