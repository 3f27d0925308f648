import math

import pytest

from ptqes.model import ModelParams
from ptqes.polyengine import evaluate
from ptqes.recursion import (
    build_P,
    build_Q,
    build_R,
    build_Rbar,
    recurrence_a,
    recurrence_b,
)


def test_recurrence_coefficients():
    p = ModelParams(M=3, zeta=math.sqrt(0.01))
    assert recurrence_a(1, p) == pytest.approx(-0.08, rel=1e-15)
    assert recurrence_a(2, p) == pytest.approx(-0.08, rel=1e-15)
    assert recurrence_a(3, p) == 0.0  # vanishes identically at n = M
    assert recurrence_b(0, p) == pytest.approx(5.0 - 0.01, rel=1e-15)


def test_p1_explicit():
    # P_1 = E - M^2 + zeta^2 + 4i*zeta at M = 3
    p = ModelParams(M=3, zeta=0.1)
    fam = build_P(p, 1)
    assert fam[1].coeffs[1] == 1.0
    assert fam[1].coeffs[0] == pytest.approx(-8.99 + 0.4j, abs=1e-13)
    assert fam[1].family == "P"


def test_q1_root():
    # Q_1 root at E = 5 - zeta^2 for M = 3
    p = ModelParams(M=3, zeta=math.sqrt(0.04))
    q1 = build_Q(p, 1)[1]
    assert q1.degree == 1
    assert abs(evaluate(q1, 5.0 - 0.04)) < 1e-12


def test_r_family_is_real():
    p = ModelParams(M=5, zeta=math.sqrt(0.02))
    for poly in build_R(p, 8):
        assert all(c.imag == 0.0 for c in poly.coeffs)
    for poly in build_Rbar(p, 4):
        assert all(c.imag == 0.0 for c in poly.coeffs)


def test_r1_and_rbar1():
    p = ModelParams(M=4, zeta=math.sqrt(0.02))
    r1 = build_R(p, 1)[1]
    assert r1.coeffs[0] == pytest.approx(-(2 * 4 - 1 - 0.02), rel=1e-15)
    rbar1 = build_Rbar(p, 1)[1]
    # b_M = -(2M + 1 + zeta^2), so Rbar_1 = E + 2M + 1 + zeta^2
    assert rbar1.coeffs[0] == pytest.approx(2 * 4 + 1 + 0.02, rel=1e-15)


def test_validation():
    p = ModelParams(M=3, zeta=0.1)
    with pytest.raises(ValueError):
        build_R(p, -1)
    with pytest.raises(ValueError):
        build_Rbar(p, -1)


def test_overflowing_coefficient_is_refused():
    # R_4 overflows at zeta^2 = 1e100; the error names the member and zeta^2
    with pytest.raises(ValueError, match=r"R_4 .*zeta\^2=1\.0+2e\+100"):
        build_R(ModelParams(M=5, zeta=1e50), 5)
    assert len(build_R(ModelParams(M=5, zeta=1e10), 5)) == 6


def test_family_metadata():
    p = ModelParams(M=3, zeta=0.1)
    fam = build_R(p, 3)
    assert [q.index for q in fam] == [0, 1, 2, 3]
    assert [q.degree for q in fam] == [0, 1, 2, 3]
    assert all(q.family == "R" for q in fam)
    assert all(q.variable == "E" for q in fam)
    assert all(q.coeffs[-1] == 1.0 for q in fam)


def test_zeta_sign_symmetry():
    # R depends on zeta only through zeta^2; P and Q conjugate under
    # zeta -> -zeta.  Both statements hold exactly in float arithmetic.
    plus = ModelParams(M=4, zeta=0.3)
    minus = ModelParams(M=4, zeta=-0.3)
    assert build_R(plus, 4)[4].coeffs == build_R(minus, 4)[4].coeffs
    p_plus = build_P(plus, 3)[3]
    p_minus = build_P(minus, 3)[3]
    assert p_minus.coeffs == tuple(c.conjugate() for c in p_plus.coeffs)
    q_plus = build_Q(plus, 3)[3]
    q_minus = build_Q(minus, 3)[3]
    assert q_minus.coeffs == tuple(c.conjugate() for c in q_plus.coeffs)


def test_zero_coupling_factorizes_completely():
    # At zeta = 0 the recursion has no tail coupling, so R_M is the exact
    # product of (E - b_n); at M = 5 the b values pair up as 9, 21, 25, 21, 9.
    # The integer coefficients and Horner steps stay exact in doubles.
    p = ModelParams(M=5, zeta=0.0)
    r5 = build_R(p, 5)[5]
    assert [recurrence_b(n, p) for n in range(5)] == [9.0, 21.0, 25.0, 21.0, 9.0]
    for n in range(5):
        assert evaluate(r5, recurrence_b(n, p)) == 0
