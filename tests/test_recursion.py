import cmath
import math

import pytest

from ptqes.model import ModelParams, k_index
from ptqes.polyengine import evaluate
from ptqes.polyengine import mul
from ptqes.recursion import (
    build_bar,
    build_P,
    build_Q,
    build_R,
    family_norms,
    family_values,
    recurrence_a,
    recurrence_b,
    step_table,
)

TABLE_ZETAS = [0.0, 0.01, 0.3, 1.7, 1e5]


def _docstring_step(family, params, n):
    """(lin_n, tail_n) as the module docstring writes them."""
    M, zeta = params.M, params.zeta
    sq = (M - 1j * zeta) * (M - 1j * zeta)
    if family == "P":
        return 4 * (n - 1) ** 2 - 8j * zeta * n + 6j * zeta - sq, 8j * zeta * (n - 1) * (2 * n - 3) * (M + 3 - 2 * n)
    if family == "Q":
        return 4 * n**2 - 8j * zeta * n + 2j * zeta - sq, 8j * zeta * (n - 1) * (2 * n - 1) * (M + 1 - 2 * n)
    return -_docstring_b(n - 1, params), _docstring_a(n - 1, params)


def _docstring_a(n, params):
    """a_n = -4 n (M - n) zeta^2, as the module docstring writes it."""
    return -4.0 * n * (params.M - n) * params.zeta2


def _docstring_b(n, params):
    """b_n = 4 n (M - 1 - n) + 2M - 1 - zeta^2, as the module docstring writes it."""
    return 4.0 * n * (params.M - 1 - n) + 2.0 * params.M - 1.0 - params.zeta2


def _plain_step(family, params):
    """n -> F's docstring step; Fbar reads F's at b + n."""
    base = family.removesuffix("bar")
    b = 0
    if base != family:
        b = params.M if base == "R" else k_index(params.M) + (base == "P")
    return lambda n: _docstring_step(base, params, b + n)


def _plain_values(step, E, count):
    cur, prev = 1.0 + 0j, 0j
    out = [cur]
    for n in range(1, count):
        lin, tail = step(n)
        cur, prev = (E + lin) * cur - tail * prev, cur
        out.append(cur)
    return out[:count]


def _plain_norms(step, count):
    out = [1.0]
    for n in range(1, count):
        out.append(out[-1] * step(n + 1)[1])
    return out


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
    assert fam[1].degree == 1


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
    for poly in build_bar("R", p, 4):
        assert all(c.imag == 0.0 for c in poly.coeffs)


def test_r1_and_rbar1():
    p = ModelParams(M=4, zeta=math.sqrt(0.02))
    r1 = build_R(p, 1)[1]
    assert r1.coeffs[0] == pytest.approx(-(2 * 4 - 1 - 0.02), rel=1e-15)
    rbar1 = build_bar("R", p, 1)[1]
    # b_M = -(2M + 1 + zeta^2), so Rbar_1 = E + 2M + 1 + zeta^2
    assert rbar1.coeffs[0] == pytest.approx(2 * 4 + 1 + 0.02, rel=1e-15)


def test_validation():
    p = ModelParams(M=3, zeta=0.1)
    with pytest.raises(ValueError):
        build_R(p, -1)
    with pytest.raises(ValueError):
        build_bar("R", p, -1)


def test_overflowing_coefficient_is_refused():
    # R_4 overflows at zeta^2 = 1e100; the error names the member and zeta^2
    with pytest.raises(ValueError, match=r"R_4 .*zeta\^2=1\.0+2e\+100"):
        build_R(ModelParams(M=5, zeta=1e50), 5)
    assert len(build_R(ModelParams(M=5, zeta=1e10), 5)) == 6


@pytest.mark.parametrize("build", [build_P, build_Q])
@pytest.mark.parametrize("zeta", [1.3e154, 1e155, -1e200])
def test_overflowing_sector_constant_is_refused(build, zeta):
    # (M - i zeta)^2 overflows: the error names the member and zeta^2
    with pytest.raises(ValueError, match=r"[PQ]_[12] has a non-finite coefficient at zeta\^2="):
        build(ModelParams(M=3, zeta=zeta), 2)


def test_build_bar_is_the_cofactor_of_the_truncating_member():
    # F_{b+n} = F_b * Fbar_n with b = k + 1 (P), k (Q), M (R); M = 5, k = 2
    p = ModelParams(M=5, zeta=0.3)
    for build, family, b in [(build_P, "P", 3), (build_Q, "Q", 2), (build_R, "R", 5)]:
        fam, bar = build(p, b + 3), build_bar(family, p, 3)
        for n in range(4):
            got, want = mul(fam[b], bar[n]).coeffs, fam[b + n].coeffs
            assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-13 * max(map(abs, want))
    for family in ("Pbar", "S"):
        with pytest.raises(ValueError, match=f"family must be P, Q or R, got '{family}'"):
            build_bar(family, p, 2)
    with pytest.raises(ValueError, match="odd positive M"):
        build_bar("P", ModelParams(M=4, zeta=0.3), 2)


def test_family_metadata():
    p = ModelParams(M=3, zeta=0.1)
    fam = build_R(p, 3)
    assert [q.degree for q in fam] == [0, 1, 2, 3]
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


@pytest.mark.parametrize("zeta", TABLE_ZETAS)
@pytest.mark.parametrize("M", range(1, 42))
def test_step_tables_are_the_docstring_steps(M, zeta):
    # Exact equality: each table has the bits of the docstring's formulas,
    # and Fbar's is F's read from n = b + 1.
    p = ModelParams(M=M, zeta=zeta)
    count = M + 3
    for family in ("P", "Q", "R", "Pbar", "Qbar", "Rbar"):
        if family in ("Pbar", "Qbar") and M % 2 == 0:
            with pytest.raises(ValueError, match="odd positive M"):
                step_table(family, p, count)
            continue
        step = _plain_step(family, p)
        assert repr(step_table(family, p, count)) == repr([step(n) for n in range(1, count)])
        assert step_table(family, p, 1) == step_table(family, p, -2) == []
    # recurrence_a and recurrence_b read R's formulas at n + 1; float.hex
    # tells the signed zeros apart (a_0 and a_M are -0.0)
    for n in range(M + 2):
        assert recurrence_a(n, p).hex() == _docstring_a(n, p).hex()
        assert recurrence_b(n, p).hex() == _docstring_b(n, p).hex()


@pytest.mark.parametrize("zeta", TABLE_ZETAS)
@pytest.mark.parametrize("M", range(1, 42))
def test_family_values_and_norms_are_the_plain_recursion(M, zeta):
    p = ModelParams(M=M, zeta=zeta)
    for family in ("P", "Q", "R", "Pbar", "Qbar", "Rbar") if M % 2 else ("P", "Q", "R", "Rbar"):
        step = _plain_step(family, p)
        for count in (0, 1, 2, M, M + 3):
            for E in (0.0, 2.5 + 0j, complex(M * M, 0.5 * M)):
                assert repr(family_values(family, p, E, count)) == repr(_plain_values(step, E, count))
            want = _plain_norms(step, count)
            if all(map(cmath.isfinite, want)):
                assert repr(family_norms(family, p, count)) == repr(want)
            else:
                with pytest.raises(ValueError, match=f"{family} Gram norm h_"):
                    family_norms(family, p, count)
