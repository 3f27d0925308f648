import math

import pytest

from ptqes.model import ModelParams
from ptqes.polyengine import (
    EnergyPolynomial,
    backward_error,
    evaluate,
    divide_exact,
    matching_distance,
    mul,
    taylor_shift,
    to_variable,
)


def test_polynomial_validation():
    with pytest.raises(ValueError):
        EnergyPolynomial(())
    with pytest.raises(ValueError):
        EnergyPolynomial((1.0, 2.0))  # not monic
    with pytest.raises(ValueError):
        EnergyPolynomial((0.0, 1.0), variable="x")
    p = EnergyPolynomial((2.0, 3.0, 1.0))
    assert p.degree == 2
    assert p.index == 2
    assert p.variable == "E"


def test_evaluate_and_mul():
    p = EnergyPolynomial((2.0, 3.0, 1.0))  # (E+1)(E+2)
    assert evaluate(p, 0.0) == 2.0
    assert evaluate(p, -1.0) == 0.0
    a = EnergyPolynomial((1.0, 1.0))
    b = EnergyPolynomial((2.0, 1.0))
    assert mul(a, b).coeffs == p.coeffs
    with pytest.raises(ValueError):
        mul(a, EnergyPolynomial((2.0, 1.0), variable="calE"))


def test_divide_exact():
    p = mul(EnergyPolynomial((1.0, 1.0)), EnergyPolynomial((2.0, 1.0)))
    q, rem = divide_exact(p, EnergyPolynomial((1.0, 1.0)))
    assert rem == 0.0
    assert q.coeffs == (2.0, 1.0)
    # E^2 + 1 does not factor through E + 1; remainder is |p(-1)| = 2
    _, rem = divide_exact(EnergyPolynomial((1.0, 0.0, 1.0)), EnergyPolynomial((1.0, 1.0)))
    assert rem > 0.5
    with pytest.raises(ValueError):
        divide_exact(EnergyPolynomial((1.0, 1.0)), p)


def test_backward_error():
    p = EnergyPolynomial((-6.0, 11.0, -6.0, 1.0))  # (E-1)(E-2)(E-3)
    assert backward_error(p, 2.0) == 0.0
    # p(0) = -6 against sum |c_i| 0^i = 6
    assert backward_error(p, 0.0) == 1.0
    assert backward_error(p, 1.0 + 1e-9) < 1e-9


def test_matching_distance():
    assert matching_distance([1.0, 2.0], [2.0, 1.0]) == 0.0
    assert matching_distance([0.0, 1.0], [0.0, 1.5]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        matching_distance([1.0], [1.0, 2.0])


def test_taylor_shift_roundtrip():
    p = EnergyPolynomial((4.0, 0.0, 1.0))
    q = taylor_shift(p, 1.5)
    assert evaluate(q, 0.0) == pytest.approx(evaluate(p, 1.5), rel=1e-15)
    back = taylor_shift(q, -1.5)
    for a, b in zip(back.coeffs, p.coeffs):
        assert a == pytest.approx(b, abs=1e-13)


def test_to_variable_shift():
    params = ModelParams(M=3, zeta=math.sqrt(0.01))
    p = EnergyPolynomial((2.0, 1.0), variable="E")
    q = to_variable(p, "calE", params)
    assert q.variable == "calE"
    offset = 9 - 0.01
    assert evaluate(q, -4.0) == pytest.approx(evaluate(p, -4.0 + offset), rel=1e-14)
    back = to_variable(q, "E", params)
    for a, b in zip(back.coeffs, p.coeffs):
        assert a == pytest.approx(b, abs=1e-13)
    assert to_variable(p, "E", params) is p
    with pytest.raises(ValueError):
        to_variable(p, "x", params)
