import cmath
import math

import pytest

from ptqes.model import (
    ModelParams,
    k_index,
    periodic_potential,
    potential,
    pt_reflection,
)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(M=0, zeta=0.1)
    with pytest.raises(ValueError):
        ModelParams(M=-3, zeta=0.1)
    with pytest.raises(ValueError):
        ModelParams(M=2.0, zeta=0.1)
    with pytest.raises(ValueError):
        ModelParams(M=True, zeta=0.1)
    with pytest.raises(ValueError):
        ModelParams(M=3, zeta=float("nan"))
    with pytest.raises(ValueError):
        ModelParams(M=3, zeta=float("inf"))


def test_params_fields():
    p = ModelParams(M=3, zeta=0.1)
    assert p.zeta2 == pytest.approx(0.01, rel=1e-15)


def test_params_have_no_model_selector():
    # the periodic model is reached through duality.dual_spectrum only; a
    # selector that qes_spectrum ignored gave the hyperbolic levels silently
    with pytest.raises(TypeError):
        ModelParams(M=3, zeta=0.1, model="dsg")


def test_k_index():
    assert k_index(1) == 0
    assert k_index(3) == 1
    assert k_index(9) == 4
    for bad in (0, 2, 8, -1, True, 3.0):
        with pytest.raises(ValueError):
            k_index(bad)


def test_potential_values():
    p = ModelParams(M=3, zeta=0.1)
    core = 0.1 - 3j
    assert potential(0.0, p) == pytest.approx(-(core * core), rel=1e-15)
    assert periodic_potential(0.0, p) == pytest.approx(core * core, rel=1e-15)


def test_potential_duality_map():
    # V_dshg(i*theta) = -V_dsg(theta) since cosh(2i*theta) = cos(2*theta)
    p = ModelParams(M=5, zeta=0.3)
    for theta in (0.3, 1.1, 0.4 + 0.2j, -0.7):
        lhs = potential(1j * theta, p)
        rhs = -periodic_potential(theta, p)
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


def test_pt_reflection_invariance():
    p = ModelParams(M=4, zeta=0.25)
    for x in (0.2, -1.1, 0.5 + 0.3j, 2.0 - 0.1j):
        v = potential(x, p)
        w = potential(pt_reflection(x), p)
        assert w.conjugate() == pytest.approx(v, rel=1e-12, abs=1e-12)
    assert pt_reflection(0.0) == 0.5j * math.pi


def test_pt_reflection_square_is_period_shift():
    # the squared map is x + i*pi, which cosh(2x) cannot see
    p = ModelParams(M=2, zeta=0.3)
    for x in (0.7, -0.4 + 1.2j):
        twice = pt_reflection(pt_reflection(x))
        assert twice == pytest.approx(x + 1j * math.pi, abs=1e-15)
        assert potential(twice, p) == pytest.approx(potential(x, p), rel=1e-12)
