import math

import pytest

import ptqes.duality
from ptqes.duality import DualLevel, DualSpectrum, dual_closed_form_levels, dual_spectrum, verify_duality
from ptqes.model import ModelParams
from ptqes.polyengine import matching_distance
from ptqes.spectra import level_rows, qes_spectrum


def test_dual_is_exact_negation_reversal():
    p = ModelParams(M=3, zeta=math.sqrt(0.01))
    base = qes_spectrum(p).energies
    dual = dual_spectrum(p)
    assert dual.energies == tuple(-e for e in reversed(base))
    assert dual.energies == pytest.approx(
        [-8.949591794226542, -5.030408205773458, -4.99], abs=1e-12
    )
    assert dual.params == p
    # applying the map twice is the identity on the multiset, exactly
    assert tuple(-e for e in reversed(dual.energies)) == base


def test_negation_reversal_check_refuses_a_negative_zero(monkeypatch):
    # -E writes Im -0 for a real level where 0j - E writes +0; == treats the
    # two as equal, so the check compares bit patterns
    def minus_e(params):
        rows = reversed(level_rows(params.M, params.zeta))
        last = params.M - 1
        return DualSpectrum(params, tuple(DualLevel(-E, last - k, label, real) for k, (E, label, real) in enumerate(rows)))

    assert repr(minus_e(ModelParams(M=3, zeta=0.1)).energies[-1]) == "(-4.99-0j)"
    checks = {c["name"]: c for c in verify_duality()}
    assert checks["duality.negation_reversal"]["passed"]
    monkeypatch.setattr(ptqes.duality, "dual_spectrum", minus_e)
    checks = {c["name"]: c for c in verify_duality()}
    assert not checks["duality.negation_reversal"]["passed"]
    assert checks["duality.negation_reversal"]["detail"] == "exact float equality, M in 1,3,5,7,9"


def test_dual_metadata():
    p = ModelParams(M=3, zeta=math.sqrt(0.01))
    dual = dual_spectrum(p)
    assert [lvl.source_index for lvl in dual.levels] == [2, 1, 0]
    assert [lvl.label for lvl in dual.levels] == ["E_P", "E_P", "E_Q"]
    assert all(lvl.is_real for lvl in dual.levels)


def test_dual_requires_odd_m():
    with pytest.raises(ValueError):
        dual_spectrum(ModelParams(M=2, zeta=0.1))


def test_closed_form_levels():
    p = ModelParams(M=1, zeta=math.sqrt(0.04))
    assert dual_closed_form_levels(p) == [pytest.approx(-0.96, rel=1e-15)]
    p3 = ModelParams(M=3, zeta=math.sqrt(0.04))
    lv = dual_closed_form_levels(p3)
    r = math.sqrt(1.0 - 0.16)
    assert lv[0] == pytest.approx(-7.0 + 0.04 - 2 * r, rel=1e-14)
    assert lv[1] == pytest.approx(0.04 - 5.0, rel=1e-14)
    assert lv[2] == pytest.approx(-7.0 + 0.04 + 2 * r, rel=1e-14)
    with pytest.raises(ValueError):
        dual_closed_form_levels(ModelParams(M=5, zeta=0.1))


@pytest.mark.parametrize("M, z2", [(1, 0.0), (1, 0.04), (3, 0.0), (3, 0.01), (3, 0.24), (3, 0.3)])
def test_closed_form_levels_are_complex_with_positive_zero(M, z2):
    # -closed[tag] once gave floats beside complex values, with Im -0
    for E in dual_closed_form_levels(ModelParams(M=M, zeta=math.sqrt(z2))):
        assert type(E) is complex
        assert E.imag != 0 or math.copysign(1.0, E.imag) == 1.0


@pytest.mark.parametrize("z2", [0.0, 0.01, 0.1, 0.24])
def test_closed_forms_match_computed_dual(z2):
    p = ModelParams(M=3, zeta=math.sqrt(z2))
    computed = dual_spectrum(p).energies
    closed = sorted(dual_closed_form_levels(p), key=lambda x: (x.real, x.imag))
    for a, b in zip(computed, closed):
        assert a == pytest.approx(b, abs=1e-12)


def test_closed_forms_beyond_critical_coupling():
    # above zeta_c^2 = 1/4 the sqrt goes imaginary and a conjugate pair forms
    p = ModelParams(M=3, zeta=math.sqrt(0.3))
    computed = dual_spectrum(p).energies
    closed = dual_closed_form_levels(p)
    assert matching_distance(computed, closed) < 1e-12
    assert any(abs(complex(x).imag) > 0.1 for x in closed)
