import cmath
import dataclasses
import math
import re

import pytest

from ptqes.duality import DualLevel, DualSpectrum
from ptqes.model import (
    ModelParams,
    k_index,
    periodic_potential,
    potential,
    pt_reflection,
)
from ptqes.spectra import QesLevel, QesSpectrum


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


# The level records and ModelParams as frozen dataclasses: one instance of
# each, its fields, its astuple, and a second value for every field.
_PARAMS = ModelParams(M=3, zeta=0.1)
_QES_LEVEL = QesLevel(E=6.75 + 0j, label="E_P", is_real=True)
_DUAL_LEVEL = DualLevel(Ehat=-6.75 + 0j, source_index=2, label="E_P", is_real=True)
_RECORDS = {
    "ModelParams": (_PARAMS, {"M": 3, "zeta": 0.1}, (3, 0.1), {"M": 5, "zeta": -0.2}),
    "QesLevel": (
        _QES_LEVEL,
        {"E": 6.75 + 0j, "label": "E_P", "is_real": True},
        (6.75 + 0j, "E_P", True),
        {"E": 1 - 2j, "label": "E_Q", "is_real": False},
    ),
    "QesSpectrum": (
        QesSpectrum(params=_PARAMS, levels=(_QES_LEVEL,)),
        {"params": _PARAMS, "levels": (_QES_LEVEL,)},
        ((3, 0.1), ((6.75 + 0j, "E_P", True),)),
        {"params": ModelParams(M=1, zeta=0.0), "levels": ()},
    ),
    "DualLevel": (
        _DUAL_LEVEL,
        {"Ehat": -6.75 + 0j, "source_index": 2, "label": "E_P", "is_real": True},
        (-6.75 + 0j, 2, "E_P", True),
        {"Ehat": 0j, "source_index": 0, "label": "E_Q", "is_real": False},
    ),
    "DualSpectrum": (
        DualSpectrum(params=_PARAMS, levels=(_DUAL_LEVEL,)),
        {"params": _PARAMS, "levels": (_DUAL_LEVEL,)},
        ((3, 0.1), ((-6.75 + 0j, 2, "E_P", True),)),
        {"params": ModelParams(M=1, zeta=0.0), "levels": ()},
    ),
}


@pytest.mark.parametrize("name", _RECORDS)
def test_records_refuse_assignment(name):
    record, values, _, other = _RECORDS[name]
    for field in values:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, other[field])
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.extra = 1
    assert {f: getattr(record, f) for f in values} == values


@pytest.mark.parametrize("name", _RECORDS)
def test_equal_records_compare_and_hash_equal(name):
    record, values, _, other = _RECORDS[name]
    cls = type(record)
    for twin in (cls(**values), cls(*values.values())):
        assert twin == record and twin is not record
        assert hash(twin) == hash(record)
    for field in values:
        changed = cls(**{**values, field: other[field]})
        assert changed != record


@pytest.mark.parametrize("name", _RECORDS)
def test_record_fields_astuple_and_replace(name):
    record, values, as_tuple, other = _RECORDS[name]
    cls = type(record)
    assert [f.name for f in dataclasses.fields(cls)] == list(values)
    assert dataclasses.astuple(record) == as_tuple
    assert repr(record) == f"{name}(" + ", ".join(f"{f}={v!r}" for f, v in values.items()) + ")"
    for field in values:
        replaced = dataclasses.replace(record, **{field: other[field]})
        assert type(replaced) is cls
        assert replaced == cls(**{**values, field: other[field]})
    assert dataclasses.replace(record) == record
    assert {f: getattr(record, f) for f in values} == values


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"M": True}, "M must be a plain integer, got True"),
        ({"M": 3.0}, "M must be a plain integer, got 3.0"),
        ({"M": 0}, "M must be >= 1, got 0"),
        ({"M": -3}, "M must be >= 1, got -3"),
        ({"zeta": math.nan}, "zeta must be finite, got nan"),
        ({"zeta": -math.inf}, "zeta must be finite, got -inf"),
    ],
)
def test_params_refuse_bad_values_also_through_replace(changes, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ModelParams(**{"M": 3, "zeta": 0.1, **changes})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(_PARAMS, **changes)


def test_params_store_zeta_as_float():
    for params in (ModelParams(M=3, zeta=1), dataclasses.replace(_PARAMS, zeta=1)):
        assert type(params.zeta) is float and params.zeta == 1.0
    assert ModelParams(M=3, zeta=-0.0).zeta2 == 0.0
