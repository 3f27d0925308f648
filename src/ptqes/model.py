"""Parameters, potentials and energy conventions shared by every other module.

Two PT-invariant, non-Hermitian Schroedinger problems are treated, in units
hbar = 2m = 1:

* the hyperbolic model (DSHG),  V(x) = -(zeta*cosh(2x) - i*M)**2, and
* its periodic partner (DSG),   V(theta) = (zeta*cos(2*theta) - i*M)**2.

M is a positive integer and zeta a real coupling.  Under the combined parity
x -> i*pi/2 - x and complex conjugation the hyperbolic potential maps onto
itself, which is the PT invariance that keeps the quasi-exactly-solvable
levels real below a critical coupling.

ModelParams describes both: the periodic problem is the image of the
hyperbolic one under x -> i*theta (duality.py).  periodic_potential is written
out on its own so that checks of the periodic equation do not use that map.

Every energy and polynomial is in the physical energy E.  The paper prints
its critical polynomials in calE = E - M**2 + zeta**2; the printed form of a
polynomial p is polyengine.taylor_shift(p, M**2 - params.zeta2).  The record
each module's verify suite builds from a check's cells (_check), and the
worst-cell rule (_rank) that picks its worst cell and reduces every per-cell
measure, live here so that every module shares a single definition.
"""

import cmath
import math
from dataclasses import dataclass


@dataclass(frozen=True, init=False)
class ModelParams:
    """Immutable parameter bundle (M, zeta).

    zeta is stored as given, any sign.  Every implemented formula for the
    spectrum depends on zeta only through zeta**2; that is a tested property,
    not an assumption baked in here.

    It and the level records (spectra.QesLevel, duality.DualLevel and their
    spectra) are frozen dataclasses with a hand-written __init__ that fills
    __dict__ directly: the generated frozen __init__ calls
    object.__setattr__ once per field, which took half of a level record's
    construction.  dataclasses.replace calls __init__ with every field as a
    keyword, so it checks as a direct call does.
    """

    M: int
    zeta: float

    def __init__(self, M: int, zeta: float):
        if isinstance(M, bool) or not isinstance(M, int):
            raise ValueError(f"M must be a plain integer, got {M!r}")
        if M < 1:
            raise ValueError(f"M must be >= 1, got {M}")
        value = float(zeta)
        if not math.isfinite(value):
            raise ValueError(f"zeta must be finite, got {zeta!r}")
        fields = self.__dict__
        fields["M"] = M
        fields["zeta"] = value

    @property
    def zeta2(self) -> float:
        return self.zeta * self.zeta


def k_index(M: int) -> int:
    """Sector index k for odd M = 2k + 1.

    The quasi-exactly-solvable block splits into an even sector of dimension
    k + 1 and an odd sector of dimension k; only odd M admits the split.
    """
    if isinstance(M, bool) or not isinstance(M, int):
        raise ValueError(f"M must be a plain integer, got {M!r}")
    if M < 1 or M % 2 == 0:
        raise ValueError(f"k index needs odd positive M, got {M}")
    return (M - 1) // 2


def potential(x: complex, params: ModelParams) -> complex:
    """Hyperbolic potential -(zeta*cosh(2x) - i*M)**2 at a (possibly complex) point."""
    core = params.zeta * cmath.cosh(2.0 * complex(x)) - 1j * params.M
    return -(core * core)


def periodic_potential(theta: complex, params: ModelParams) -> complex:
    """Periodic potential (zeta*cos(2*theta) - i*M)**2 at a (possibly complex) point."""
    core = params.zeta * cmath.cos(2.0 * complex(theta)) - 1j * params.M
    return core * core


def pt_reflection(x: complex) -> complex:
    """PT image i*pi/2 - conj(x) of a point for the hyperbolic model.

    conj(V_dshg(pt_reflection(x))) equals V_dshg(x); the analogous statement
    for the periodic model is not asserted anywhere in this package.
    """
    return 0.5j * math.pi - complex(x).conjugate()


def _rank(value):
    """Sort key of the worst-cell rule: max(..., key=_rank) picks the largest
    value, the first of equal ones, and a NaN above every number."""
    return math.isnan(value), value


def _check(name: str, cells, bound, detail: str) -> dict:
    """One verify check over cells, its (value, cell) pairs or a single count.

    measured is the count or the worst cell's value by _rank, and the check
    passes exactly when measured <= bound, so a NaN fails.  detail is a
    str.format template of value, cell and bound; a NaN value's cell ends it
    as "; NaN at <cell>" where the template does not name {cell}."""
    value, cell = (cells, None) if isinstance(cells, int) else max(cells, key=lambda pair: _rank(pair[0]))
    text = detail.format(value=value, cell=cell, bound=bound)
    if math.isnan(value) and "{cell}" not in detail:
        text = f"{text}; NaN at {cell}"
    return {"name": name, "passed": bool(value <= bound), "detail": text, "measured": value, "bound": bound}
