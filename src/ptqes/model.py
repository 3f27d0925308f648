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

Spectra are often written in the shifted variable calE = E - M**2 + zeta**2.
The conversion lives here so that every module shares a single definition,
as does the record each module's verify suite returns (_check).
"""

import cmath
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ModelParams:
    """Immutable parameter bundle (M, zeta).

    zeta is stored as given, any sign.  Every implemented formula for the
    spectrum depends on zeta only through zeta**2; that is a tested property,
    not an assumption baked in here.
    """

    M: int
    zeta: float

    def __post_init__(self):
        if isinstance(self.M, bool) or not isinstance(self.M, int):
            raise ValueError(f"M must be a plain integer, got {self.M!r}")
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")
        zeta = float(self.zeta)
        if not math.isfinite(zeta):
            raise ValueError(f"zeta must be finite, got {self.zeta!r}")
        object.__setattr__(self, "zeta", zeta)

    @property
    def zeta2(self) -> float:
        return self.zeta * self.zeta


def shift_to_physical(calE: complex, params: ModelParams) -> complex:
    """Physical energy E = calE + M**2 - zeta**2."""
    return calE + params.M**2 - params.zeta2


def shift_from_physical(E: complex, params: ModelParams) -> complex:
    """Shifted energy calE = E - M**2 + zeta**2 (inverse of shift_to_physical)."""
    return E - params.M**2 + params.zeta2


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


def _check(name: str, measured, bound, detail: str) -> dict:
    """One verify check: it passes exactly when measured <= bound."""
    passed = bool(measured <= bound)
    return {"name": name, "passed": passed, "detail": detail, "measured": measured, "bound": bound}
