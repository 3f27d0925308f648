"""Anti-isospectral map between the hyperbolic model and its periodic dual.

The substitution x -> i*theta sends V(x) = -(zeta*cosh(2x) - i*M)^2 to
V(theta) = (zeta*cos(2*theta) - i*M)^2 and negates the spectrum: with the
hyperbolic levels E_0 <= ... <= E_{M-1}, the dual levels are

    Ehat_k = -E_{M-1-k},

again ascending, and a hyperbolic eigenfunction psi(x) gives the dual one
psi(i*theta).  This map is the only route to the periodic model: its levels
and closed forms are those of the hyperbolic model, negated.  Applying the
map twice is the identity on the level multiset, exactly, since negation of
floats is exact.
"""

import math
from dataclasses import dataclass

from .model import ModelParams, _check, k_index
from .oracle import dshg_closed_form_levels, ode_residual_dsg
from .spectra import qes_spectrum

# verify_duality bounds: the M = 3 closed-form dual levels, absolute, and the
# periodic ODE residual of the mapped closed forms.
_CLOSED_FORM_TOL = 1e-12
_ODE_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class DualLevel:
    Ehat: complex
    source_index: int
    label: str
    is_real: bool


@dataclass(frozen=True)
class DualSpectrum:
    params: ModelParams
    levels: tuple

    @property
    def energies(self):
        return tuple(lvl.Ehat for lvl in self.levels)


def dual_spectrum(params: ModelParams) -> DualSpectrum:
    """Periodic-model levels Ehat_k = -E_{M-1-k}, ascending; odd M only."""
    k_index(params.M)
    levels = [
        DualLevel(Ehat=-src.E, source_index=i, label=src.label, is_real=src.is_real)
        for i, src in enumerate(qes_spectrum(params).levels)
    ]
    return DualSpectrum(params=params, levels=tuple(reversed(levels)))


def dual_closed_form_levels(params: ModelParams):
    """Closed-form dual levels for M = 1 and M = 3: -E of
    oracle.dshg_closed_form_levels in descending-E tag order, so ascending
    while the M = 3 levels are real."""
    closed = dshg_closed_form_levels(params)
    tags = ("ground",) if params.M == 1 else ("even_plus", "odd", "even_minus")
    return [-closed[tag] for tag in tags]


def verify_duality() -> list:
    """verify --suite duality: the map against the hyperbolic spectrum, the
    M = 3 closed-form duals and the periodic ODE."""
    broken = 0
    for m in (1, 3, 5, 7, 9):
        params = ModelParams(M=m, zeta=math.sqrt(0.01))
        base = tuple(qes_spectrum(params).energies)
        manual = tuple(-e for e in reversed(base))
        involution = tuple(-e for e in reversed(manual))
        broken += tuple(dual_spectrum(params).energies) != manual or involution != base
    worst = 0.0
    for z2 in (0.0, 0.01, 0.1, 0.24):
        params = ModelParams(M=3, zeta=math.sqrt(z2))
        closed = sorted(dual_closed_form_levels(params), key=lambda x: (x.real, x.imag))
        for a, b in zip(dual_spectrum(params).energies, closed):
            worst = max(worst, abs(a - b))
    worst_res = 0.0
    for params in (ModelParams(M=1, zeta=0.2), ModelParams(M=3, zeta=math.sqrt(0.1))):
        for tag, E in dshg_closed_form_levels(params).items():
            worst_res = max(worst_res, ode_residual_dsg(params, -E, tag))
    return [
        _check("duality.negation_reversal", broken, 0, "exact float equality and involution, M in 1,3,5,7,9"),
        _check("duality.closed_form_m3", worst, _CLOSED_FORM_TOL, f"max_error={worst:.3e}"),
        _check(
            "duality.ode_residual",
            worst_res,
            _ODE_RESIDUAL_TOL,
            f"max_residual={worst_res:.3e} on 50-point grids",
        ),
    ]
