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

from dataclasses import dataclass

from .model import ModelParams, k_index
from .oracle import dshg_closed_form_levels
from .spectra import qes_spectrum


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
