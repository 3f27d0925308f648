"""Anti-isospectral map between the hyperbolic model and its periodic dual.

The substitution x -> i*theta sends V(x) = -(zeta*cosh(2x) - i*M)^2 to
V(theta) = (zeta*cos(2*theta) - i*M)^2 and negates the spectrum: with the
hyperbolic levels E_0 <= ... <= E_{M-1}, the dual levels are

    Ehat_k = -E_{M-1-k},

again ascending, and a hyperbolic eigenfunction psi(x) gives the dual one
psi(i*theta).  This map is the only route to the periodic model: its levels
and closed forms are those of the hyperbolic model, negated, one coupling at
a time in dual_spectrum (from spectra.level_rows) or as one stacked table in
dual_level_arrays (from spectra.level_arrays, which the CLI reads).  A level
is negated as 0j - E, exactly as -E but with a zero part +0, so a real
level's Ehat has Im +0.  Applying the map twice is the identity on the level
multiset, exactly, since float subtraction from zero is exact.  Only the
closed-form checks import the oracle module, so the dual levels load the
same modules as the hyperbolic ones.
"""

import math
from dataclasses import dataclass

from .model import ModelParams, _check, k_index
from .spectra import level_arrays, level_rows, qes_spectrum

# verify_duality bounds: the M = 3 closed-form dual levels, absolute, and the
# periodic ODE residual of the mapped closed forms.
_CLOSED_FORM_TOL = 1e-12
_ODE_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True, init=False)
class DualLevel:
    """One dual level; its __init__ fills __dict__ as ModelParams' does."""

    Ehat: complex
    source_index: int
    label: str
    is_real: bool

    def __init__(self, Ehat: complex, source_index: int, label: str, is_real: bool):
        fields = self.__dict__
        fields["Ehat"] = Ehat
        fields["source_index"] = source_index
        fields["label"] = label
        fields["is_real"] = is_real


@dataclass(frozen=True, init=False)
class DualSpectrum:
    params: ModelParams
    levels: tuple

    def __init__(self, params: ModelParams, levels: tuple):
        fields = self.__dict__
        fields["params"] = params
        fields["levels"] = levels

    @property
    def energies(self):
        return tuple(lvl.Ehat for lvl in self.levels)


def dual_level_arrays(M: int, zetas):
    """spectra.level_arrays mapped as dual_spectrum maps level_rows: each
    coupling's row reversed and negated as 0j - E; odd M only."""
    k_index(M)
    E, labels, real = level_arrays(M, zetas)
    return 0j - E[:, ::-1], labels[:, ::-1], real[:, ::-1]


def dual_spectrum(params: ModelParams) -> DualSpectrum:
    """Periodic-model levels Ehat_k = -E_{M-1-k} of spectra.level_rows,
    ascending; odd M only.  Negation keeps a level's reality, so is_real is
    the flag of E_{M-1-k} as level_rows decided it."""
    k_index(params.M)
    last = params.M - 1
    levels = tuple(
        DualLevel(0j - E, last - k, label, real)
        for k, (E, label, real) in enumerate(reversed(level_rows(params.M, params.zeta)))
    )
    return DualSpectrum(params=params, levels=levels)


def dual_closed_form_levels(params: ModelParams):
    """Closed-form dual levels for M = 1 and M = 3: 0j - E of
    oracle.dshg_closed_form_levels in tag order, [-E_ground] or
    [-E_even_plus, -E_odd, -E_even_minus].  That order is not ascending
    (at zeta^2 = 0.01 it is -8.9496, -4.99, -5.0304), so callers sort.
    Each is complex, and a real one has Im +0, as in dual_spectrum."""
    from .oracle import dshg_closed_form_levels

    closed = dshg_closed_form_levels(params)
    tags = ("ground",) if params.M == 1 else ("even_plus", "odd", "even_minus")
    return [0j - closed[tag] for tag in tags]


def verify_duality() -> list:
    """verify --suite duality: the map against the hyperbolic spectrum, the
    M = 3 closed-form duals and the periodic ODE."""
    from .oracle import dshg_closed_form_levels, ode_residual_dsg

    broken = 0
    for m in (1, 3, 5, 7, 9):
        params = ModelParams(M=m, zeta=math.sqrt(0.01))
        # repr tells a -0 part from +0, which == does not; 0j - E never writes -0
        manual = [repr(0j - e) for e in reversed(qes_spectrum(params).energies)]
        broken += list(map(repr, dual_spectrum(params).energies)) != manual
    errors, residuals = [], []  # (value, cell) pairs
    for z2 in (0.0, 0.01, 0.1, 0.24):
        params = ModelParams(M=3, zeta=math.sqrt(z2))
        closed = sorted(dual_closed_form_levels(params), key=lambda x: (x.real, x.imag))
        for k, (a, b) in enumerate(zip(dual_spectrum(params).energies, closed)):
            errors.append((abs(a - b), f"zeta2={z2:g} level {k}"))
    for params in (ModelParams(M=1, zeta=0.2), ModelParams(M=3, zeta=math.sqrt(0.1))):
        for tag, E in dshg_closed_form_levels(params).items():
            residuals.append((ode_residual_dsg(params, -E, tag), f"M={params.M} {tag}"))
    return [
        _check("duality.negation_reversal", broken, 0, "exact float equality, M in 1,3,5,7,9"),
        _check("duality.closed_form_m3", errors, _CLOSED_FORM_TOL, "max_error={value:.3e}"),
        _check("duality.ode_residual", residuals, _ODE_RESIDUAL_TOL, "max_residual={value:.3e} on 50-point grids"),
    ]
