"""Quasi-exactly-solvable spectra of two PT-invariant complex potentials.

The hyperbolic model -(zeta*cosh(2x) - i*M)^2 supports M bound states in
closed form when M is a positive integer; the periodic model
(zeta*cos(2theta) - i*M)^2 carries the sign-flipped mirror of that spectrum.
This package builds the associated orthogonal-polynomial recursions, solves
for the solvable levels, locates the couplings where level pairs merge and
turn complex, and cross-checks everything against an independent
finite-dimensional gauge rotation of the Hamiltonian.

`import ptqes` loads no submodule.  A public name, or a submodule name,
imports its submodule the first time it is read (PEP 562), and the name is
then bound in the package, so a later read is a plain attribute lookup.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it defines, in __all__ order.
_PUBLIC = {
    "model": ("ModelParams", "k_index", "periodic_potential", "potential", "pt_reflection"),
    "polyengine": ("EnergyPolynomial", "evaluate", "matching_distance", "mul", "taylor_shift"),
    "recursion": ("build_P", "build_Q", "build_R", "build_bar", "recurrence_a", "recurrence_b"),
    "spectra": (
        "CriticalCoupling",
        "QesLevel",
        "QesSpectrum",
        "check_factorization",
        "critical_coupling",
        "critical_polynomials",
        "degenerate_pairs",
        "even_M_pairing",
        "qes_spectrum",
    ),
    "norms": ("DegenerateSpectrumError", "WeightTable", "gram_matrix", "norm", "pq_norms", "weights"),
    "duality": ("DualLevel", "DualSpectrum", "dual_closed_form_levels", "dual_spectrum"),
    "oracle": (
        "dshg_closed_form",
        "dshg_closed_form_levels",
        "gauge_char_poly",
        "gauge_matrix",
        "gauge_matrix_eigs",
        "ode_residual",
        "ode_residual_dsg",
        "ode_residual_dshg",
        "reproduce_tables",
        "wedge_decay_probe",
    ),
    "cli": (),
}

_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name in _PUBLIC:
        # importing a submodule binds it in the package
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_PUBLIC, *__all__})
