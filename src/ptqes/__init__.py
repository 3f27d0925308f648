"""Quasi-exactly-solvable spectra of two PT-invariant complex potentials.

The hyperbolic model -(zeta*cosh(2x) - i*M)^2 supports M bound states in
closed form when M is a positive integer; the periodic model
(zeta*cos(2theta) - i*M)^2 carries the sign-flipped mirror of that spectrum.
This package builds the associated orthogonal-polynomial recursions, solves
for the solvable levels, locates the couplings where level pairs merge and
turn complex, and cross-checks everything against an independent
finite-dimensional gauge rotation of the Hamiltonian.
"""

from .model import (
    ModelParams,
    k_index,
    periodic_potential,
    potential,
    pt_reflection,
)
from .polyengine import (
    EnergyPolynomial,
    evaluate,
    matching_distance,
    mul,
    taylor_shift,
)
from .recursion import (
    build_P,
    build_Q,
    build_R,
    build_bar,
    recurrence_a,
    recurrence_b,
)
from .spectra import (
    CriticalCoupling,
    QesLevel,
    QesSpectrum,
    check_factorization,
    critical_coupling,
    critical_polynomials,
    degenerate_pairs,
    even_M_pairing,
    qes_spectrum,
)
from .norms import (
    DegenerateSpectrumError,
    WeightTable,
    gram_matrix,
    norm,
    pq_norms,
    weights,
)
from .duality import (
    DualLevel,
    DualSpectrum,
    dual_closed_form_levels,
    dual_spectrum,
)
from .oracle import (
    dshg_closed_form,
    dshg_closed_form_levels,
    gauge_char_poly,
    gauge_matrix,
    gauge_matrix_eigs,
    ode_residual,
    ode_residual_dsg,
    ode_residual_dshg,
    reproduce_tables,
    wedge_decay_probe,
)

__version__ = "0.1.0"

__all__ = [
    "ModelParams",
    "k_index",
    "periodic_potential",
    "potential",
    "pt_reflection",
    "EnergyPolynomial",
    "evaluate",
    "matching_distance",
    "mul",
    "taylor_shift",
    "build_P",
    "build_Q",
    "build_R",
    "build_bar",
    "recurrence_a",
    "recurrence_b",
    "CriticalCoupling",
    "QesLevel",
    "QesSpectrum",
    "check_factorization",
    "critical_coupling",
    "critical_polynomials",
    "degenerate_pairs",
    "even_M_pairing",
    "qes_spectrum",
    "DegenerateSpectrumError",
    "WeightTable",
    "gram_matrix",
    "norm",
    "pq_norms",
    "weights",
    "DualLevel",
    "DualSpectrum",
    "dual_closed_form_levels",
    "dual_spectrum",
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
    "__version__",
]
