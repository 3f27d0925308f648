"""Independent checks: algebraic twin, direct ODE residuals, golden tables.

Three routes that must agree with the recursion pipeline without sharing
code with it:

* gauge_matrix builds the M x M tridiagonal representation of the gauged
  Hamiltonian on the monomial basis {z^j}; its eigenvalues are the QES
  levels and its characteristic polynomial is R_M.
* ode_residual_* plug closed-form eigenfunctions into the Schroedinger
  equation with a central finite difference, so no analytic derivative of
  the implementation under test is reused.  The M = 1 and M = 3 closed
  forms are one table, each level written beside its eigenfunction;
  dshg_closed_form_levels and dshg_closed_form are its two views.
* reproduce_tables compares each row of the golden tables bundled as
  ptqes/data/golden_tables.csv against its own computed spectrum.

verify_tables and verify_gauge are the `tables` and `oracle` suites of
`ptqes verify`; each check's bound is a constant beside the code.
"""

import cmath
import csv
import math
from dataclasses import dataclass, fields
from importlib import resources

import numpy as np

from .model import ModelParams, _check, _rank, periodic_potential, potential
from .polyengine import EnergyPolynomial, backward_error, matching_distance
from .recursion import build_R
from .spectra import _coeff_distance, qes_spectrum

_CELL_TOL = 1e-6


# ---------------------------------------------------------------------------
# Algebraic twin


def gauge_matrix(params: ModelParams) -> np.ndarray:
    """Tridiagonal action of the gauged Hamiltonian on {z^j, j < M}, read-only.

    With j measured from the spin label (M - 1)/2:
      diagonal       -4*(j - (M-1)/2)^2 + M^2 - zeta^2
      raising part   z^j -> -2i*zeta*(j - (M-1)) z^{j+1}
      lowering part  z^j ->  2i*zeta*j           z^{j-1}
    """
    M, zeta = params.M, params.zeta
    A = np.zeros((M, M), dtype=complex)
    for j in range(M):
        A[j, j] = -4.0 * (j - (M - 1) / 2.0) ** 2 + M * M - params.zeta2
    for j in range(M - 1):
        A[j + 1, j] = -2j * zeta * (j - (M - 1))
    for j in range(1, M):
        A[j - 1, j] = 2j * zeta * j
    A.setflags(write=False)
    return A


def gauge_matrix_eigs(params: ModelParams) -> list:
    """Eigenvalues of the gauge matrix, sorted by (Re, Im)."""
    eigs = np.linalg.eigvals(gauge_matrix(params))
    out = [complex(z) for z in eigs]
    out.sort(key=lambda z: (z.real, z.imag))
    return out


def gauge_char_poly(params: ModelParams) -> EnergyPolynomial:
    """Characteristic polynomial of the gauge matrix, monic in E."""
    desc = np.poly(gauge_matrix(params))
    return EnergyPolynomial(tuple(desc[::-1]))


# Levels from qes_spectrum agree with the gauge eigenvalues to this distance.
_ROOT_MATCH_TOL = 1e-11

# Backward error of R_M at the gauge eigenvalues, relative to its coefficients.
_R_RESIDUAL_TOL = 1e-12

# Largest coefficient gap between the gauge characteristic polynomial and
# R_M, relative to R_M's largest coefficient; checked for M <= 6.
_CHAR_POLY_RTOL = 1e-12


# ---------------------------------------------------------------------------
# Direct ODE residuals


# Step of the central difference in ode_residual.
_FD_STEP = 1e-4


def ode_residual(psi, pot, E: complex, points) -> float:
    """max |-psi'' + V*psi - E*psi| / max |psi| over the sample points.

    psi'' comes from a central difference with step _FD_STEP along the real
    direction, deliberately independent of any analytic derivative.
    """
    h = _FD_STEP
    pts = [complex(x) for x in points]
    if not pts:
        raise ValueError("need at least one sample point")
    amp = max(abs(psi(x)) for x in pts)
    if amp <= 1e-300:
        raise ValueError("eigenfunction vanishes at every sample point")
    second = [(psi(x + h) - 2.0 * psi(x) + psi(x - h)) / (h * h) for x in pts]
    return max((abs(-d2 + pot(x) * psi(x) - E * psi(x)) for x, d2 in zip(pts, second)), key=_rank) / amp


def _closed_forms(params: ModelParams) -> dict:
    """{tag: (E, psi)}: each closed-form hyperbolic level beside its
    eigenfunction psi, a callable of complex x; M = 1 and M = 3 only."""
    zeta, z2 = params.zeta, params.zeta2

    def gauge(x):
        return cmath.exp(0.5j * zeta * cmath.cosh(2.0 * x))

    if params.M == 1:
        return {"ground": (1.0 - z2, gauge)}
    if params.M == 3:
        r = cmath.sqrt(1.0 - 4.0 * z2)
        return {
            "odd": (5.0 - z2, lambda x: cmath.sinh(2.0 * x) * gauge(x)),
            "even_minus": (7.0 - z2 - 2.0 * r, lambda x: (-2j * zeta + (r + 1.0) * cmath.cosh(2.0 * x)) * gauge(x)),
            "even_plus": (7.0 - z2 + 2.0 * r, lambda x: (-2j * zeta + (1.0 - r) * cmath.cosh(2.0 * x)) * gauge(x)),
        }
    raise ValueError(f"closed forms available for M in (1, 3) only, got M={params.M}")


def dshg_closed_form_levels(params: ModelParams) -> dict:
    """Closed-form hyperbolic levels for M = 1 and M = 3, keyed by tag."""
    return {tag: E for tag, (E, _) in _closed_forms(params).items()}


def dshg_closed_form(params: ModelParams, tag: str):
    """Closed-form hyperbolic eigenfunction as a callable of complex x.

    Tags pair with dshg_closed_form_levels: "ground" (M = 1), and for
    M = 3 "odd" (the sinh-sector state at E = 5 - zeta^2), "even_minus"
    and "even_plus" (the two cosh-sector states, lower and upper energy).
    """
    forms = _closed_forms(params)
    if tag not in forms:
        raise ValueError(f"unknown tag {tag!r} for M={params.M}; known: {sorted(forms)}")
    return forms[tag][1]


def default_sample_points():
    """21 points on the segment [-1, 1] - i*pi/4, inside the decay wedges."""
    return [t - 0.25j * math.pi for t in np.linspace(-1.0, 1.0, 21)]


def ode_residual_dshg(params: ModelParams, E: complex, tag: str) -> float:
    """Residual of the hyperbolic equation for the closed form `tag` at E."""
    psi = dshg_closed_form(params, tag)
    return ode_residual(psi, lambda x: potential(x, params), E, default_sample_points())


def ode_residual_dsg(params: ModelParams, Ehat: complex, tag: str) -> float:
    """Residual of the periodic equation for the hyperbolic closed form `tag`
    taken at x = i*theta, against periodic_potential and the dual level Ehat,
    on 50 points of theta in [0, pi]."""
    psi = dshg_closed_form(params, tag)
    pts = np.linspace(0.0, math.pi, 50)
    return ode_residual(lambda t: psi(1j * t), lambda t: periodic_potential(t, params), Ehat, pts)


# ---------------------------------------------------------------------------
# Stokes wedges (M = 1)


# Ascending radii along each probed ray.
_WEDGE_RADII = (0.5, 1.0, 1.5, 2.0, 2.5)


@dataclass(frozen=True)
class WedgeProbe:
    u_sign: int
    v: float
    radii: tuple
    magnitudes: tuple
    decays: bool
    expected_decay: bool

    @property
    def consistent(self) -> bool:
        return self.decays == self.expected_decay


def wedge_decay_probe(params: ModelParams, u_sign: int, v: float) -> WedgeProbe:
    """Sample |psi| for the M = 1 state along the ray u = u_sign * r + i*v,
    r in _WEDGE_RADII.

    |psi| = exp(-(zeta/2) sinh(2u) sin(2v)), so with zeta > 0 the state
    decays exactly when u_sign * sin(2v) > 0; that reproduces the wedges
    -pi < v < -pi/2 (mod pi) for u > 0 and -pi/2 < v < 0 (mod pi) for u < 0.
    """
    if params.M != 1:
        raise ValueError(f"wedge probe needs the M = 1 closed form, got M={params.M}")
    if params.zeta <= 0:
        raise ValueError("wedge probe needs zeta > 0")
    if u_sign not in (1, -1):
        raise ValueError(f"u_sign must be +1 or -1, got {u_sign!r}")
    psi = dshg_closed_form(params, "ground")
    mags = tuple(abs(psi(u_sign * r + 1j * v)) for r in _WEDGE_RADII)
    decays = all(b < a for a, b in zip(mags, mags[1:]))
    expected = u_sign * math.sin(2.0 * v) > 0
    return WedgeProbe(
        u_sign=u_sign,
        v=float(v),
        radii=_WEDGE_RADII,
        magnitudes=mags,
        decays=decays,
        expected_decay=expected,
    )


# ---------------------------------------------------------------------------
# Golden tables


@dataclass(frozen=True)
class GoldenLevel:
    table: str
    M: int
    zeta2: float
    label: str
    rank: int
    energy: float


@dataclass(frozen=True)
class CellComparison(GoldenLevel):
    computed: float
    abs_err: float
    passed: bool


@dataclass(frozen=True)
class TableReport:
    table: str
    cells: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cells)

    @property
    def max_abs_err(self) -> float:
        return max((c.abs_err for c in self.cells), key=_rank)


def load_golden_levels():
    """Golden rows of the bundled ptqes/data/golden_tables.csv, in file order."""
    text = resources.files("ptqes").joinpath("data/golden_tables.csv").read_text()
    columns = fields(GoldenLevel)
    return [GoldenLevel(**{f.name: f.type(row[f.name]) for f in columns}) for row in csv.DictReader(text.splitlines())]


def reproduce_tables(table: str) -> TableReport:
    """Compare computed spectra against one golden table ("I", "II", "III")
    of the bundled file, each row against the spectrum at its own M and
    zeta2, in file order.

    Each cell is a CellComparison: its golden row's fields (table, M,
    zeta2, label, rank, energy), then computed (the real part of level
    `rank` of sector `label` at zeta2), abs_err (|computed level - energy|)
    and passed (abs_err <= 1e-6).  A cell whose level the spectrum lacks
    fails, with computed and abs_err inf."""
    golden = load_golden_levels()
    rows = [g for g in golden if g.table == table]
    if not rows:
        raise ValueError(f"unknown table {table!r}; expected one of {sorted({g.table for g in golden})}")
    cells = []
    for g in rows:
        spectrum = qes_spectrum(ModelParams(M=g.M, zeta=math.sqrt(g.zeta2)))
        levels = [lvl.E for lvl in spectrum.levels if lvl.label == g.label]
        computed = levels[g.rank] if g.rank < len(levels) else math.inf
        err = abs(computed - g.energy)
        cells.append(CellComparison(**vars(g), computed=computed.real, abs_err=err, passed=err <= _CELL_TOL))
    return TableReport(table=table, cells=tuple(cells))


# ---------------------------------------------------------------------------
# Verify suites


def verify_tables() -> list:
    """verify --suite tables: cells of each golden table outside their
    tolerance, bound 0."""
    checks = []
    for name in dict.fromkeys(g.table for g in load_golden_levels()):
        report = reproduce_tables(name)
        checks.append(
            _check(
                f"tables.{name}",
                sum(not c.passed for c in report.cells),
                0,
                f"max_abs_err={report.max_abs_err:.3e} over {len(report.cells)} cells",
            )
        )
    return checks


def verify_gauge() -> list:
    """verify --suite oracle on the fixed grid M = 1..9 x zeta^2 in {0,
    0.005, 0.01, 0.02, 0.025}; the characteristic polynomial is compared on
    its M <= 6 cells.

    The gauge matrix is complex and built from its own formula, so its
    eigenvalues are independent of the real sector blocks behind
    qes_spectrum and of the R_M coefficients.
    """
    res, spec, char = [], [], []  # (value, cell) pairs
    for m in range(1, 10):
        for z2 in (0.0, 0.005, 0.01, 0.02, 0.025):
            params = ModelParams(M=m, zeta=math.sqrt(z2))
            eigs = gauge_matrix_eigs(params)
            where = f"M={m} zeta2={z2:g}"
            r_m = build_R(params, m)[m]
            res += [(backward_error(r_m, z), where) for z in eigs]
            if m <= 6:
                char.append((_coeff_distance(r_m, gauge_char_poly(params)), where))
            spec.append((matching_distance(qes_spectrum(params).energies, eigs), where))
    at = " at {cell} (bound {bound:.1e})"
    return [
        _check(
            "oracle.R_residual",
            res,
            _R_RESIDUAL_TOL,
            "max_backward_error={value:.3e} of R_M at the gauge eigenvalues" + at,
        ),
        _check("oracle.spectrum_match", spec, _ROOT_MATCH_TOL, "max_distance={value:.3e}" + at),
        _check("oracle.char_poly", char, _CHAR_POLY_RTOL, "max_rel_coeff_err={value:.3e}" + at),
    ]
