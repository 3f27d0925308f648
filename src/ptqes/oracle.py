"""Independent checks: algebraic twin, direct ODE residuals, golden tables.

Three routes that must agree with the recursion pipeline without sharing
code with it:

* gauge_matrix builds the M x M tridiagonal representation of the gauged
  Hamiltonian on the monomial basis {z^j}; its eigenvalues are the QES
  levels and its characteristic polynomial is R_M.
* ode_residual_* plug closed-form eigenfunctions into the Schroedinger
  equation with a central finite difference, so no analytic derivative of
  the implementation under test is reused.
* reproduce_tables compares computed spectra against an embedded golden
  data set (override path via the QES_GOLDEN_PATH environment variable).

verify_tables and verify_gauge are the `tables` and `oracle` suites of
`ptqes verify`; each check's bound is a constant beside the code.
"""

import cmath
import csv
import io
import math
import os
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .model import ModelParams, _check, periodic_potential, potential
from .polyengine import EnergyPolynomial, backward_error, matching_distance
from .recursion import build_R
from .spectra import qes_spectrum

GOLDEN_PATH_ENV = "QES_GOLDEN_PATH"

_DEFAULT_CELL_TOL = 1e-6
# One golden cell is printed with fewer digits than the rest and carries its
# own tolerance.
_SHORT_CELL_TOL = {("III", 0.025, "E_Q", 3): 5e-7}

_TABLE_M = {"I": 5, "II": 7, "III": 9}


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
    return EnergyPolynomial(tuple(desc[::-1]), variable="E")


# Levels from qes_spectrum agree with the gauge eigenvalues to this distance.
ROOT_MATCH_TOL = 1e-8

# Backward error of R_M at the gauge eigenvalues, relative to its coefficients.
_R_RESIDUAL_TOL = 1e-12

# Largest coefficient gap between the gauge characteristic polynomial and
# R_M, relative to R_M's largest coefficient; checked for M <= 6.
_CHAR_POLY_RTOL = 1e-8


# ---------------------------------------------------------------------------
# Direct ODE residuals


def ode_residual(psi, pot, E: complex, points, h: float = 1e-4) -> float:
    """max |-psi'' + V*psi - E*psi| / max |psi| over the sample points.

    psi'' comes from a central difference with step h along the real
    direction, deliberately independent of any analytic derivative.
    """
    if h <= 0:
        raise ValueError(f"h must be positive, got {h!r}")
    pts = [complex(x) for x in points]
    if not pts:
        raise ValueError("need at least one sample point")
    amp = max(abs(psi(x)) for x in pts)
    if amp <= 1e-300:
        raise ValueError("eigenfunction vanishes at every sample point")
    worst = 0.0
    for x in pts:
        second = (psi(x + h) - 2.0 * psi(x) + psi(x - h)) / (h * h)
        worst = max(worst, abs(-second + pot(x) * psi(x) - E * psi(x)))
    return worst / amp


def dshg_closed_form_levels(params: ModelParams) -> dict:
    """Closed-form hyperbolic levels for M = 1 and M = 3, keyed by tag."""
    z2 = params.zeta2
    if params.M == 1:
        return {"ground": 1.0 - z2}
    if params.M == 3:
        r = cmath.sqrt(1.0 - 4.0 * z2)
        return {
            "odd": 5.0 - z2,
            "even_minus": 7.0 - z2 - 2.0 * r,
            "even_plus": 7.0 - z2 + 2.0 * r,
        }
    raise ValueError(f"closed forms available for M in (1, 3) only, got M={params.M}")


def dshg_closed_form(params: ModelParams, tag: str):
    """Closed-form hyperbolic eigenfunction as a callable of complex x.

    Tags pair with dshg_closed_form_levels: "ground" (M = 1), and for
    M = 3 "odd" (the sinh-sector state at E = 5 - zeta^2), "even_minus"
    and "even_plus" (the two cosh-sector states, lower and upper energy).
    """
    zeta = params.zeta
    levels = dshg_closed_form_levels(params)
    if tag not in levels:
        raise ValueError(f"unknown tag {tag!r} for M={params.M}; known: {sorted(levels)}")

    def gauge(x):
        return cmath.exp(0.5j * zeta * cmath.cosh(2.0 * x))

    if tag == "ground":
        return gauge
    if tag == "odd":
        return lambda x: cmath.sinh(2.0 * x) * gauge(x)
    r = cmath.sqrt(1.0 - 4.0 * params.zeta2)
    if tag == "even_minus":
        # partner of E = 7 - zeta^2 - 2r
        return lambda x: (-2j * zeta + (r + 1.0) * cmath.cosh(2.0 * x)) * gauge(x)
    # partner of E = 7 - zeta^2 + 2r
    return lambda x: (-2j * zeta + (1.0 - r) * cmath.cosh(2.0 * x)) * gauge(x)


def default_sample_points(count: int = 21):
    """Points on the segment [-1, 1] - i*pi/4, inside the decay wedges."""
    return [t - 0.25j * math.pi for t in np.linspace(-1.0, 1.0, count)]


def ode_residual_dshg(params: ModelParams, E: complex, tag: str, points=None, h: float = 1e-4) -> float:
    psi = dshg_closed_form(params, tag)
    pts = default_sample_points() if points is None else points
    return ode_residual(psi, lambda x: potential(x, params), E, pts, h=h)


def ode_residual_dsg(params: ModelParams, Ehat: complex, tag: str, thetas=None, h: float = 1e-4) -> float:
    """Residual of the periodic equation for the hyperbolic closed form `tag`
    taken at x = i*theta, against periodic_potential and the dual level Ehat."""
    psi = dshg_closed_form(params, tag)
    pts = list(np.linspace(0.0, math.pi, 50)) if thetas is None else thetas
    return ode_residual(lambda t: psi(1j * t), lambda t: periodic_potential(t, params), Ehat, pts, h=h)


# ---------------------------------------------------------------------------
# Stokes wedges (M = 1)


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


def wedge_decay_probe(params: ModelParams, u_sign: int, v: float, radii=None) -> WedgeProbe:
    """Sample |psi| for the M = 1 state along the ray u = u_sign * r + i*v.

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
    rr = tuple(sorted(float(r) for r in (radii if radii is not None else (0.5, 1.0, 1.5, 2.0, 2.5))))
    if not rr or rr[0] <= 0:
        raise ValueError("radii must be positive")
    psi = dshg_closed_form(params, "ground")
    mags = tuple(abs(psi(u_sign * r + 1j * v)) for r in rr)
    decays = all(b < a for a, b in zip(mags, mags[1:]))
    expected = u_sign * math.sin(2.0 * v) > 0
    return WedgeProbe(
        u_sign=u_sign,
        v=float(v),
        radii=rr,
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
class CellComparison:
    M: int
    zeta2: float
    label: str
    rank: int
    expected: float
    computed: float
    abs_err: float
    tol: float
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
        return max(c.abs_err for c in self.cells)


def load_golden_levels(path: str = None):
    """Golden rows from an explicit path, QES_GOLDEN_PATH, or package data."""
    if path is None:
        path = os.environ.get(GOLDEN_PATH_ENV)
    if path is not None:
        with open(path, newline="") as fh:
            return _parse_golden(fh)
    text = resources.files("ptqes").joinpath("data/golden_tables.csv").read_text()
    return _parse_golden(io.StringIO(text))


def _parse_golden(fh):
    out = []
    for row in csv.DictReader(fh):
        out.append(
            GoldenLevel(
                table=row["table"],
                M=int(row["M"]),
                zeta2=float(row["zeta2"]),
                label=row["label"],
                rank=int(row["rank"]),
                energy=float(row["energy"]),
            )
        )
    if not out:
        raise ValueError("golden table is empty")
    return out


def reproduce_tables(table: str, golden=None) -> TableReport:
    """Compare computed spectra against one golden table ("I", "II", "III")."""
    if table not in _TABLE_M:
        raise ValueError(f"unknown table {table!r}; expected one of {sorted(_TABLE_M)}")
    rows = [g for g in (golden if golden is not None else load_golden_levels()) if g.table == table]
    if not rows:
        raise ValueError(f"golden data has no rows for table {table}")
    cells = []
    for zeta2 in sorted({g.zeta2 for g in rows}):
        spectrum = qes_spectrum(ModelParams(M=_TABLE_M[table], zeta=math.sqrt(zeta2)))
        by_label = {}
        for lvl in spectrum.levels:
            by_label.setdefault(lvl.label, []).append(lvl.E)
        for g in (g for g in rows if g.zeta2 == zeta2):
            computed = by_label[g.label][g.rank]
            err = abs(computed - g.energy)
            tol = _SHORT_CELL_TOL.get((g.table, g.zeta2, g.label, g.rank), _DEFAULT_CELL_TOL)
            cells.append(
                CellComparison(
                    M=g.M,
                    zeta2=g.zeta2,
                    label=g.label,
                    rank=g.rank,
                    expected=g.energy,
                    computed=computed.real,
                    abs_err=err,
                    tol=tol,
                    passed=err <= tol,
                )
            )
    return TableReport(table=table, cells=tuple(cells))



# ---------------------------------------------------------------------------
# Verify suites


def verify_tables() -> list:
    """verify --suite tables: cells of each golden table outside their
    tolerance, bound 0."""
    checks = []
    for name in ("I", "II", "III"):
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


def verify_gauge(M: int = None, zeta2: float = None) -> list:
    """verify --suite oracle on M = 1..9 x zeta^2 in {0, 0.005, 0.01, 0.02,
    0.025}, or on the one M or zeta^2 given.

    The gauge matrix is complex and built from its own formula, so its
    eigenvalues are independent of the real sector blocks behind
    qes_spectrum and of the R_M coefficients.
    """
    ms = [M] if M is not None else list(range(1, 10))
    z2s = [zeta2] if zeta2 is not None else [0.0, 0.005, 0.01, 0.02, 0.025]
    worst_res = (0.0, "-")
    worst_spec = (0.0, "-")
    worst_char = (0.0, "-")
    char_cells = 0
    for m in ms:
        for z2 in z2s:
            params = ModelParams(M=m, zeta=math.sqrt(z2))
            eigs = gauge_matrix_eigs(params)
            where = f"M={m} zeta2={z2:g}"
            r_m = build_R(params, m)[m]
            res = max(backward_error(r_m, z) for z in eigs)
            if res > worst_res[0]:
                worst_res = (res, where)
            if m <= 6:
                cp = gauge_char_poly(params)
                scale = max(abs(c) for c in r_m.coeffs)
                dc = max(abs(a - b) for a, b in zip(cp.coeffs, r_m.coeffs)) / scale
                char_cells += 1
                if dc > worst_char[0]:
                    worst_char = (dc, where)
            d = matching_distance(qes_spectrum(params).energies, eigs)
            if d > worst_spec[0]:
                worst_spec = (d, where)
    checks = [
        _check(
            "oracle.R_residual",
            worst_res[0],
            _R_RESIDUAL_TOL,
            f"max_backward_error={worst_res[0]:.3e} of R_M at the gauge eigenvalues "
            f"at {worst_res[1]} (bound {_R_RESIDUAL_TOL:.1e})",
        ),
        _check(
            "oracle.spectrum_match",
            worst_spec[0],
            ROOT_MATCH_TOL,
            f"max_distance={worst_spec[0]:.3e} at {worst_spec[1]} (bound {ROOT_MATCH_TOL:.1e})",
        ),
    ]
    if char_cells:
        checks.append(
            _check(
                "oracle.char_poly",
                worst_char[0],
                _CHAR_POLY_RTOL,
                f"max_rel_coeff_err={worst_char[0]:.3e} at {worst_char[1]}",
            )
        )
    return checks
