"""Discrete weights and norms of the weakly orthogonal R family.

The R polynomials are orthogonal with respect to a discrete functional
supported on the M roots of R_M.  The weights omega_k are fixed by

    sum_k omega_k R_j(E_k) = delta_{j0},      j = 0 .. M-1,

and the induced Gram form is then diagonal,

    sum_k omega_k R_i(E_k) R_j(E_k) = gamma_i delta_{ij},
    gamma_n = prod_{i=1..n} a_i,   gamma_0 = 1,   gamma_n = 0 for n >= M,

the products of the recursion tails (recursion.family_norms).

Each a_i is negative for 0 < i < M once zeta != 0, so the nonzero norms
alternate: gamma_n has the sign (-1)^n, positive at even index and negative
at odd index.  verify_norms checks that sign on the Gram diagonal built
from the weights.

The support points are the zeros of R_M, the eigenvalues of its Jacobi
matrix, so the weights come from eigenvectors (Golub & Welsch, Math. Comp.
23 (1969) 221).  spectra._eig solves each balanced sector block with
vectors and hands over, per level in level_rows' order, the weight omega
and the condition number kappa = 1 / |x^T S x|, S = diag((-1)^n), of its
unit eigenvector x; the sector layout, the fold and the even-M conjugate
rule live there alone.  Each
sector is its own block, so an E_P level 1e-36 from an E_Q level disturbs
neither weight.  Below the critical coupling the odd-M weights are exactly
real.
A WeightTable holds the support points, the weights and the norms gamma_0
.. gamma_M (family_norms).  gram_matrix runs the R recursion at each support
point itself, so the Gram identity checks the eigenvector weights against
values from an independent route.

The complex P and Q families have as norms the products of their own
recursion tails (pq_norms); those are genuinely complex and are exposed for
inspection only.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, _check, _rank, k_index
from .recursion import _values, family_norms, step_table
from .spectra import _EPS, _eig

# Weights are refused when rounding can move them by more than this
# fraction of the largest weight, or when their sum is further than this
# from 1.
WEIGHT_RTOL = 1e-8

# verify_norms bound on the distance of the Gram matrix from diag(gamma),
# relative to 1 + max |gamma_n|.
_GRAM_TOL = 1e-9


class DegenerateSpectrumError(RuntimeError):
    """Weights refused: a level too ill-conditioned to resolve its weight to
    WEIGHT_RTOL of the largest weight, or zeta = 0, where the Gram norms
    vanish."""


def norm(n: int, params: ModelParams) -> float:
    """Gram diagonal gamma_n = prod_{i=1..n} a_i (1 at n = 0, 0 for n >= M)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return family_norms("R", params, n + 1)[n]


@dataclass(frozen=True, init=False)
class WeightTable:
    """Support points, weights and norms of the discrete R functional; its
    __init__ fills __dict__ as ModelParams' does."""

    params: ModelParams
    energies: tuple
    weights: tuple
    gamma: tuple  # gamma_0 .. gamma_M

    def __init__(self, params: ModelParams, energies: tuple, weights: tuple, gamma: tuple):
        self.__dict__.update(params=params, energies=energies, weights=weights, gamma=gamma)

    @property
    def max_weight_imag(self) -> float:
        scale = max(abs(w) for w in self.weights)
        return max((abs(w.imag) for w in self.weights), key=_rank) / scale


def weights(params: ModelParams) -> WeightTable:
    """Golub-Welsch weights of the R functional on the M levels, as
    spectra._eig gives them with their support points (level_rows' bits).
    DegenerateSpectrumError, naming zeta^2, at zeta == 0, where every a_n
    is exactly 0 and so is every Gram norm from gamma_1 on; or when
    eps kappa^2 > WEIGHT_RTOL for the condition number _eig gives some
    level, kappa = 1 / |x^T S x| of its unit eigenvector x, as at a merger;
    the message names the first such level in level order.  At zeta != 0
    gamma_n = a_1 ... a_n is returned as its correctly rounded value, which
    is 0.0 or subnormal where the product underflows (M = 3 below zeta of
    about 4e-82, M = 41 below 2.9e-6): kappa and the weights' sum decide
    there as everywhere.  ValueError, naming zeta^2, when the weights
    miss their own j = 0 equation, sum_k omega_k = 1, by more than WEIGHT_RTOL."""
    M = params.M
    gamma = tuple(family_norms("R", params, M + 1))
    if not params.zeta and M > 1:
        raise DegenerateSpectrumError(f"a Gram diagonal entry vanishes at zeta^2={params.zeta2!r}: zeta = 0")
    support, labels, omega, kappas = zip(*_eig(M, params.zeta))
    for label, kappa in zip(labels, kappas):
        if not _EPS * kappa * kappa <= WEIGHT_RTOL:  # NaN fails too
            raise DegenerateSpectrumError(
                f"an {label} level has condition number {kappa:.1e} at zeta^2={params.zeta2!r}: "
                f"its weight cannot be resolved to {WEIGHT_RTOL:.0e} of the largest"
            )
    total = sum(omega)
    if not abs(total - 1.0) <= WEIGHT_RTOL:
        raise ValueError(f"the weights sum to {total:.10g}, not 1 within {WEIGHT_RTOL:.0e}, at zeta^2={params.zeta2!r}")
    return WeightTable(params=params, energies=support, weights=omega, gamma=gamma)


def gram_matrix(table: WeightTable) -> np.ndarray:
    """G[i, j] = sum_k omega_k R_i(E_k) R_j(E_k) for i, j < M, the values
    R_n(E_k) run by one R step table at each support point, independent of
    the eigenvectors that gave the weights.

    The sum cancels: max|G - diag gamma| / (1 + max|gamma|) measures 5.1e-8
    at M = 7, 2.0e-3 at M = 9, 8.5e26 at M = 15 and 4.5e63 at M = 21 (all at
    M zeta = 1), so G checks the weights only up to M of about 7;
    verify_norms reads it on M in {3, 5}."""
    steps = step_table("R", table.params, table.params.M)
    vals = np.array([_values(steps, E) for E in table.energies], dtype=complex)
    w = np.array(table.weights, dtype=complex)
    return vals.T @ (w[:, None] * vals)


def pq_norms(params: ModelParams, family: str):
    """Complex Gram diagonals of the truncating P or Q family: the products
    of its recursion tails, as family_norms gives them for R.  [1] when the
    family has no member (Q at M = 1)."""
    if family not in ("P", "Q"):
        raise ValueError(f"family must be 'P' or 'Q', got {family!r}")
    return family_norms(family, params, k_index(params.M) + (family == "P"))


def verify_norms() -> list:
    """verify --suite norms on M in {3, 5} x zeta^2 in {0.005, 0.01, 0.02},
    and for weight reality and gamma also on M in {7, 9, 21, 41} x M zeta in
    {0.5, 1, 1.4}.  Both grids lie below every critical coupling
    (M zeta_c > 1.4688), where each weight's imaginary part is exactly 0."""
    gram_grid = [(m, math.sqrt(z2)) for m in (3, 5) for z2 in (0.005, 0.01, 0.02)]
    wide_grid = [(m, g / m) for m in (7, 9, 21, 41) for g in (0.5, 1.0, 1.4)]
    wrong_ends = 0
    wrong_signs = 0
    gram, imag = [], []  # (value, cell) pairs
    for m, zeta in gram_grid + wide_grid:
        table = weights(ModelParams(M=m, zeta=zeta))
        where = f"M={m} zeta2={zeta * zeta:.6g}"
        wrong_ends += (table.gamma[0] != 1.0) + (table.gamma[m] != 0.0)
        imag.append((table.max_weight_imag, where))
        if (m, zeta) in gram_grid:
            G = gram_matrix(table)
            wrong_signs += sum(int((-1) ** n * G[n, n].real <= 0.0) for n in range(1, m))
            target = np.diag(table.gamma[:m]).astype(complex)
            scale = 1.0 + max(abs(g) for g in table.gamma)
            gram.append((float(np.max(np.abs(G - target))) / scale, where))
    return [
        _check("norms.gamma_endpoints", wrong_ends, 0, "gamma_0 == 1 and gamma_M == 0 exactly"),
        _check("norms.gram_identity", gram, _GRAM_TOL, "max_error={value:.3e} (M in 3,5; zeta^2 in 0.005,0.01,0.02)"),
        _check("norms.weight_reality", imag, 0, "max_rel_imag={value:.3e} (M in 3,5,7,9,21,41)"),
        _check("norms.sign_pattern", wrong_signs, 0, "wrong_signs={value}: G_nn has the sign (-1)^n for 0 < n < M"),
    ]
