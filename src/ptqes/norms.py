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

Because the support points are the zeros of R_M, that system has the
closed-form solution (Christoffel numbers; Golub & Welsch, Math. Comp. 1969)

    omega_k = 1 / sum_{n<M} R_n(E_k)^2 / gamma_n,

with R_n(E_k) run by the recursion at E_k (recursion.family_values, never
through expanded coefficients) and E_k the levels of spectra.qes_spectrum.
For odd M below the critical coupling the levels are exactly real, and so
are the weights.

The complex P and Q families have as norms the products of their own
recursion tails (pq_norms); those are genuinely complex and are exposed for
inspection only.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, _check, k_index
from .recursion import family_norms, family_values
from .spectra import qes_spectrum

# Weights are refused when the rounding of their support points can move
# them by more than this fraction of the largest weight.
WEIGHT_RTOL = 1e-8

_EPS = float(np.finfo(float).eps)

# verify_norms bounds: distance of the Gram matrix from diag(gamma), relative
# to 1 + max |gamma_n|, and the largest weight imaginary part, relative to
# the largest weight.
_GRAM_TOL = 1e-9
_WEIGHT_IMAG_TOL = 1e-9


class DegenerateSpectrumError(RuntimeError):
    """Weights refused: support points too close to resolve them to
    WEIGHT_RTOL of the largest weight."""


def norm(n: int, params: ModelParams) -> float:
    """Gram diagonal gamma_n = prod_{i=1..n} a_i (1 at n = 0, 0 for n >= M)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return family_norms("R", params, n + 1)[n]


@dataclass(frozen=True)
class WeightTable:
    """Support points, weights and norms of the discrete R functional."""

    params: ModelParams
    energies: tuple
    weights: tuple
    gamma: tuple  # gamma_0 .. gamma_M

    @property
    def max_weight_imag(self) -> float:
        scale = max(abs(w) for w in self.weights)
        return max(abs(w.imag) for w in self.weights) / scale


def weights(params: ModelParams) -> WeightTable:
    """Christoffel weights of the R functional on the M levels.

    A support point off by eps(1 + |E_k|) moves omega_k by about
    |omega_k| times that over the gap delta_k to its nearest neighbour, so
    the weights are refused when that exceeds WEIGHT_RTOL of the largest.
    """
    M = params.M
    support = qes_spectrum(params).energies
    gamma = tuple(family_norms("R", params, M + 1))
    if not all(gamma[:M]):
        raise DegenerateSpectrumError("a Gram diagonal entry vanishes (zeta = 0)")
    gaps = [
        min((abs(E - F) for j, F in enumerate(support) if j != k), default=math.inf)
        for k, E in enumerate(support)
    ]
    if min(gaps) == 0.0:
        raise DegenerateSpectrumError("two support points coincide")
    omega = [1.0 / sum(v * v / h for v, h in zip(family_values("R", params, E, M), gamma)) for E in support]
    scale = max(abs(w) for w in omega)
    for E, w, gap in zip(support, omega, gaps):
        if _EPS * (1.0 + abs(E)) * abs(w) / (gap * scale) > WEIGHT_RTOL:
            raise DegenerateSpectrumError(
                f"support point {E:.12g} is {gap:.1e} from its neighbour: its weight "
                f"cannot be resolved to {WEIGHT_RTOL:.0e} of the largest"
            )
    return WeightTable(params=params, energies=support, weights=tuple(omega), gamma=gamma)


def gram_matrix(table: WeightTable) -> np.ndarray:
    """G[i, j] = sum_k omega_k R_i(E_k) R_j(E_k) for i, j < M."""
    # vals[k, j] = R_j(E_k)
    vals = np.array(
        [family_values("R", table.params, E, table.params.M) for E in table.energies],
        dtype=complex,
    )
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
    """verify --suite norms on M in {3, 5} x zeta^2 in {0.005, 0.01, 0.02}."""
    wrong_ends = 0
    wrong_signs = 0
    worst_gram = 0.0
    worst_imag = 0.0
    for m in (3, 5):
        for z2 in (0.005, 0.01, 0.02):
            params = ModelParams(M=m, zeta=math.sqrt(z2))
            table = weights(params)
            wrong_ends += (table.gamma[0] != 1.0) + (table.gamma[m] != 0.0)
            G = gram_matrix(table)
            wrong_signs += sum(int((-1) ** n * G[n, n].real <= 0.0) for n in range(1, m))
            target = np.diag(table.gamma[:m]).astype(complex)
            scale = 1.0 + max(abs(g) for g in table.gamma)
            worst_gram = max(worst_gram, float(np.max(np.abs(G - target))) / scale)
            worst_imag = max(worst_imag, table.max_weight_imag)
    return [
        _check("norms.gamma_endpoints", wrong_ends, 0, "gamma_0 == 1 and gamma_M == 0 exactly"),
        _check(
            "norms.gram_identity",
            worst_gram,
            _GRAM_TOL,
            f"max_error={worst_gram:.3e} (M in 3,5; zeta^2 in 0.005,0.01,0.02)",
        ),
        _check("norms.weight_reality", worst_imag, _WEIGHT_IMAG_TOL, f"max_rel_imag={worst_imag:.3e}"),
        _check(
            "norms.sign_pattern",
            wrong_signs,
            0,
            f"wrong_signs={wrong_signs}: G_nn has the sign (-1)^n for 0 < n < M",
        ),
    ]
