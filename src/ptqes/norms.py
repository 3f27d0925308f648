"""Discrete weights and norms of the weakly orthogonal R family.

The R polynomials are orthogonal with respect to a discrete functional
supported on the M roots of R_M.  The weights omega_k are fixed by

    sum_k omega_k R_j(E_k) = delta_{j0},      j = 0 .. M-1,

and the induced Gram form is then diagonal,

    sum_k omega_k R_i(E_k) R_j(E_k) = gamma_i delta_{ij},
    gamma_n = prod_{i=1..n} a_i,   gamma_0 = 1,   gamma_n = 0 for n >= M,

the products of the recursion tails (recursion.family_norms).

Each a_i is negative for 0 < i < M once zeta != 0, so the nonzero norms
alternate: positive at even index, negative at odd index.  An alternating
variant (-1)^n * prod a_i also circulates for these families; it disagrees
with the Gram diagonal at odd index, and sign_report exposes both so the
discrepancy is visible rather than silently absorbed.

Because the support points are the zeros of R_M, that system has the
closed-form solution (Christoffel numbers; Golub & Welsch, Math. Comp. 1969)

    omega_k = 1 / sum_{n<M} R_n(E_k)^2 / gamma_n,

with R_n(E_k) run by the recursion at E_k (recursion.family_values, never
through expanded coefficients) and E_k the levels of spectra.qes_spectrum.
For odd M below the critical coupling the levels are exactly real, and so
are the weights.

The complex P and Q families admit the same construction on their own
sector levels, with norms the products of their own recursion tails; those
norms and weights are genuinely complex and are exposed for inspection
only.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, k_index
from .recursion import family_norms, family_values
from .spectra import qes_spectrum

# Weights are refused when the rounding of their support points can move
# them by more than this fraction of the largest weight.
WEIGHT_RTOL = 1e-8

_EPS = float(np.finfo(float).eps)


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


def _christoffel(support, values, norms) -> list:
    """omega_k = 1 / sum_n F_n(E_k)^2 / h_n on the zeros E_k of the truncating
    member of a monic orthogonal family F with Gram diagonal h; values(E)
    returns F_0(E) .. F_{len(norms)-1}(E).

    A support point off by eps(1 + |E_k|) moves omega_k by about
    |omega_k| times that over the gap delta_k to its nearest neighbour, so
    the weights are refused when that exceeds WEIGHT_RTOL of the largest.
    """
    if not all(norms):
        raise DegenerateSpectrumError("a Gram diagonal entry vanishes (zeta = 0)")
    gaps = [
        min((abs(E - F) for j, F in enumerate(support) if j != k), default=math.inf)
        for k, E in enumerate(support)
    ]
    if min(gaps) == 0.0:
        raise DegenerateSpectrumError("two support points coincide")
    omega = [1.0 / sum(v * v / h for v, h in zip(values(E), norms)) for E in support]
    scale = max(abs(w) for w in omega)
    for E, w, gap in zip(support, omega, gaps):
        if _EPS * (1.0 + abs(E)) * abs(w) / (gap * scale) > WEIGHT_RTOL:
            raise DegenerateSpectrumError(
                f"support point {E:.12g} is {gap:.1e} from its neighbour: its weight "
                f"cannot be resolved to {WEIGHT_RTOL:.0e} of the largest"
            )
    return omega


def weights(params: ModelParams) -> WeightTable:
    """Christoffel weights of the R functional on the M levels."""
    support = qes_spectrum(params).energies
    gamma = tuple(family_norms("R", params, params.M + 1))
    omega = _christoffel(support, lambda E: family_values("R", params, E, params.M), gamma[: params.M])
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


def sign_report(params: ModelParams) -> dict:
    """Observed Gram diagonal next to the alternating-sign variant.

    The two differ by (-1)^n at odd n; the Gram diagonal computed from the
    weights is the authoritative one and is what norm() returns.
    """
    table = weights(params)
    G = gram_matrix(table)
    diagonal = [complex(G[n, n]) for n in range(params.M)]
    product = family_norms("R", params, params.M)
    alternating = [((-1) ** n) * g for n, g in enumerate(product)]
    signs = ["0" if g == 0 else ("+" if g > 0 else "-") for g in product]
    return {
        "gram_diagonal": diagonal,
        "product_formula": product,
        "alternating_variant": alternating,
        "signs": signs,
        "note": (
            "norm() follows the Gram diagonal prod(a_i); the alternating "
            "variant (-1)^n*prod(a_i) flips every odd-index sign and does "
            "not reproduce the Gram form."
        ),
    }


def pq_norms(params: ModelParams, family: str):
    """Complex Gram diagonals of the truncating P or Q family: the products
    of its recursion tails, as family_norms gives them for R.  [1] when the
    family has no member (Q at M = 1)."""
    if family not in ("P", "Q"):
        raise ValueError(f"family must be 'P' or 'Q', got {family!r}")
    return family_norms(family, params, k_index(params.M) + (family == "P"))


def pq_weight_report(params: ModelParams) -> dict:
    """Support points, weights and norms for both complex families.

    The support of each family is its own sector's levels (E_P for P, E_Q
    for Q).  Inspection output only; no reality holds or is claimed here.
    """
    levels = qes_spectrum(params).levels
    report = {}
    for family in ("P", "Q"):
        norms = pq_norms(params, family)
        support = [lvl.E for lvl in levels if lvl.label == "E_" + family]
        if not support:
            report[family] = {"energies": [], "weights": [], "norms": norms}
            continue
        omega = _christoffel(support, lambda E: family_values(family, params, E, len(support)), norms)
        report[family] = {"energies": support, "weights": omega, "norms": norms}
    return report
