"""Discrete weights and norms of the weakly orthogonal R family.

The R polynomials are orthogonal with respect to a discrete functional
supported on the M roots of R_M.  The weights omega_k are fixed by

    sum_k omega_k R_j(E_k) = delta_{j0},      j = 0 .. M-1,

and the induced Gram form is then diagonal,

    sum_k omega_k R_i(E_k) R_j(E_k) = gamma_i delta_{ij},
    gamma_n = prod_{i=1..n} a_i,   gamma_0 = 1,   gamma_n = 0 for n >= M.

Each a_i is negative for 0 < i < M once zeta != 0, so the nonzero norms
alternate: positive at even index, negative at odd index.  An alternating
variant (-1)^n * prod a_i also circulates for these families; it disagrees
with the Gram diagonal at odd index, and sign_report exposes both so the
discrepancy is visible rather than silently absorbed.

Because the support points are the zeros of R_M, that system has the
closed-form solution (Christoffel numbers; Golub & Welsch, Math. Comp. 1969)

    omega_k = 1 / sum_{n<M} R_n(E_k)^2 / gamma_n,

with R_n(E_k) run by the recursion at E_k and E_k the levels of
spectra.qes_spectrum.  For odd M below the critical coupling the levels are
exactly real, and so are the weights.

The complex P and Q families admit the same construction on their own
sector levels; those norms and weights are genuinely complex and are
exposed for inspection only.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, k_index
from .polyengine import evaluate
from .recursion import build_P, build_Q, build_R, recurrence_a, recurrence_b
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
    out = 1.0
    for i in range(1, n + 1):
        out *= recurrence_a(i, params)
    return out


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


def _r_values(params: ModelParams, E: complex) -> list:
    """R_0(E) .. R_{M-1}(E), run by the recursion at E."""
    cur, prev = 1.0 + 0j, 0j
    out = [cur]
    for n in range(params.M - 1):
        cur, prev = (E - recurrence_b(n, params)) * cur - recurrence_a(n, params) * prev, cur
        out.append(cur)
    return out


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
    gamma = tuple(norm(n, params) for n in range(params.M + 1))
    omega = _christoffel(support, lambda E: _r_values(params, E), gamma[: params.M])
    return WeightTable(params=params, energies=support, weights=tuple(omega), gamma=gamma)


def gram_matrix(table: WeightTable) -> np.ndarray:
    """G[i, j] = sum_k omega_k R_i(E_k) R_j(E_k) for i, j < M."""
    M = table.params.M
    r_fam = build_R(table.params, M - 1)
    vals = np.array(
        [[evaluate(r_fam[j], e) for e in table.energies] for j in range(M)],
        dtype=complex,
    )
    w = np.array(table.weights, dtype=complex)
    return vals @ (w[:, None] * vals.T)


def sign_report(params: ModelParams) -> dict:
    """Observed Gram diagonal next to the alternating-sign variant.

    The two differ by (-1)^n at odd n; the Gram diagonal computed from the
    weights is the authoritative one and is what norm() returns.
    """
    table = weights(params)
    G = gram_matrix(table)
    diagonal = [complex(G[n, n]) for n in range(params.M)]
    product = [norm(n, params) for n in range(params.M)]
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


def _pq_family(params: ModelParams, family: str):
    k = k_index(params.M)
    if family == "P":
        return build_P(params, k + 1, s=0.0), k + 1
    if family == "Q":
        return build_Q(params, k, s=0.5), k
    raise ValueError(f"family must be 'P' or 'Q', got {family!r}")


def pq_norms(params: ModelParams, family: str):
    """Complex Gram diagonals of the truncating P or Q family.

    Derived from the recursion tails: the coefficient coupling index m+1
    back to m-1 plays the role a_n plays for R.
    """
    M, zeta, s = params.M, params.zeta, 0.0 if family == "P" else 0.5
    _, count = _pq_family(params, family)
    out = [1.0 + 0j]
    acc = 1.0 + 0j
    for m in range(1, count):
        if family == "P":
            beta = 8j * zeta * m * (2 * m - 1) * (M + 1 - 2 * s - 2 * m)
        else:
            beta = 8j * zeta * m * (2 * m + 1) * (M - 2 * s - 2 * m)
        acc *= beta
        out.append(acc)
    return out


def pq_weight_report(params: ModelParams) -> dict:
    """Support points, weights and norms for both complex families.

    The support of each family is its own sector's levels (E_P for P, E_Q
    for Q).  Inspection output only; no reality holds or is claimed here.
    """
    levels = qes_spectrum(params).levels
    report = {}
    for family in ("P", "Q"):
        fam, count = _pq_family(params, family)
        norms = pq_norms(params, family)
        if count == 0:
            report[family] = {"energies": [], "weights": [], "norms": norms}
            continue
        support = [lvl.E for lvl in levels if lvl.label == "E_" + family]
        omega = _christoffel(support, lambda E: [evaluate(f, E) for f in fam[:count]], norms)
        report[family] = {"energies": support, "weights": omega, "norms": norms}
    return report
