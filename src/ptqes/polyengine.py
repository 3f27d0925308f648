"""Monic polynomials in the physical energy E: arithmetic and evaluation.

Coefficients are complex doubles stored in ascending order with an exactly
unit leading coefficient.  Coefficients serve the paper's identities
(factorization, the printed critical polynomials) and the independent
checks; levels are never taken from them (see spectra).  taylor_shift
gives the paper's printed form in the shifted energy calE.
"""

from dataclasses import dataclass

import numpy as np

from .model import _rank


@dataclass(frozen=True)
class EnergyPolynomial:
    """Monic polynomial in E with ascending complex coefficients.

    Nothing else is carried: the member F_n of a recursion family is the
    polynomial of degree n.
    """

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        if coeffs[-1] != 1:
            raise ValueError(f"leading coefficient must be exactly 1, got {coeffs[-1]!r}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def evaluate(p: EnergyPolynomial, z: complex) -> complex:
    acc = 0j
    for c in reversed(p.coeffs):
        acc = acc * z + c
    return acc


def backward_error(p: EnergyPolynomial, z: complex) -> float:
    """|p(z)| / sum_i |c_i| |z|^i: the relative coefficient perturbation that
    makes z an exact root of p."""
    az = abs(z)
    return abs(evaluate(p, z)) / sum(abs(c) * az**i for i, c in enumerate(p.coeffs))


def mul(p: EnergyPolynomial, q: EnergyPolynomial) -> EnergyPolynomial:
    """Product of two polynomials."""
    out = np.convolve(np.asarray(p.coeffs, dtype=complex), np.asarray(q.coeffs, dtype=complex))
    return EnergyPolynomial(tuple(out))


def matching_distance(a, b) -> float:
    """Max pair distance of a greedy closest-first matching of two multisets,
    NaN when a matched pair's distance is NaN (model._rank).

    Both sequences must have the same length.  Closest pairs are consumed
    first, which keeps conjugate pairs and near-degenerate clusters matched
    sensibly without an assignment solver.
    """
    xs = [complex(z) for z in a]
    ys = [complex(z) for z in b]
    if len(xs) != len(ys):
        raise ValueError(f"multiset size mismatch: {len(xs)} vs {len(ys)}")
    pairs = sorted(
        ((abs(x - y), i, j) for i, x in enumerate(xs) for j, y in enumerate(ys)),
        key=lambda t: t[0],
    )
    used_i, used_j = set(), set()
    matched = []
    for dist, i, j in pairs:
        if i in used_i or j in used_j:
            continue
        used_i.add(i)
        used_j.add(j)
        matched.append(dist)
        if len(used_i) == len(xs):
            break
    return max(matched, key=_rank, default=0.0)


def taylor_shift(p: EnergyPolynomial, delta: complex) -> EnergyPolynomial:
    """Coefficients of p(x + delta).

    The paper prints its critical polynomials in calE = E - M**2 + zeta**2;
    that form of p is taylor_shift(p, M**2 - params.zeta2).
    """
    res = np.array([p.coeffs[-1]], dtype=complex)
    step = np.array([complex(delta), 1.0 + 0j])
    for c in reversed(p.coeffs[:-1]):
        res = np.convolve(res, step)
        res[0] += c
    return EnergyPolynomial(tuple(res))
