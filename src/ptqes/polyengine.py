"""Monic polynomials in the energy variable: arithmetic and evaluation.

Coefficients are complex doubles stored in ascending order with an exactly
unit leading coefficient.  Coefficients serve the paper's identities
(factorization, the printed critical polynomials) and the independent
checks; levels are never taken from them (see spectra).
"""

from dataclasses import dataclass, replace

import numpy as np

from .model import shift_to_physical


@dataclass(frozen=True)
class EnergyPolynomial:
    """Monic polynomial with ascending complex coefficients.

    variable is "E" (physical energy) or "calE" (shifted energy); family
    tags which recursion produced the polynomial ("P", "Q", "R", "Rbar",
    or "derived" for products, quotients and shifts); index is the position
    in its family and defaults to the degree.
    """

    coeffs: tuple
    variable: str = "E"
    family: str = "derived"
    index: int = None

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        if coeffs[-1] != 1:
            raise ValueError(f"leading coefficient must be exactly 1, got {coeffs[-1]!r}")
        if self.variable not in ("E", "calE"):
            raise ValueError(f"unknown variable {self.variable!r}")
        object.__setattr__(self, "coeffs", coeffs)
        if self.index is None:
            object.__setattr__(self, "index", len(coeffs) - 1)

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
    """Product of two polynomials in the same variable."""
    if p.variable != q.variable:
        raise ValueError(f"variable mismatch: {p.variable!r} * {q.variable!r}")
    out = np.convolve(np.asarray(p.coeffs, dtype=complex), np.asarray(q.coeffs, dtype=complex))
    return EnergyPolynomial(tuple(out), variable=p.variable)


def divide_exact(p: EnergyPolynomial, d: EnergyPolynomial):
    """Synthetic division p = q*d + r for monic d.

    Returns (q, remainder_norm) with remainder_norm the max remainder
    coefficient modulus relative to the max coefficient modulus of p.  The
    caller decides whether the remainder is small enough to call the
    division exact.
    """
    if p.variable != d.variable:
        raise ValueError(f"variable mismatch: {p.variable!r} / {d.variable!r}")
    nd = d.degree
    if nd > p.degree:
        raise ValueError("divisor degree exceeds dividend degree")
    rem = [complex(c) for c in p.coeffs]
    quot = [0j] * (p.degree - nd + 1)
    for i in range(p.degree - nd, -1, -1):
        c = rem[i + nd]
        quot[i] = c
        for j in range(nd):
            rem[i + j] -= c * d.coeffs[j]
        rem[i + nd] = 0j
    scale = max(abs(c) for c in p.coeffs)
    rem_norm = max((abs(c) for c in rem[:nd]), default=0.0) / scale
    return EnergyPolynomial(tuple(quot), variable=p.variable), rem_norm


def matching_distance(a, b) -> float:
    """Max pair distance of a greedy closest-first matching of two multisets.

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
    worst = 0.0
    for dist, i, j in pairs:
        if i in used_i or j in used_j:
            continue
        used_i.add(i)
        used_j.add(j)
        worst = max(worst, dist)
        if len(used_i) == len(xs):
            break
    return worst


def taylor_shift(p: EnergyPolynomial, delta: complex, variable: str = None) -> EnergyPolynomial:
    """Coefficients of p(x + delta), optionally retagging the variable."""
    res = np.array([p.coeffs[-1]], dtype=complex)
    step = np.array([complex(delta), 1.0 + 0j])
    for c in reversed(p.coeffs[:-1]):
        res = np.convolve(res, step)
        res[0] += c
    return replace(p, coeffs=tuple(res), variable=variable if variable is not None else p.variable)


def to_variable(p: EnergyPolynomial, variable: str, params) -> EnergyPolynomial:
    """Rewrite p in the other energy variable, E = calE + M**2 - zeta**2."""
    if variable not in ("E", "calE"):
        raise ValueError(f"unknown variable {variable!r}")
    if p.variable == variable:
        return p
    offset = shift_to_physical(0.0, params)
    if variable == "calE":
        # q(calE) = p(calE + offset)
        return taylor_shift(p, offset, variable="calE")
    return taylor_shift(p, -offset, variable="E")
