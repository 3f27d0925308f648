"""Three-term recursions generating the polynomial families.

Every family F obeys one recursion, monic in the physical energy E,

  F_n = (E + lin_n) F_{n-1} - tail_n F_{n-2},    F_0 = 1,

and differs only in its step n -> (lin_n, tail_n).  Writing the
eigenfunction of the hyperbolic model as a gauge factor times a power series
gives two complex families, P (even sector) and Q (odd sector):

  P: lin_n = 4(n-1)^2 - 8i*zeta n + 6i*zeta - (M - i*zeta)^2,
     tail_n = 8i*zeta (n-1)(2n-3)(M + 3 - 2n);
  Q: lin_n = 4n^2 - 8i*zeta n + 2i*zeta - (M - i*zeta)^2,
     tail_n = 8i*zeta (n-1)(2n-1)(M + 1 - 2n).

A gauge rotation of the same problem gives a real weakly-orthogonal family
R, with lin_n = -b_{n-1} and tail_n = a_{n-1}, that is

  R_{n+1} = (E - b_n) R_n - a_n R_{n-1},
  a_n = -4 n (M - n) zeta^2,
  b_n = 4 n (M - 1 - n) + 2M - 1 - zeta^2.

Each tail vanishes at n = b + 1, b the truncation index: M for R (a_M = 0)
and, for odd M = 2k + 1, k + 1 for P and k for Q.  So F_{b+n} = F_b * Fbar_n,
the cofactor family Fbar (Pbar, Qbar, Rbar) being F's step read at b + n.

The steps exist only as a table, step_table(family, params, count) =
[(lin_n, tail_n), n = 1 .. count - 1], built once per call (Fbar's table is
F's from n = b + 1 on; R's entries are the a_n, b_n expressions above, with
the bits of recurrence_a and recurrence_b).  Every routine reads a table:
the coefficient builders (build_P, build_Q, build_R, build_bar),
family_values (the recursion run at one point E) and family_norms (the Gram
diagonals h_n = tail_2 ... tail_{n+1}); norms.gram_matrix runs one R table
at every support point.
"""

import cmath

import numpy as np

from .model import ModelParams, k_index
from .polyengine import EnergyPolynomial


def recurrence_a(n: int, params: ModelParams) -> float:
    """a_n = -4 n (M - n) zeta^2; negative for 0 < n < M, zero at n = M."""
    return -4.0 * n * (params.M - n) * params.zeta2


def recurrence_b(n: int, params: ModelParams) -> float:
    return 4.0 * n * (params.M - 1 - n) + 2.0 * params.M - 1.0 - params.zeta2


def _p_table(params: ModelParams, ns) -> list:
    M, zeta = params.M, params.zeta
    sq = (M - 1j * zeta) * (M - 1j * zeta)  # a product overflows to inf; ** raises
    return [
        (4 * (n - 1) ** 2 - 8j * n * zeta + 6j * zeta - sq, 8j * zeta * (n - 1) * (2 * n - 3) * (M + 3 - 2 * n))
        for n in ns
    ]


def _q_table(params: ModelParams, ns) -> list:
    M, zeta = params.M, params.zeta
    sq = (M - 1j * zeta) * (M - 1j * zeta)
    return [
        (4 * n * n - 8j * n * zeta + 2j * zeta - sq, 8j * zeta * (n - 1) * (2 * n - 1) * (M + 1 - 2 * n))
        for n in ns
    ]


def _r_table(params: ModelParams, ns) -> list:
    # (-b_{n-1}, a_{n-1}) in the operations of recurrence_b and
    # recurrence_a, so every entry has their bits
    M, zeta2 = params.M, params.zeta2
    return [
        (-(4.0 * m * (M - 1 - m) + 2.0 * M - 1.0 - zeta2), -4.0 * m * (M - m) * zeta2)
        for m in (n - 1 for n in ns)
    ]


_TABLES = {"P": _p_table, "Q": _q_table, "R": _r_table}


def step_table(family: str, params: ModelParams, count: int) -> list:
    """[(lin_n, tail_n) for n = 1 .. count - 1]; Fbar reads F's steps at
    b + n (P and Q need odd M)."""
    base = family.removesuffix("bar")
    if base not in _TABLES:
        raise ValueError(f"family must be P, Q, R, Pbar, Qbar or Rbar, got {family!r}")
    b = 0
    if base != family:
        b = params.M if base == "R" else k_index(params.M) + (base == "P")
    return _TABLES[base](params, range(b + 1, b + count))


def _build(family: str, params: ModelParams, n_max: int):
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    arrays = [np.ones(1, dtype=complex)]
    with np.errstate(all="ignore"):
        for n, (lin, tail) in enumerate(step_table(family, params, n_max + 1), 1):
            prev = arrays[-1]
            # ascending coefficients of (E + lin) * prev - tail * prev2
            out = np.zeros(n + 1, dtype=complex)
            out[1:] = prev
            out[:n] += lin * prev
            if n >= 2 and tail != 0:
                out[: n - 1] -= tail * arrays[-2]
            if not np.isfinite(out).all():
                raise ValueError(f"{family}_{n} has a non-finite coefficient at zeta^2={params.zeta2!r}")
            arrays.append(out)
    return [EnergyPolynomial(tuple(arr)) for arr in arrays]


def build_P(params: ModelParams, n_max: int):
    """P_0 .. P_{n_max} for the even sector."""
    return _build("P", params, n_max)


def build_Q(params: ModelParams, n_max: int):
    """Q_0 .. Q_{n_max} for the odd sector."""
    return _build("Q", params, n_max)


def build_R(params: ModelParams, n_max: int):
    """R_0 .. R_{n_max}; coefficients are real for every n."""
    return _build("R", params, n_max)


def build_bar(family: str, params: ModelParams, n_max: int):
    """Cofactor Fbar_0 .. Fbar_{n_max} of F = "P", "Q" or "R" (P and Q need
    odd M): F_{b+n} = F_b * Fbar_n at the truncation index b."""
    if family not in _TABLES:
        raise ValueError(f"family must be P, Q or R, got {family!r}")
    return _build(f"{family}bar", params, n_max)


def _values(steps: list, E: complex) -> list:
    """F_0(E) .. F_{len(steps)}(E), the recursion over a step table run at E."""
    cur, prev = 1.0 + 0j, 0j
    out = [cur]
    for lin, tail in steps:
        cur, prev = (E + lin) * cur - tail * prev, cur
        out.append(cur)
    return out


def family_values(family: str, params: ModelParams, E: complex, count: int) -> list:
    """F_0(E) .. F_{count-1}(E), run by the recursion at E."""
    return _values(step_table(family, params, count), E)[:count]


def family_norms(family: str, params: ModelParams, count: int) -> list:
    """Gram diagonals h_0 .. h_{count-1}, h_n = tail_2 ... tail_{n+1}.

    h_0 = 1 is always returned, also for count < 1; an h_n that overflows
    raises ValueError.  For R, h_n = gamma_n = a_1 ... a_n, 0 from n = M on.
    """
    out = [1.0]
    for n, (_, tail) in enumerate(step_table(family, params, count + 1)[1:], 1):
        out.append(out[-1] * tail)
        if not cmath.isfinite(out[-1]):
            raise ValueError(f"{family} Gram norm h_{n} is not finite at zeta^2={params.zeta2!r}")
    return out
