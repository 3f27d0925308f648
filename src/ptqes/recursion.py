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

Each family's step is two formulas, one for lin_n and one for tail_n, each
written once.  step_table(family, params, count) = [(lin_n, tail_n),
n = 1 .. count - 1] zips them, built once per call (Fbar's table is F's from
n = b + 1 on; R's entries are the a_n, b_n expressions above, with the bits
of recurrence_a and recurrence_b).  The coefficient builders (build_P,
build_Q, build_R, build_bar) and family_values (the recursion run at one
point E) read a table, and norms.gram_matrix runs one R table at every
support point.  The norms read the tails alone: family_norms forms the Gram
diagonals h_n = tail_2 ... tail_{n+1} as one running product and computes
no lin_n.
"""

import cmath
import functools
import itertools
import operator

import numpy as np

from .model import ModelParams, k_index
from .polyengine import EnergyPolynomial


def recurrence_a(n: int, params: ModelParams) -> float:
    """a_n = -4 n (M - n) zeta^2; negative for 0 < n < M, zero at n = M."""
    return -4.0 * n * (params.M - n) * params.zeta2


def recurrence_b(n: int, params: ModelParams) -> float:
    return 4.0 * n * (params.M - 1 - n) + 2.0 * params.M - 1.0 - params.zeta2


def _p_lins(params: ModelParams, ns) -> list:
    M, zeta = params.M, params.zeta
    sq = (M - 1j * zeta) * (M - 1j * zeta)  # a product overflows to inf; ** raises
    return [4 * (n - 1) ** 2 - 8j * n * zeta + 6j * zeta - sq for n in ns]


def _p_tails(params: ModelParams, ns) -> list:
    return [8j * params.zeta * (n - 1) * (2 * n - 3) * (params.M + 3 - 2 * n) for n in ns]


def _q_lins(params: ModelParams, ns) -> list:
    M, zeta = params.M, params.zeta
    sq = (M - 1j * zeta) * (M - 1j * zeta)
    return [4 * n * n - 8j * n * zeta + 2j * zeta - sq for n in ns]


def _q_tails(params: ModelParams, ns) -> list:
    return [8j * params.zeta * (n - 1) * (2 * n - 1) * (params.M + 1 - 2 * n) for n in ns]


# R's lin_n = -b_{n-1} and tail_n = a_{n-1} in the float operations of
# recurrence_b and recurrence_a (the integer factors are exact), so every
# entry has their bits
def _r_lins(params: ModelParams, ns) -> list:
    M, zeta2 = params.M, params.zeta2
    return [-(4.0 * (n - 1) * (M - n) + 2.0 * M - 1.0 - zeta2) for n in ns]


def _r_tails(params: ModelParams, ns) -> list:
    M, zeta2 = params.M, params.zeta2
    return [-4.0 * (n - 1) * (M + 1 - n) * zeta2 for n in ns]


def _zipped(lins, tails, params: ModelParams, ns) -> list:
    return list(zip(lins(params, ns), tails(params, ns)))


_p_table = functools.partial(_zipped, _p_lins, _p_tails)
_q_table = functools.partial(_zipped, _q_lins, _q_tails)
_r_table = functools.partial(_zipped, _r_lins, _r_tails)
_TABLES = {"P": _p_table, "Q": _q_table, "R": _r_table}
_TAILS = {"P": _p_tails, "Q": _q_tails, "R": _r_tails}


def _offset(family: str, params: ModelParams):
    """(F, b) for family F or Fbar: Fbar reads F's steps at b + n, b = 0 for
    F itself (P and Q need odd M)."""
    base = family.removesuffix("bar")
    if base not in _TABLES:
        raise ValueError(f"family must be P, Q, R, Pbar, Qbar or Rbar, got {family!r}")
    return base, (0 if base == family else params.M if base == "R" else k_index(params.M) + (base == "P"))


def step_table(family: str, params: ModelParams, count: int) -> list:
    """[(lin_n, tail_n) for n = 1 .. count - 1]; Fbar reads F's steps at
    b + n (P and Q need odd M)."""
    base, b = _offset(family, params)
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
    """Gram diagonals h_0 .. h_{count-1}, h_n = tail_2 ... tail_{n+1}, one
    running product over the tails alone, left to right from h_0 = 1.

    h_0 = 1 is always returned, also for count < 1; an h_n that overflows
    raises ValueError.  For R, h_n = gamma_n = a_1 ... a_n, 0 from n = M on.
    """
    base, b = _offset(family, params)
    out = list(itertools.accumulate(_TAILS[base](params, range(b + 2, b + count + 1)), operator.mul, initial=1.0))
    # inf and NaN stay in every later product: past the first non-finite h_n
    # every entry is non-finite, so n is the number of finite ones
    if not cmath.isfinite(out[-1]):
        n = sum(map(cmath.isfinite, out))
        raise ValueError(f"{family} Gram norm h_{n} is not finite at zeta^2={params.zeta2!r}")
    return out
