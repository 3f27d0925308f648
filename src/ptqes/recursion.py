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

a_M vanishes identically, so R_{M+n} = R_M * Rbar_n with the tail family
Rbar taking R's step at index M + n.

Each step table is read by three routines: the coefficient builders
(build_P, build_Q, build_R, build_Rbar), family_values (the recursion run at
one point E) and family_norms (the Gram diagonals h_n = tail_2 ... tail_{n+1}).
"""

import numpy as np

from .model import ModelParams
from .polyengine import EnergyPolynomial


def recurrence_a(n: int, params: ModelParams) -> float:
    """a_n = -4 n (M - n) zeta^2; negative for 0 < n < M, zero at n = M."""
    return -4.0 * n * (params.M - n) * params.zeta2


def recurrence_b(n: int, params: ModelParams) -> float:
    return 4.0 * n * (params.M - 1 - n) + 2.0 * params.M - 1.0 - params.zeta2


def _p_step(params: ModelParams):
    M, zeta = params.M, params.zeta
    sq = (M - 1j * zeta) ** 2
    return lambda n: (
        4 * (n - 1) ** 2 - 8j * n * zeta + 6j * zeta - sq,
        8j * zeta * (n - 1) * (2 * n - 3) * (M + 3 - 2 * n),
    )


def _q_step(params: ModelParams):
    M, zeta = params.M, params.zeta
    sq = (M - 1j * zeta) ** 2
    return lambda n: (
        4 * n * n - 8j * n * zeta + 2j * zeta - sq,
        8j * zeta * (n - 1) * (2 * n - 1) * (M + 1 - 2 * n),
    )


def _r_step(params: ModelParams, shift: int = 0):
    return lambda n: (-recurrence_b(shift + n - 1, params), recurrence_a(shift + n - 1, params))


def _rbar_step(params: ModelParams):
    return _r_step(params, shift=params.M)


_STEPS = {"P": _p_step, "Q": _q_step, "R": _r_step, "Rbar": _rbar_step}


def _step(family: str, params: ModelParams):
    if family not in _STEPS:
        raise ValueError(f"family must be one of {', '.join(_STEPS)}, got {family!r}")
    return _STEPS[family](params)


def _build(family: str, params: ModelParams, n_max: int):
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    step = _step(family, params)
    arrays = [np.ones(1, dtype=complex)]
    with np.errstate(all="ignore"):
        for n in range(1, n_max + 1):
            lin, tail = step(n)
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
    return [
        EnergyPolynomial(tuple(arr), variable="E", family=family, index=n)
        for n, arr in enumerate(arrays)
    ]


def build_P(params: ModelParams, n_max: int):
    """P_0 .. P_{n_max} for the even sector."""
    return _build("P", params, n_max)


def build_Q(params: ModelParams, n_max: int):
    """Q_0 .. Q_{n_max} for the odd sector."""
    return _build("Q", params, n_max)


def build_R(params: ModelParams, n_max: int):
    """R_0 .. R_{n_max}; coefficients are real for every n."""
    return _build("R", params, n_max)


def build_Rbar(params: ModelParams, n_max: int):
    """Tail family Rbar_0 .. Rbar_{n_max} from the index-shifted recursion."""
    return _build("Rbar", params, n_max)


def family_values(family: str, params: ModelParams, E: complex, count: int) -> list:
    """F_0(E) .. F_{count-1}(E), run by the recursion at E."""
    step = _step(family, params)
    cur, prev = 1.0 + 0j, 0j
    out = [cur]
    for n in range(1, count):
        lin, tail = step(n)
        cur, prev = (E + lin) * cur - tail * prev, cur
        out.append(cur)
    return out[:count]


def family_norms(family: str, params: ModelParams, count: int) -> list:
    """Gram diagonals h_0 .. h_{count-1}, h_n = tail_2 ... tail_{n+1}.

    h_0 = 1 is always returned, also for count < 1.  For R these are
    gamma_n = a_1 ... a_n, exactly 0 from n = M on.
    """
    step = _step(family, params)
    out = [1.0]
    for n in range(1, count):
        out.append(out[-1] * step(n + 1)[1])
    return out
