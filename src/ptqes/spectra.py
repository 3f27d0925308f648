"""Quasi-exactly-solvable spectra, critical polynomials and critical couplings.

The solvable levels are the zeros of R_M, so they are the eigenvalues of the
real M x M Jacobi matrix T of the R recursion: diagonal b_n, super-diagonal
1, sub-diagonal a_n.  Its eigenvalues depend on the off-diagonal entries
only through their products a_n, and b_n = b_{M-1-n}, a_n = a_{M-n}, so for
odd M = 2k + 1 the index reflection splits T into two real blocks:

  E_P: the leading (k+1) x (k+1) block with its last sub-diagonal entry
       doubled to 2 a_k; its characteristic polynomial is P_{k+1};
  E_Q: the leading k x k block; its characteristic polynomial is Q_k.

For even M there is no split; the M levels are the eigenvalues of T itself
and come in complex-conjugate pairs once zeta is nonzero.  Every matrix is
real, so a real level comes back with imaginary part exactly 0 and complex
levels come in exact conjugate pairs.

Every entry is linear in zeta^2: b_n = c_n - zeta^2 with
c_n = 4n(M-1-n) + 2M - 1, and a_n = -4n(M-n) zeta^2.  So each M has one
pencil T(zeta^2) = C + zeta^2 S (_pencil, cached per M and read-only): for
even M it is all of T, for odd M the E_P block, and E_Q is its leading
k x k block.  level_rows solves a list of couplings at once.  For each
sector it stacks the blocks of all the couplings and makes one eigvals call
per chunk of at most _STACK_ENTRIES matrix entries, so a long sweep's extra
memory stays bounded.  A coupling's levels are the same bits whether it is
solved alone or in a stack.

_eigvals is the one place that decides whether a level is real
(polyengine.is_real_value): each level leaves it as (E, is_real), and the
rows of level_rows carry that flag as (E, label, is_real).  qes_spectrum,
duality, the CLI spectrum and sweep commands and the critical_coupling
probes all read the flag they were given.

As zeta^2 grows, the two largest E_P levels approach each other and merge at
a critical coupling zeta_c^2, beyond which they leave the real axis as a
conjugate pair.  critical_coupling locates that point by bisection on the
appearance of non-real E_P levels.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import ModelParams, _check, k_index
from .polyengine import EnergyPolynomial, divide_exact, is_real_value, matching_distance, mul
from .recursion import build_P, build_Q, build_R, build_Rbar

# Realization threshold for critical polynomials: imaginary parts must sit at
# rounding level, anything bigger signals a broken recursion.
_REALIZE_RTOL = 1e-9

# Two levels closer than this (relative) are reported as degenerate.
DEGENERACY_RTOL = 1e-6

_PAIRING_TOL = 1e-8

# Largest truncation-identity deviation verify_factorization accepts.
_FACTORIZATION_TOL = 1e-9

_NO_FINITE_CRITICAL = math.inf

# Most matrix entries stacked into one eigvals call: it bounds the memory a
# long sweep adds on top of its output rows.
_STACK_ENTRIES = 1 << 16


class NonRealCriticalPolynomialError(RuntimeError):
    """A critical polynomial came out with non-negligible imaginary parts."""


class BracketError(RuntimeError):
    """No complexification point was found while scanning for zeta_c^2."""


@dataclass(frozen=True)
class QesLevel:
    E: complex
    label: str
    is_real: bool


@dataclass(frozen=True)
class QesSpectrum:
    params: ModelParams
    levels: tuple

    @property
    def energies(self):
        return tuple(lvl.E for lvl in self.levels)

    @property
    def degenerate_pairs(self):
        """Index pairs of levels closer than DEGENERACY_RTOL (see
        degenerate_pairs), computed when read."""
        return degenerate_pairs(self.energies)


@dataclass(frozen=True)
class CriticalCoupling:
    """Location of the first level merger; zeta_c_squared is inf for M = 1."""

    M: int
    zeta_c_squared: float
    degenerate_energy: float = None

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.zeta_c_squared)


def _realize_real(p: EnergyPolynomial) -> EnergyPolynomial:
    scale = max(abs(c) for c in p.coeffs)
    worst = max(abs(c.imag) for c in p.coeffs)
    if worst > _REALIZE_RTOL * scale:
        raise NonRealCriticalPolynomialError(
            f"{p.family}_{p.index}: imaginary coefficient {worst:.3e} "
            f"exceeds {_REALIZE_RTOL:.1e} of scale {scale:.3e}"
        )
    return replace(p, coeffs=tuple(complex(c.real, 0.0) for c in p.coeffs))


def critical_polynomials(params: ModelParams):
    """(P_{k+1}, Q_k) with realized real coefficients, for odd M = 2k + 1.

    Q_0 is the constant 1 (no odd-sector level for M = 1).
    """
    k = k_index(params.M)
    p_crit = build_P(params, k + 1)[k + 1]
    q_crit = build_Q(params, k)[k]
    return _realize_real(p_crit), _realize_real(q_crit)


def degenerate_pairs(energies):
    """Index pairs closer than DEGENERACY_RTOL relative to the level size.

    energies must be sorted by real part.  |E_i - E_j| >= Re E_j - Re E_i,
    so the scan for partners of E_i stops at the first E_j whose real part
    alone is already too far.
    """
    pairs = []
    for i, a in enumerate(energies):
        bound = DEGENERACY_RTOL * (1.0 + abs(a))
        for j in range(i + 1, len(energies)):
            b = energies[j]
            if b.real - a.real > bound:
                break
            if abs(a - b) <= bound:
                pairs.append((i, j))
    return tuple(pairs)


def _sectors(M: int) -> dict:
    """{label: size} of the sector blocks, each the leading size x size block
    of the pencil: E_P (k + 1) and E_Q (k, when k > 0) for odd M = 2k + 1,
    E_R (all of T) for even M."""
    if M % 2 == 0:
        return {"E_R": M}
    k = k_index(M)
    return {"E_P": k + 1, "E_Q": k} if k else {"E_P": 1}


@functools.lru_cache(maxsize=32)
def _pencil(M: int):
    """(C, S), read-only, with the sector matrix T(zeta^2) = C + zeta^2 S.

    C holds b_n + zeta^2 = 4 n (M - 1 - n) + 2M - 1 on the diagonal and 1 on
    the super-diagonal; S holds -1 on the diagonal and a_n / zeta^2 =
    -4 n (M - n) on the sub-diagonal.  For even M the pencil is all of T; for
    odd M it is the E_P block, with the last sub-diagonal entry doubled.
    """
    size = max(_sectors(M).values())
    n = np.arange(size, dtype=float)
    C = np.diag(4.0 * n * (M - 1 - n) + 2.0 * M - 1.0) + np.eye(size, k=1)
    S = np.diag(-4.0 * n[1:] * (M - n[1:]), -1) - np.eye(size)
    if M % 2 and size > 1:
        S[-1, -2] *= 2.0
    C.flags.writeable = False
    S.flags.writeable = False
    return C, S


def _eigvals(M: int, zetas, labels) -> dict:
    """{label: eigenvalues of that sector block for each zeta in zetas, one
    list of (E, is_real) pairs per coupling}.  The pencil matrices T(zeta^2)
    are built in chunks of at most _STACK_ENTRIES matrix entries, and each
    sector of a chunk is one stacked eigvals call.  Every level is
    classified here, and only here."""
    C, S = _pencil(M)
    sizes = _sectors(M)
    zeta2 = np.square(np.asarray(zetas, dtype=float)).reshape(-1, 1, 1)  # as ModelParams.zeta2
    out = {label: [] for label in labels}
    per = max(1, _STACK_ENTRIES // C.size)
    for i in range(0, len(zeta2), per):
        T = C + zeta2[i : i + per] * S
        for label, values in out.items():
            size = sizes[label]
            for row in np.linalg.eigvals(T[:, :size, :size]).astype(complex, copy=False).tolist():
                values.append([(E, is_real_value(E)) for E in row])
    return out


def _level_key(row):
    E, label, _ = row
    return E.real, E.imag, label


def level_rows(M: int, zetas) -> list:
    """For each zeta in zetas, the M solvable levels as (E, label, is_real)
    rows, ascending by (Re E, Im E, label); is_real is the flag _eigvals
    gave the level.  Row i equals the levels of
    qes_spectrum(ModelParams(M, zetas[i])), bit for bit."""
    sectors = _eigvals(M, zetas, _sectors(M)).items()
    return [
        sorted(((E, label, real) for label, values in sectors for E, real in values[i]), key=_level_key)
        for i in range(len(zetas))
    ]


def qes_spectrum(params: ModelParams) -> QesSpectrum:
    """All M solvable levels, ascending by (Re E, Im E).

    Odd M: eigenvalues of the two sector blocks, labelled E_P / E_Q.
    Even M: eigenvalues of the whole Jacobi matrix, labelled E_R.
    """
    levels = tuple(QesLevel(*row) for row in level_rows(params.M, [params.zeta])[0])
    return QesSpectrum(params=params, levels=levels)


def _p_levels(M: int, zeta2: float) -> list:
    return _eigvals(M, [math.sqrt(zeta2)], ("E_P",))["E_P"][0]


def _has_complex_p_level(M: int, zeta2: float) -> bool:
    return not all(real for _, real in _p_levels(M, zeta2))


def critical_coupling(M: int, tol: float = 1e-10) -> CriticalCoupling:
    """Smallest zeta^2 > 0 at which two E_P levels merge, found by bisection.

    The merger of the two largest real E_P levels is where a conjugate pair
    first appears, so the bisection predicate is simply "the E_P block has a
    non-real eigenvalue".  M = 1 has a single level and no finite critical
    coupling.
    """
    k_index(M)  # validates odd positive M
    if not (tol > 0):
        raise ValueError(f"tol must be positive, got {tol!r}")
    if M == 1:
        return CriticalCoupling(M=M, zeta_c_squared=_NO_FINITE_CRITICAL)

    # Coarse scan to bracket the first complexification, then bisect.
    hi = 0.5
    steps = 200
    bracket = None
    while bracket is None and hi <= 64.0:
        prev = 0.0
        for i in range(1, steps + 1):
            z2 = hi * i / steps
            if _has_complex_p_level(M, z2):
                bracket = (prev, z2)
                break
            prev = z2
        if bracket is None:
            hi *= 4.0
    if bracket is None:
        raise BracketError(f"no complex E_P level found for M={M} up to zeta^2={hi / 4.0}")

    lo, up = bracket
    while up - lo > tol:
        mid = 0.5 * (lo + up)
        if mid in (lo, up):  # lo and up are adjacent doubles; tol is below their spacing
            break
        if _has_complex_p_level(M, mid):
            up = mid
        else:
            lo = mid
    zc2 = 0.5 * (lo + up)

    rts = [E for E, _ in _p_levels(M, zc2)]
    pair = min(
        ((i, j) for i in range(len(rts)) for j in range(i + 1, len(rts))),
        key=lambda ij: abs(rts[ij[0]] - rts[ij[1]]),
    )
    merged = 0.5 * (rts[pair[0]] + rts[pair[1]]).real
    return CriticalCoupling(M=M, zeta_c_squared=zc2, degenerate_energy=merged)


@dataclass(frozen=True)
class FactorizationCheck:
    identity: str
    n: int
    deviation: float


@dataclass(frozen=True)
class FactorizationReport:
    params: ModelParams
    checks: tuple

    @property
    def max_deviation(self) -> float:
        return max((c.deviation for c in self.checks), default=0.0)


def _coeff_distance(p: EnergyPolynomial, q: EnergyPolynomial) -> float:
    if p.degree != q.degree:
        raise ValueError("degree mismatch in coefficient comparison")
    scale = max(abs(c) for c in p.coeffs)
    return max(abs(a - b) for a, b in zip(p.coeffs, q.coeffs)) / scale


def check_factorization(params: ModelParams, n_extra: int = 3) -> FactorizationReport:
    """Deviations for the truncation identities of the three families.

    Checked, with n running to n_extra where applicable:
      R_{2k+1} = P_{k+1} * Q_k          (odd M, coefficient distance)
      R_{M+n}  = R_M * Rbar_n           (any M, division remainder and the
                                         quotient against the Rbar recursion)
      P_{k+n+1} = P_{k+1} * Pbar_n      (odd M, division remainder)
      Q_{k+n}   = Q_k * Qbar_n          (odd M, division remainder)
    """
    if n_extra < 1:
        raise ValueError("n_extra must be >= 1")
    checks = []
    M = params.M
    r_fam = build_R(params, M + n_extra)
    rbar_fam = build_Rbar(params, n_extra)

    if M % 2 == 1:
        k = k_index(M)
        p_fam = build_P(params, k + 1 + n_extra)
        q_fam = build_Q(params, k + n_extra)
        prod = mul(p_fam[k + 1], q_fam[k])
        checks.append(FactorizationCheck("R = P*Q", M, _coeff_distance(r_fam[M], prod)))
        for n in range(1, n_extra + 1):
            _, rem = divide_exact(p_fam[k + 1 + n], p_fam[k + 1])
            checks.append(FactorizationCheck("P = P_crit*Pbar", n, rem))
            _, rem = divide_exact(q_fam[k + n], q_fam[k])
            checks.append(FactorizationCheck("Q = Q_crit*Qbar", n, rem))

    for n in range(1, n_extra + 1):
        quot, rem = divide_exact(r_fam[M + n], r_fam[M])
        checks.append(FactorizationCheck("R = R_M*Rbar", n, rem))
        checks.append(FactorizationCheck("Rbar quotient", n, _coeff_distance(rbar_fam[n], quot)))

    return FactorizationReport(params=params, checks=tuple(checks))


def verify_factorization() -> list:
    """verify --suite factorization: the largest check_factorization
    deviation (n_extra = 4) over zeta^2 in {0.005, 0.02}, one check per M."""
    checks = []
    for m in (1, 2, 3, 4, 5, 7):
        worst = 0.0
        for z2 in (0.005, 0.02):
            report = check_factorization(ModelParams(M=m, zeta=math.sqrt(z2)), n_extra=4)
            worst = max(worst, report.max_deviation)
        checks.append(_check(f"factorization.M{m}", worst, _FACTORIZATION_TOL, f"max_deviation={worst:.3e}"))
    return checks


def even_M_pairing(params: ModelParams) -> bool:
    """True when the level multiset is conjugation-invariant and, for
    zeta != 0, at least one level is genuinely complex."""
    if params.M % 2 != 0:
        raise ValueError(f"even_M_pairing needs even M, got {params.M}")
    spec = qes_spectrum(params)
    rts = spec.energies
    conj = [z.conjugate() for z in rts]
    if matching_distance(rts, conj) > _PAIRING_TOL:
        return False
    if params.zeta != 0 and all(lvl.is_real for lvl in spec.levels):
        return False
    return True
