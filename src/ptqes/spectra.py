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

As zeta^2 grows, the two largest E_P levels approach each other and merge at
a critical coupling zeta_c^2, beyond which they leave the real axis as a
conjugate pair.  critical_coupling locates that point by bisection on the
appearance of non-real E_P levels.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import ModelParams, _check, k_index
from .polyengine import EnergyPolynomial, divide_exact, is_real_value, matching_distance, mul
from .recursion import build_P, build_Q, build_R, build_Rbar, recurrence_a, recurrence_b

# Realization threshold for critical polynomials: imaginary parts must sit at
# rounding level, anything bigger signals a broken recursion.
_REALIZE_RTOL = 1e-9

# Two levels closer than this (relative) are reported as degenerate.
DEGENERACY_RTOL = 1e-6

_PAIRING_TOL = 1e-8

# Largest truncation-identity deviation verify_factorization accepts.
_FACTORIZATION_TOL = 1e-9

_NO_FINITE_CRITICAL = math.inf


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
    degenerate_pairs: tuple

    @property
    def energies(self):
        return tuple(lvl.E for lvl in self.levels)


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
    """Index pairs closer than DEGENERACY_RTOL relative to the level size."""
    pairs = []
    for i in range(len(energies)):
        for j in range(i + 1, len(energies)):
            if abs(energies[i] - energies[j]) <= DEGENERACY_RTOL * (1.0 + abs(energies[i])):
                pairs.append((i, j))
    return tuple(pairs)


def _jacobi(params: ModelParams, size: int) -> np.ndarray:
    """Leading size x size block of the R-recursion Jacobi matrix T."""
    T = np.diag([recurrence_b(n, params) for n in range(size)])
    for n in range(1, size):
        T[n - 1, n] = 1.0
        T[n, n - 1] = recurrence_a(n, params)
    return T


def _p_block(params: ModelParams) -> np.ndarray:
    """E_P block for odd M = 2k + 1: T's leading (k+1) x (k+1) block with the
    last sub-diagonal entry doubled."""
    k = k_index(params.M)
    block = _jacobi(params, k + 1)
    if k:
        block[k, k - 1] *= 2.0
    return block


def _sector_levels(params: ModelParams) -> dict:
    """{label: eigenvalues}: E_P and E_Q blocks for odd M, all of T for even M."""
    if params.M % 2 == 0:
        return {"E_R": np.linalg.eigvals(_jacobi(params, params.M))}
    block = _p_block(params)
    out = {"E_P": np.linalg.eigvals(block)}
    k = params.M // 2
    if k:
        out["E_Q"] = np.linalg.eigvals(block[:k, :k])
    return out


def qes_spectrum(params: ModelParams) -> QesSpectrum:
    """All M solvable levels, ascending by (Re E, Im E).

    Odd M: eigenvalues of the two sector blocks, labelled E_P / E_Q.
    Even M: eigenvalues of the whole Jacobi matrix, labelled E_R.
    """
    tagged = [(complex(z), label) for label, vals in _sector_levels(params).items() for z in vals]
    tagged.sort(key=lambda t: (t[0].real, t[0].imag, t[1]))
    levels = tuple(QesLevel(E=z, label=lab, is_real=is_real_value(z)) for z, lab in tagged)
    return QesSpectrum(
        params=params,
        levels=levels,
        degenerate_pairs=degenerate_pairs([z for z, _ in tagged]),
    )


def _p_levels(M: int, zeta2: float) -> list:
    return [complex(z) for z in np.linalg.eigvals(_p_block(ModelParams(M=M, zeta=math.sqrt(zeta2))))]


def _has_complex_p_level(M: int, zeta2: float) -> bool:
    return any(not is_real_value(z) for z in _p_levels(M, zeta2))


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

    rts = _p_levels(M, zc2)
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
    rts = qes_spectrum(params).energies
    conj = [z.conjugate() for z in rts]
    if matching_distance(rts, conj) > _PAIRING_TOL:
        return False
    if params.zeta != 0 and all(is_real_value(z) for z in rts):
        return False
    return True
