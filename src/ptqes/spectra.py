"""Quasi-exactly-solvable spectra, critical polynomials and critical couplings.

The solvable levels are the zeros of R_M, so they are the eigenvalues of the
real M x M Jacobi matrix T of the R recursion: diagonal b_n, super-diagonal
1, sub-diagonal a_n.  Its eigenvalues depend on the off-diagonal entries
only through their products a_n, and b_n = b_{M-1-n}, a_n = a_{M-n}, so for
odd M = 2k + 1 the index reflection splits T into two real blocks:

  E_P: the leading (k+1) x (k+1) block with its last sub-diagonal entry
       doubled to 2 a_k; its characteristic polynomial is P_{k+1};
  E_Q: the leading k x k block; its characteristic polynomial is Q_k.

For even M = 2k, T symmetrised (off-diagonal entries i sqrt(-a_n)) splits
the same way into two k x k complex blocks that are conjugates of each
other.  The E_R levels are the eigenvalues of the trailing half of T (rows
and columns k..M-1) with i sqrt(-a_k) = 2i k |zeta| added to its first
diagonal entry, and their conjugates.

The real entries are linear in zeta^2, so each M has one pencil
T(zeta^2) = C + zeta^2 S (_pencil, cached per M and read-only): the E_P
block for odd M, its leading k x k block being E_Q, and the trailing half of
T for even M.  level_rows solves a list of couplings with one stacked
eigvals call per sector and chunk of at most _STACK_ENTRIES matrix entries,
so a long sweep's extra memory stays bounded, and a coupling's levels are
the same bits whether it is solved alone or in a stack.

_eigvals is the one place that decides whether a level is real, from the
structure of the solve and with no tolerance.  LAPACK returns a real
eigenvalue of a real matrix with imaginary part exactly 0, so an odd-M level
is real when Im E == 0; at zeta != 0 every even-M level is one of a
conjugate pair, so an even-M level is real when zeta == 0.  The rows of
level_rows carry that flag as (E, label, is_real), and qes_spectrum,
duality, the CLI and the critical_coupling probes read the flag they were
given.

As zeta^2 grows, the two largest E_P levels approach each other and merge at
a critical coupling zeta_c^2, beyond which they leave the real axis as a
conjugate pair.  critical_coupling brackets that point with one scan of
(0, 1/2], which holds every merger (zeta_c^2 peaks at 1/4, M = 3), then
bisects on the appearance of an E_P level with Im E != 0; the merged energy
is the top E_P pair's mean.  Near the merger the pair's imaginary part is
rounding-sized, so the test flips a little off zeta_c^2: tol = 1e-300 ends
4.4e-16 to 6.2e-14 relative from it for M = 3..15, and a tol below that
only stops the bisection at adjacent doubles.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import ModelParams, _check, k_index
from .polyengine import EnergyPolynomial, divide_exact, matching_distance, mul
from .recursion import build_P, build_Q, build_R, build_Rbar, recurrence_a, recurrence_b

# Realization threshold for critical polynomials: imaginary parts must sit at
# rounding level, anything bigger signals a broken recursion.
_REALIZE_RTOL = 1e-9

# Two levels closer than this (relative) are reported as degenerate.
DEGENERACY_RTOL = 1e-6

# Largest truncation-identity deviation verify_factorization accepts.
_FACTORIZATION_TOL = 1e-9

# Most matrix entries stacked into one eigvals call: it bounds the memory a
# long sweep adds on top of its output rows.
_STACK_ENTRIES = 1 << 16


class NonRealCriticalPolynomialError(RuntimeError):
    """A critical polynomial came out with non-negligible imaginary parts."""


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
    E_R (k) for even M = 2k."""
    k = M // 2
    if M % 2 == 0:
        return {"E_R": k}
    return {"E_P": k + 1, "E_Q": k} if k else {"E_P": 1}


@functools.lru_cache(maxsize=32)
def _pencil(M: int):
    """(C, S), read-only, with the pencil matrix T(zeta^2) = C + zeta^2 S:
    rows and columns 0..k of T with the last sub-diagonal entry doubled for
    odd M = 2k + 1, rows and columns k..M-1 for even M = 2k.  C holds b_n at
    zeta = 0 and 1 on the super-diagonal; S holds -1 on the diagonal and
    a_n / zeta^2 on the sub-diagonal, all read from the recursion."""
    size = max(_sectors(M).values())
    rows = range(size) if M % 2 else range(size, M)
    free, unit = ModelParams(M, 0.0), ModelParams(M, 1.0)
    C = np.diag([recurrence_b(n, free) for n in rows]) + np.eye(size, k=1)
    S = np.diag([recurrence_a(n, unit) for n in rows[1:]], -1) - np.eye(size)
    if M % 2 and size > 1:
        S[-1, -2] *= 2.0
    C.flags.writeable = False
    S.flags.writeable = False
    return C, S


@functools.lru_cache(maxsize=32)
def _pencil_scale(M: int) -> float:
    """Largest |entry| of S: zeta^2 S overflows exactly when zeta^2 times it does."""
    return float(np.abs(_pencil(M)[1]).max())


def _eigvals(M: int, zetas, labels) -> dict:
    """{label: eigenvalues of that sector block for each zeta in zetas, one
    list of (E, is_real) pairs per coupling}, each level classified here and
    only here.  Each sector of a chunk of at most _STACK_ENTRIES matrix
    entries is one stacked eigvals call.  An even-M level with Im E == 0
    stands in for its own conjugate, so no -0 reaches the output."""
    C, S = _pencil(M)
    sizes = _sectors(M)
    zeta = np.abs(np.asarray(zetas, dtype=float)).reshape(-1, 1, 1)
    out = {label: [] for label in labels}
    per = max(1, _STACK_ENTRIES // C.size)
    for i in range(0, len(zeta), per):
        z = zeta[i : i + per]
        T = C + np.square(z) * S  # np.square(z) as ModelParams.zeta2
        if M % 2 == 0:
            T = T.astype(complex)
            T.imag[:, 0, 0] = 2 * len(C) * z[:, 0, 0]  # i sqrt(-a_k) = 2i k |zeta|
        for label, values in out.items():
            size = sizes[label]
            rows = np.linalg.eigvals(T[:, :size, :size]).astype(complex, copy=False).tolist()
            if M % 2:
                values.extend([(E, E.imag == 0.0) for E in row] for row in rows)
            else:
                values.extend(
                    [(F, free) for E in row for F in (E, E.conjugate() if E.imag else E)]
                    for row, free in zip(rows, (z[:, 0, 0] == 0.0).tolist())
                )
    return out


def _level_key(row):
    E, label, _ = row
    return E.real, E.imag, label


def level_rows(M: int, zetas) -> list:
    """For each zeta in zetas, the M solvable levels as (E, label, is_real)
    rows, ascending by (Re E, Im E, label); is_real is the flag _eigvals
    gave the level.  Row i equals the levels of
    qes_spectrum(ModelParams(M, zetas[i])), bit for bit.  ValueError when
    some zeta^2 S overflows."""
    z = float(max(map(abs, zetas), default=0.0))
    if not math.isfinite(z * z * _pencil_scale(M)):
        raise ValueError(f"zeta^2={z * z!r} overflows the M={M} sector matrix")
    sectors = _eigvals(M, zetas, _sectors(M)).items()
    return [
        sorted(((E, label, real) for label, values in sectors for E, real in values[i]), key=_level_key)
        for i in range(len(zetas))
    ]


def qes_spectrum(params: ModelParams) -> QesSpectrum:
    """All M solvable levels, ascending by (Re E, Im E).

    Odd M: eigenvalues of the two sector blocks, labelled E_P / E_Q.
    Even M: eigenvalues of the half-size complex block and their
    conjugates, labelled E_R.
    """
    levels = tuple(QesLevel(*row) for row in level_rows(params.M, [params.zeta])[0])
    return QesSpectrum(params=params, levels=levels)


def _p_levels(M: int, zeta2: float) -> list:
    return _eigvals(M, [math.sqrt(zeta2)], ("E_P",))["E_P"][0]


def _has_complex_p_level(M: int, zeta2: float) -> bool:
    return not all(real for _, real in _p_levels(M, zeta2))


def critical_coupling(M: int, tol: float = 1e-10) -> CriticalCoupling:
    """Smallest zeta^2 > 0 at which the top two E_P levels merge into a
    conjugate pair, and their mean there.  One scan of zeta^2 = 0.5 i / 200
    brackets it: zeta_c^2 peaks at exactly 1/4 (M = 3), and M zeta_c falls
    toward the Mathieu double point 1.4688, so (0, 1/2] holds every merger.
    Bisection on "an E_P level has Im E != 0" then narrows the bracket.
    That test flips slightly off the merger, so the result is good to
    4.4e-16 to 6.2e-14 relative for M = 3..15; a smaller tol only stops at
    adjacent doubles.  M = 1 has no finite critical coupling."""
    k_index(M)  # validates odd positive M
    if not (tol > 0):
        raise ValueError(f"tol must be positive, got {tol!r}")
    if M == 1:
        return CriticalCoupling(M=M, zeta_c_squared=math.inf)

    lo = 0.0
    for i in range(1, 201):
        up = 0.5 * i / 200
        if _has_complex_p_level(M, up):
            break
        lo = up
    else:
        raise RuntimeError(f"no complex E_P level found for M={M} up to zeta^2=0.5")

    while up - lo > tol:
        mid = 0.5 * (lo + up)
        if mid in (lo, up):  # lo and up are adjacent doubles; tol is below their spacing
            break
        if _has_complex_p_level(M, mid):
            up = mid
        else:
            lo = mid
    zc2 = 0.5 * (lo + up)

    below, top = sorted(E.real for E, _ in _p_levels(M, zc2))[-2:]
    return CriticalCoupling(M=M, zeta_c_squared=zc2, degenerate_energy=0.5 * (below + top))


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
    """True when the level multiset is exactly closed under conjugation and,
    for zeta != 0, no level is real."""
    if params.M % 2 != 0:
        raise ValueError(f"even_M_pairing needs even M, got {params.M}")
    spec = qes_spectrum(params)
    if matching_distance(spec.energies, [z.conjugate() for z in spec.energies]) != 0.0:
        return False
    return params.zeta == 0 or not any(lvl.is_real for lvl in spec.levels)
