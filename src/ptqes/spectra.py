"""Quasi-exactly-solvable spectra, critical polynomials and critical couplings.

The solvable levels are the zeros of R_M, so they are the eigenvalues of the
real M x M Jacobi matrix T of the R recursion: diagonal b_n, super-diagonal
1, sub-diagonal a_n.  Its eigenvalues depend on the off-diagonal entries
only through their products a_n, and b_n = b_{M-1-n}, a_n = a_{M-n}, so for
odd M = 2k + 1 the index reflection splits T into two real blocks:

  E_P: the leading (k+1) x (k+1) block with its last sub-diagonal entry
       doubled to 2 a_k; its characteristic polynomial is P_{k+1};
  E_Q: the leading k x k block; its characteristic polynomial is Q_k.

Expanding those determinants along the last row gives the critical
polynomials from the real R recursion: Q_k = R_k and
P_{k+1} = (E - b_k) R_k - 2 a_k R_{k-1} = R_{k+1} - a_k R_{k-1}.  The
complex P and Q families serve the truncation identities
(check_factorization) and the sector norms.

For even M = 2k, T symmetrised (off-diagonal entries i sqrt(-a_n)) splits
the same way into two k x k complex blocks that are conjugates of each
other.  The E_R levels are the eigenvalues of the trailing half of T (rows
and columns k..M-1) with i sqrt(-a_k) = 2i k |zeta| added to its first
diagonal entry, and their conjugates.

Each block is solved in its balanced form B = D^-1 T D, D diagonal, with
-sqrt(-a_n) above the diagonal and +sqrt(-a_n) below it: T is far from
normal at large g = M zeta and lost up to 1.9e-2 there, B keeps about
1e-14.  Each M has one pencil B(zeta) = C + |zeta| S (_pencil), and a level
is an eigenvalue of B(zeta) minus zeta^2.  oracle.verify_gauge stays on
numpy.linalg.eigvals and shares no code with this route.

As zeta^2 grows, the two largest E_P levels merge at a critical coupling
zeta_c^2 (critical_coupling), beyond which they leave the real axis as a
conjugate pair.
"""

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .model import ModelParams, _check, _rank, k_index
from .polyengine import EnergyPolynomial, mul
from .recursion import build_bar, build_P, build_Q, build_R, recurrence_a, recurrence_b

# Two levels closer than this, relative to 1 + the spread of the level set,
# are reported as degenerate.
DEGENERACY_RTOL = 1e-6

# Largest truncation-identity deviation verify_factorization accepts.
_FACTORIZATION_TOL = 1e-12

# check_factorization checks each identity for n = 1.._N_EXTRA.
_N_EXTRA = 4

# Most matrix entries stacked into one eigvals call: it bounds the memory a
# long sweep adds on top of its output rows.
_STACK_ENTRIES = 1 << 16

# The LAPACK geev gufuncs behind numpy.linalg.eigvals and numpy.linalg.eig:
# at these block sizes the wrappers' checks and casts cost several times the
# solve.  The block's dtype picks the loop: float64 for the odd-M blocks,
# complex128 for the even-M block (_pencil).  They skip the wrappers'
# finiteness check; every block is finite because each caller reads its
# coupling through _checked_coupling, or, in critical_coupling, solves only
# zeta^2 in [0, 1/2].  Every call runs under _GEEV_ERRSTATE, which keeps the
# wrappers' other guarantee.
_geev = _umath_linalg.eigvals
_geev_vectors = _umath_linalg.eig

# _top_gap2's sort key: a C-level getter in place of a Python lambda.
_REAL_PART = operator.attrgetter("real")

# _eig's products x_n * x_n, mapped at C level in place of a generator.
_MUL = operator.mul

# Relative machine precision, in _zeroin's stopping width (4 eps + tol) |b|
# and norms.weights' rounding bound.
_EPS = float(np.finfo(float).eps)


def _raise_nonconvergence(err, flag):
    """errstate call handler: geev flags a block that did not converge as
    invalid and returns NaN eigenvalues for it."""
    raise LinAlgError("Eigenvalues did not converge")


# numpy.linalg's errstate for geev: a block that does not converge raises
# LinAlgError, never a warning or a NaN level.  geev may raise other flags
# next to invalid, whose warnings would come before the LinAlgError.
_GEEV_ERRSTATE = dict(call=_raise_nonconvergence, invalid="call", over="ignore", divide="ignore", under="ignore")


@dataclass(frozen=True, init=False)
class QesLevel:
    """One level; its __init__ fills __dict__ as ModelParams' does."""

    E: complex
    label: str
    is_real: bool

    def __init__(self, E: complex, label: str, is_real: bool):
        fields = self.__dict__
        fields["E"] = E
        fields["label"] = label
        fields["is_real"] = is_real


@dataclass(frozen=True, init=False)
class QesSpectrum:
    params: ModelParams
    levels: tuple

    def __init__(self, params: ModelParams, levels: tuple):
        fields = self.__dict__
        fields["params"] = params
        fields["levels"] = levels

    @property
    def energies(self):
        return tuple(lvl.E for lvl in self.levels)

    @property
    def degenerate_pairs(self):
        """degenerate_pairs of the energies, computed when read."""
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


def critical_polynomials(params: ModelParams):
    """(P_{k+1}, Q_k) for odd M = 2k + 1, the characteristic polynomials of
    the E_P and E_Q blocks, built from the R recursion as the module
    docstring derives them, so their coefficients are real.  Q_0 is the
    constant 1 (no odd-sector level for M = 1)."""
    k = k_index(params.M)
    R = [np.real(r.coeffs) for r in build_R(params, k + 1)]
    p_crit = R[k + 1].copy()
    if k:
        p_crit[:k] -= recurrence_a(k, params) * R[k - 1]
    return EnergyPolynomial(tuple(p_crit)), EnergyPolynomial(tuple(R[k]))


def degenerate_pairs(energies):
    """Index pairs (i, j), i < j, with |E_i - E_j| <= DEGENERACY_RTOL *
    (1 + (max Re E - min Re E) + (max Im E - min Im E)).

    The spread follows every level's absolute rounding error (about
    eps ||B||) and is unchanged by a shift or a negation of the levels, so
    the -zeta^2 shift cannot make levels far apart look degenerate:
    at M = 3, zeta^2 = 1e18 the E_P pair -1e18 +- 4e9i and the E_Q level
    are no pair.
    """
    n = len(energies)
    if n < 2:
        return ()
    real = [E.real for E in energies]
    im = [E.imag for E in energies]
    bound = DEGENERACY_RTOL * (1.0 + (max(real) - min(real)) + (max(im) - min(im)))
    return tuple((i, j) for i in range(n) for j in range(i + 1, n) if abs(energies[i] - energies[j]) <= bound)


@functools.lru_cache(maxsize=32, typed=True)
def _sectors(M: int):
    """{label: size}, read-only, of the sector blocks, each the leading
    size x size block of the pencil: E_P (k + 1) and E_Q (k, when k > 0)
    for odd M = 2k + 1, E_R (k) for even M = 2k."""
    k = M // 2
    if M % 2 == 0:
        return MappingProxyType({"E_R": k})
    return MappingProxyType({"E_P": k + 1, "E_Q": k} if k else {"E_P": 1})


@functools.lru_cache(maxsize=32, typed=True)
def _pencil(M: int):
    """(C, S), read-only, of the balanced sector block B(zeta) = C + |zeta| S:
    rows 0..k of T with E_P's a_k doubled for odd M = 2k + 1, rows k..M-1
    for even M = 2k.  C = diag(b_n at zeta = 0); S has -sqrt(-a_n / zeta^2)
    above the diagonal, +sqrt(-a_n / zeta^2) below it, and for even M
    i sqrt(-a_k) / |zeta| = 2ik at [0, 0], which makes the even-M block
    complex128 and each odd-M block float64.  In the other sign order geev
    splits the exact double level of M = 3, zeta^2 = 1/4 by 1.2e-7.  The
    typed cache refuses M = 3.0 rather than serve the entry of M = 3."""
    free, unit = ModelParams(M, 0.0), ModelParams(M, 1.0)
    size = max(_sectors(M).values())
    rows = range(size) if M % 2 else range(size, M)
    off = np.sqrt([-recurrence_a(n, unit) for n in rows[1:]])
    if M % 2 and size > 1:
        off[-1] *= math.sqrt(2.0)  # E_P's doubled a_k
    C = np.diag([recurrence_b(n, free) for n in rows])
    S = np.diag(off, -1) - np.diag(off, 1)
    if M % 2 == 0:
        S = S + np.diag([2j * size] + [0] * (size - 1))
    C.flags.writeable = False
    S.flags.writeable = False
    return C, S


@functools.lru_cache(maxsize=32, typed=True)
def _shifted_p_block(M: int):
    """C - b_k I, read-only, for odd M = 2k + 1: _pencil's E_P block at
    zeta = 0 shifted by its last diagonal entry b_k, built once per M for
    _top_gap2, which adds |zeta| S to it."""
    C, _ = _pencil(M)
    A = C - C[-1, -1] * np.eye(len(C))
    A.flags.writeable = False
    return A


def _eig(M: int, zeta: float) -> list:
    """The M levels at one coupling as (E, label, omega, kappa) rows, in
    level_rows' order and with its bits, from one solve with vectors of
    each sector block B(zeta) (Golub & Welsch, Math. Comp. 23 (1969) 221).
    B^T = S B S with S = diag((-1)^n), so an eigenvector x gives the weight
    omega = fold x_r^2 / x^T S x and the condition number
    kappa = ||x||^2 / |x^T S x|.  geev returns every eigenvector with
    ||x|| = 1 (to 8.9e-16 over M = 1..41, 61, 80, 81, 161), so
    kappa = 1 / |x^T S x|, inf where x^T S x == 0, and omega is NaN there.
    x_r is x's component on row 0 of T: the block's row 0 for odd M, with
    fold 1/2 from the reflection split (1 at M = 1, which has none); for
    even M = 2k the block's last row, row M - 1 of T reflected onto row 0,
    with fold (-1)^(k-1) / 2.  An even-M level's conjugate row carries
    conj(omega) and the same kappa.  A real odd-M level's omega has Im +0:
    its vector is complex with Im +0, and (a + 0j)^2 has Im -0 for a < 0.
    Raises as _checked_coupling before any solve."""
    z = _one_coupling(M, zeta)
    C, S = _pencil(M)
    B, s, rows = C + z * S, z * z, []
    lead = 0 if M % 2 else len(C) - 1
    fold = 0.5 * (-1) ** lead if M > 1 else 1.0
    with np.errstate(**_GEEV_ERRSTATE):
        for label, size in _sectors(M).items():
            levels, X = _geev_vectors(B[:size, :size])
            for E, x in zip(levels.tolist(), X.T.tolist()):
                even, odd = x[::2], x[1::2]
                E, den = E - s, sum(map(_MUL, even, even)) - sum(map(_MUL, odd, odd))
                w, kappa = (fold * x[lead] * x[lead] / den, 1.0 / abs(den)) if den else (math.nan, math.inf)
                if M % 2 and not E.imag:
                    w = complex(w.real, w.imag + 0.0)
                rows.append((E, label, w, kappa))
                if M % 2 == 0:
                    rows.append((E.conjugate() if E.imag else E, label, w.conjugate(), kappa))
    rows.sort(key=_level_key)
    return rows


def _level_key(row):
    E = row[0]
    return E.real, E.imag, row[1]


def _checked_coupling(M: int, zetas) -> float:
    """max |zeta| over zetas, a sequence; ValueError when some zeta is not
    finite or M^2 zeta^2 (>= every |a_n|) overflows."""
    if not all(map(math.isfinite, zetas)):
        bad = next(z for z in zetas if not math.isfinite(z))
        raise ValueError(f"non-finite coupling zeta={bad!r} for M={M}")
    z = float(max(map(abs, zetas), default=0.0))
    if not math.isfinite(z * z * M * M):
        raise ValueError(f"zeta^2={z * z!r} overflows the M={M} recursion coefficients")
    return z


def _one_coupling(M: int, zeta) -> float:
    """|zeta| as a float, checked as _checked_coupling checks it, which is
    called, to raise its message, only when M^2 zeta^2 is not finite."""
    z = abs(float(zeta))
    return z if math.isfinite(z * z * M * M) else _checked_coupling(M, (zeta,))


def level_arrays(M: int, zetas):
    """(E, labels, real), three arrays of shape (couplings, M) for zetas, a
    sequence: row i holds coupling i's levels as level_rows gives them, bit
    for bit.  Raises as _checked_coupling before any solve.  Every CLI level
    command reads these arrays, spectrum as a one-coupling stack: solving
    each coupling of a 25-coupling sweep alone was 1.5x (M = 15) to 2.7x
    (M = 3) slower.

    The couplings are solved in stacks of at most _STACK_ENTRIES matrix
    entries, one _geev call per sector, each filling its slice of one
    eigenvalue array in label order.  The whole table is then shifted by
    -z * z; for even M each row is followed by its levels' conjugates, a
    level standing in for its own when Im E == 0.  A stable sort of complex
    values orders each row by (Re E, Im E) and keeps ties in label order,
    which is level_rows' order, and real follows level_rows' reality rule."""
    _checked_coupling(M, zetas)
    C, S = _pencil(M)
    sectors = _sectors(M)
    labels = np.array([label for label, size in sectors.items() for _ in range(size)], dtype=object)
    zeta = np.abs(np.asarray(zetas, dtype=float)).reshape(-1, 1)
    E = np.empty((len(zeta), len(labels)), dtype=complex)
    per = max(1, _STACK_ENTRIES // C.size)
    with np.errstate(**_GEEV_ERRSTATE):
        for i in range(0, len(zeta), per):
            B = C + zeta[i : i + per, :, None] * S
            np.concatenate([_geev(B[:, :size, :size]) for size in sectors.values()], axis=1, out=E[i : i + per])
    E -= zeta * zeta
    if M % 2 == 0:
        labels = labels.repeat(2)
        E = np.concatenate([E, np.where(E.imag != 0.0, E.conj(), E)], axis=1)
    order = np.argsort(E, axis=1, kind="stable")
    E = np.take_along_axis(E, order, axis=1)
    return E, labels[order], (E.imag == 0.0 if M % 2 else np.broadcast_to(zeta == 0.0, E.shape))


def level_rows(M: int, zeta: float) -> list:
    """The M solvable levels at one coupling as (E, label, is_real) rows,
    ascending by (Re E, Im E, label); ValueError when zeta is not finite or
    M^2 zeta^2 (>= every |a_n|) overflows.  qes_spectrum and
    duality.dual_spectrum read these rows.

    Each sector is solved on the 2-D block B = C + |zeta| S, one _geev call,
    and one comprehension shifts and flags every sector's levels before one
    Python sort: a one-coupling level_arrays call with its rows built takes
    24.5 / 34.5 / 35.3 us, against 9.1 / 21.5 / 9.5 us here, at
    M = 3 / 15 / 4 and zeta^2 = 0.01 (best of 5 x 3 x 2000 interleaved
    calls, Python 3.11, numpy 2.4, 2 vCPU).

    E is an eigenvalue minus z * z, z = |zeta|, ModelParams.zeta2's bits;
    _eig and critical_coupling's merged-energy solve subtract it the same
    way, so their levels have these bits.  Reality is read from the
    structure of the solve, with no tolerance.  LAPACK returns a real
    eigenvalue of a real matrix with imaginary part exactly 0, so an odd-M
    level is real when Im E == 0.  At z != 0 every even-M level is one of a
    conjugate pair, so an even-M level is real when z == 0; one with
    Im E == 0 stands in for its own conjugate, so no -0 reaches the
    output."""
    z = _one_coupling(M, zeta)
    C, S = _pencil(M)
    B, s, sectors = C + z * S, z * z, _sectors(M).items()
    with np.errstate(**_GEEV_ERRSTATE):
        if M % 2:
            rows = [(E - s, label, E.imag == 0.0) for label, size in sectors for E in _geev(B[:size, :size]).tolist()]
        else:
            real = z == 0.0
            rows = [
                (F - s, label, real)
                for label, size in sectors
                for E in _geev(B[:size, :size]).tolist()
                for F in ((E, E.conjugate()) if E.imag else (E, E))
            ]
    rows.sort(key=_level_key)
    return rows


def qes_spectrum(params: ModelParams) -> QesSpectrum:
    """All M solvable levels, ascending by (Re E, Im E), labelled E_P / E_Q
    for odd M and E_R for even M."""
    levels = tuple(itertools.starmap(QesLevel, level_rows(params.M, params.zeta)))
    return QesSpectrum(params=params, levels=levels)


def _top_gap2(A, S, zeta2: float) -> float:
    """Re((E_top - E_below)^2) of the two E_P levels with the largest real
    parts at zeta2, from the shifted block A = _shifted_p_block(M) and
    S = _pencil(M)[1]: > 0 while they are real and apart, 0 where they
    merge and -4 (Im E)^2 once they are a conjugate pair, smooth through
    the merger.  The block is solved shifted by its last diagonal entry b_k,
    so the top pair's Schur block has entries of order 1 rather than M^2:
    the rounding noise in the value is about 1e-14, where the unshifted
    block gives 1e-12 (M = 21) to 2e-11 (M = 81).  The shift and a level's
    -zeta^2 cancel in the gap, so neither is added back.

    A probe looks up no cache: critical_coupling binds A and S once per
    call.  Best of 40 x 1000 interleaved probes (Python 3.11, numpy 2.4,
    2 vCPU), it takes 3.5 us at M = 3, 4.8 at M = 7 and 7.1 at M = 11, of
    which _geev is 1.8, 2.9 and 4.6 us."""
    levels = _geev(A + math.sqrt(zeta2) * S).tolist()
    levels.sort(key=_REAL_PART)
    return ((levels[-1] - levels[-2]) ** 2).real


def _zeroin(f, a: float, b: float, fa: float, fb: float, tol: float) -> float:
    """Brent's zeroin (Algorithms for Minimization without Derivatives,
    1973, ch. 4): a zero of f between a and b, given fa = f(a) and
    fb = f(b) of opposite signs or zero, to within (4 eps + tol) |b|, a
    relative width where Brent's tol is absolute.  Each
    step interpolates (inverse quadratic, or linear from two points) when
    that lands well inside the bracket [b, c], and bisects otherwise."""
    c, fc = a, fa
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):  # b is the best point so far, c the other end
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = (2.0 * _EPS + 0.5 * tol) * abs(b)
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * xm * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = f(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a


def critical_coupling(M: int, tol: float = 1e-10) -> CriticalCoupling:
    """Smallest zeta^2 > 0 at which the top two E_P levels merge into a
    conjugate pair, and their mean there.  One scan of zeta^2 = 0.5 i / 200
    stops at the first point where the pair's squared gap _top_gap2 is
    negative: zeta_c^2 peaks at exactly 1/4 (M = 3), and M zeta_c falls
    toward the Mathieu double point 1.4688, so (0, 1/2] holds every merger.
    Brent's zeroin then solves gap^2 = 0 between that point and the one
    before it, from the two values the scan computed (at zeta = 0 the top
    two E_P levels are b_k and b_k - 4, so gap^2 = 16 there with no solve),
    and stops once the bracket is within (tol + 4 eps) zeta_c^2: 6 or 7
    eigen-solves for M = 21..161 at tol=1e-10.  tol is relative to zeta^2,
    so it gives the same digits at every M, and must be positive and
    finite.  Against 40-, 60- and 80-digit roots of the same gap^2, the
    default tol=1e-10 gives zeta_c^2 within 1.7e-11 relative for M = 3..21,
    41 and 81, tol=1e-13 within 2.0e-15, and a tol below the spacing of
    doubles (tol=1e-300) within 6.3e-16.  The merged energy comes from one
    solve of the unshifted pencil C + zeta_c S, which for odd M is the E_P
    block.  M = 1 has no finite critical coupling; a scan that finds no
    negative gap^2 raises RuntimeError.

    The scan is still all 101 probes at M = 3 and 36 of 39 at M = 5; it
    stays until the benchmark's memory reading no longer grows with the
    number of operations a run completes (ROADMAP item 1)."""
    k_index(M)  # validates odd positive M
    if not (0 < tol < math.inf):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if M == 1:
        return CriticalCoupling(M=M, zeta_c_squared=math.inf)

    C, S = _pencil(M)
    gap2 = functools.partial(_top_gap2, _shifted_p_block(M), S)
    lo, g_lo = 0.0, 16.0
    with np.errstate(**_GEEV_ERRSTATE):
        for i in range(1, 201):
            up = 0.5 * i / 200
            g_up = gap2(up)
            if g_up < 0.0:
                break
            lo, g_lo = up, g_up
        else:
            raise RuntimeError(f"the top E_P pair of M={M} does not merge up to zeta^2=0.5")
        zc2 = _zeroin(gap2, lo, up, g_lo, g_up, tol)
        z = math.sqrt(zc2)
        below, top = sorted(E.real - z * z for E in _geev(C + z * S).tolist())[-2:]
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
        return max((c.deviation for c in self.checks), key=_rank, default=0.0)


def _coeff_distance(p: EnergyPolynomial, q: EnergyPolynomial) -> float:
    if p.degree != q.degree:
        raise ValueError("degree mismatch in coefficient comparison")
    scale = max(abs(c) for c in p.coeffs)
    return max((abs(a - b) for a, b in zip(p.coeffs, q.coeffs)), key=_rank) / scale


def check_factorization(params: ModelParams) -> FactorizationReport:
    """Coefficient distances of the truncation identities, each checked as
    a product, for n = 1.._N_EXTRA with the cofactors from build_bar:

      R_{2k+1}  = P_{k+1} * Q_k        (odd M)
      R_{M+n}   = R_M * Rbar_n
      P_{k+1+n} = P_{k+1} * Pbar_n     (odd M)
      Q_{k+n}   = Q_k * Qbar_n         (odd M)
    """
    M = params.M
    r_fam = build_R(params, M + _N_EXTRA)
    identities = [("R = R_M*Rbar", "R", r_fam, M)]
    checks = []
    if M % 2 == 1:
        k = k_index(M)
        p_fam = build_P(params, k + 1 + _N_EXTRA)
        q_fam = build_Q(params, k + _N_EXTRA)
        checks.append(FactorizationCheck("R = P*Q", M, _coeff_distance(r_fam[M], mul(p_fam[k + 1], q_fam[k]))))
        identities += [("P = P_crit*Pbar", "P", p_fam, k + 1), ("Q = Q_crit*Qbar", "Q", q_fam, k)]
    for identity, family, fam, b in identities:
        bar = build_bar(family, params, _N_EXTRA)
        for n in range(1, _N_EXTRA + 1):
            checks.append(FactorizationCheck(identity, n, _coeff_distance(fam[b + n], mul(fam[b], bar[n]))))
    return FactorizationReport(params=params, checks=tuple(checks))


def verify_factorization() -> list:
    """verify --suite factorization: the largest check_factorization
    deviation over zeta^2 in {0.005, 0.02}, one check per M."""
    checks = []
    for m in (1, 2, 3, 4, 5, 7, 21, 41):
        cells = [
            (check_factorization(ModelParams(M=m, zeta=math.sqrt(z2))).max_deviation, f"M={m} zeta2={z2:g}")
            for z2 in (0.005, 0.02)
        ]
        checks.append(_check(f"factorization.M{m}", cells, _FACTORIZATION_TOL, "max_deviation={value:.3e}"))
    return checks


def even_M_pairing(params: ModelParams) -> bool:
    """True when the level multiset is exactly closed under conjugation and,
    for zeta != 0, no level is real."""
    if params.M % 2 != 0:
        raise ValueError(f"even_M_pairing needs even M, got {params.M}")
    spec = qes_spectrum(params)
    if Counter(spec.energies) != Counter(E.conjugate() for E in spec.energies):
        return False
    return params.zeta == 0 or not any(lvl.is_real for lvl in spec.levels)
