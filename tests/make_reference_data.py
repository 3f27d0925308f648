"""Writes tests/reference_data.json, the multi-precision references that
tests/test_spectra.py and tests/test_norms.py compare the library against.

    python tests/make_reference_data.py            # about 15 minutes on one core

Everything here is mpmath on the unbalanced recursion blocks, written out
from a_n = -4 n (M - n) zeta^2 and b_n = 4 n (M - 1 - n) + 2M - 1 - zeta^2
with the double zeta^2 the library computes, so it shares no code with
ptqes:

  levels   50-digit eigenvalues of the sector blocks (E_P: rows 0..k of the
           R Jacobi matrix T with the last sub-diagonal entry doubled, E_Q:
           rows 0..k-1, for odd M = 2k + 1; for even M = 2k, rows k..M-1 with
           2ik sqrt(zeta^2) added to the first diagonal entry, and their
           conjugates), and the number of real levels for odd M;
  weights  the solution of the moment system sum_k omega_k R_j(E_k) =
           delta_j0, j < M, over those levels, solved at two precisions that
           agree to 1e-30 of the largest weight, each summing to 1 within
           1e-30; the precision grows in steps of 100 digits until they do
           and the system resolves the closest E_P / E_Q pair;
  critical zeta_c^2 of the first E_P merger at large odd M: the zero of the
           squared gap Re((E_top - E_below)^2) of the two E_P eigenvalues
           with the largest real parts, found by mp.findroot (secant) from
           g = M zeta = 1.468 and 1.472 at 60 and at 80 digits, which agree
           to 1e-40.
"""

import json
import math
import os
import sys

import mpmath as mp

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_data.json")

# (M, g = M zeta) cells of the level reference.
LEVEL_M = (21, 41, 61, 81, 20, 40, 80)
LEVEL_G = (1, 5, 10, 20, 30, 36.7)

# zeta of the weight reference cells: odd M up to 41 at g up to 10, even M
# at the norms benchmark's couplings (M = 6 at 0.005 among them), the
# cells where the gap guard that preceded the eigenvector weights refused
# or missed, and odd M up to 81 at g up to 20.
WEIGHT_CELLS = (
    [(M, g / M) for M in (7, 9, 15, 21, 41) for g in (0.5, 1, 2, 5, 10)]
    + [(M, math.sqrt(z2)) for M in (2, 4, 6) for z2 in (0.001, 0.005, 0.01, 0.03, 0.1, 0.3)]
    + [(7, math.sqrt(0.005)), (7, math.sqrt(0.01)), (7, math.sqrt(0.02))]
    + [(21, 1e6), (15, 1e8), (5, 1e6), (9, 1e4), (21, 100.0)]
    + [(41, 20 / 41)] + [(M, g / M) for M in (61, 81) for g in (1, 10, 20)]
)

# odd M of the critical-coupling reference.
CRITICAL_M = (41, 81)

# Below this |Im E| / |E| a 50-digit eigenvalue of a real block is real.
REAL_RTOL = mp.mpf(10) ** -35


def a_n(n, M, z2):
    return -4 * n * (M - n) * z2


def b_n(n, M, z2):
    return 4 * n * (M - 1 - n) + 2 * M - 1 - z2


def sector_blocks(M, z2):
    """{label: block} of the unbalanced R Jacobi matrix at the exact value
    of the double z2: diagonal b_n, 1 above it, a_n below it."""
    k = M // 2
    first, sizes = (0, {"E_P": k + 1, "E_Q": k}) if M % 2 else (k, {"E_R": k})
    out = {}
    for label, size in sizes.items():
        if size == 0:
            continue
        A = mp.matrix(size, size)
        for i in range(size):
            A[i, i] = b_n(first + i, M, z2)
            if i:
                A[i - 1, i] = 1
                A[i, i - 1] = a_n(first + i, M, z2)
        if label == "E_P" and size > 1:
            A[size - 1, size - 2] *= 2
        if label == "E_R":
            A[0, 0] += 2j * k * mp.sqrt(z2)
        out[label] = A
    return out


def sector_levels(M, z2):
    """[(E, label)] of every level; an E_R eigenvalue is followed by its
    conjugate."""
    out = []
    for label, A in sector_blocks(M, z2).items():
        vals = [A[0, 0]] if A.rows == 1 else mp.eig(A, left=False, right=False)
        for E in vals:
            out.append((mp.mpc(E), label))
            if label == "E_R":
                out.append((mp.conj(E), label))
    return out


def moment_weights(M, z2, dps):
    with mp.workdps(dps):
        z2 = mp.mpf(z2)
        levels = sector_levels(M, z2)
        V = mp.matrix(M, M)
        for col, (E, _) in enumerate(levels):
            prev, cur = mp.mpc(0), mp.mpc(1)
            for j in range(M):
                V[j, col] = cur
                prev, cur = cur, (E - b_n(j, M, z2)) * cur - a_n(j, M, z2) * prev
        rhs = mp.matrix(M, 1)
        rhs[0] = 1
        w = mp.lu_solve(V, rhs)
        return [(E, label, w[i]) for i, (E, label) in enumerate(levels)]


def weight_cell(M, zeta):
    z2 = zeta * zeta  # ModelParams.zeta2
    dps = 0
    while True:
        dps += 100
        try:
            lo, hi = moment_weights(M, z2, dps), moment_weights(M, z2, dps + 60)
        except ZeroDivisionError:  # levels of two sectors closer than 10^-dps
            continue
        with mp.workdps(dps):
            scale = max(abs(w) for _, _, w in hi)
            tight = mp.mpf(10) ** -30 * scale
            agree = True
            for E, label, w in lo:
                F, _, v = min((row for row in hi if row[1] == label), key=lambda row: abs(row[0] - E))
                agree = agree and abs(E - F) <= tight * (1 + abs(E)) and abs(w - v) <= tight
            sums = all(abs(sum(w for _, _, w in ws) - 1) <= mp.mpf(10) ** -30 for ws in (lo, hi))
        if agree and sums:
            break
    rows = [{"label": label, "E": _pair(E), "w": _pair(w)} for E, label, w in hi]
    return {"M": M, "zeta": zeta, "dps": [dps, dps + 60], "rows": rows}


def level_cell(M, g):
    zeta = g / M
    z2 = zeta * zeta
    with mp.workdps(50):
        levels = [E for E, _ in sector_levels(M, mp.mpf(z2))]
        real = sum(abs(E.imag) <= REAL_RTOL * abs(E) for E in levels) if M % 2 else None
        levels.sort(key=lambda E: (E.real, E.imag))
        return {"M": M, "g": g, "zeta": zeta, "real_count": real, "levels": [_pair(E) for E in levels]}


def top_gap2(M, z2):
    """Re((E_top - E_below)^2) of the two E_P eigenvalues with the largest
    real parts: smooth in z2, positive below the merger, negative past it."""
    values = mp.eig(sector_blocks(M, z2)["E_P"], left=False, right=False)
    below, top = sorted(values, key=lambda E: E.real)[-2:]
    return mp.re((top - below) ** 2)


def critical_cell(M):
    roots = []
    for dps in (60, 80):
        with mp.workdps(dps):
            start = [(mp.mpf(g) / M) ** 2 for g in ("1.468", "1.472")]
            roots.append(mp.findroot(lambda z2: top_gap2(M, z2), start))
    with mp.workdps(80):
        if not abs(roots[0] - roots[1]) <= mp.mpf(10) ** -40 * roots[1]:
            raise ArithmeticError(f"zeta_c^2 of M={M}: {roots[0]} at 60 digits, {roots[1]} at 80")
    return {"M": M, "dps": [60, 80], "zeta_c_squared": float(roots[1])}


def _pair(z):
    z = mp.mpc(z)
    return [float(z.real), float(z.imag)]


def main():
    data = {"levels": [], "weights": [], "critical": []}
    for M in LEVEL_M:
        for g in LEVEL_G:
            data["levels"].append(level_cell(M, g))
            print("levels", M, g, file=sys.stderr, flush=True)
    for M, zeta in WEIGHT_CELLS:
        data["weights"].append(weight_cell(M, zeta))
        print("weights", M, zeta, data["weights"][-1]["dps"], file=sys.stderr, flush=True)
    for M in CRITICAL_M:
        data["critical"].append(critical_cell(M))
        print("critical", M, file=sys.stderr, flush=True)
    with open(OUT, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
