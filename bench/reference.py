"""Independent 40-digit reference for the benchmark's checks.

Nothing here imports ptqes.  Everything is built from the paper's real
recursion for the weakly orthogonal family,

    R_{n+1} = (E - b_n) R_n - a_n R_{n-1},
    a_n = -4 n (M - n) zeta^2,   b_n = 4 n (M - 1 - n) + 2M - 1 - zeta^2,

whose first M members make the M x M Jacobi matrix T with diagonal b_n and
off-diagonal entries sqrt(a_n).  T is centrosymmetric, so the change of
basis to vectors symmetric and antisymmetric under index reversal splits it
into two blocks; for odd M = 2k + 1 these hold the k + 1 levels labelled E_P
and the k levels labelled E_Q.  Levels are mpmath eigenvalues of those
blocks (of T itself for even M, labelled E_R).  The critical coupling is the
first merger in the symmetric block, the regular solution of
p(E, zeta^2) = dp/dE = 0 for its characteristic polynomial p.  Weights solve
the moment system sum_k w_k R_j(E_k) = delta_j0 on the reference support.

Regenerate the stored reference (about a minute):

    python3 bench/reference.py

and run the closed-form self-check without writing anything:

    python3 bench/reference.py --check
"""

import argparse
import json
import os
import sys

import mpmath as mp

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads as wl  # noqa: E402

mp.mp.dps = 40
HERE = os.path.dirname(os.path.abspath(__file__))
REF_DIR = os.path.join(HERE, "reference")


def a_coef(n, M, z2):
    return -4 * n * (M - n) * z2


def b_coef(n, M, z2):
    return 4 * n * (M - 1 - n) + 2 * M - 1 - z2


def jacobi(M, z2):
    T = mp.matrix(M, M)
    for n in range(M):
        T[n, n] = b_coef(n, M, z2)
    for n in range(1, M):
        off = mp.sqrt(mp.mpc(a_coef(n, M, z2)))
        T[n - 1, n] = off
        T[n, n - 1] = off
    return T


def reversal_bases(M):
    """Orthonormal bases of the vectors with Jv = v and with Jv = -v."""
    half = M // 2
    r = 1 / mp.sqrt(2)
    sym = mp.matrix(M, half + M % 2)
    anti = mp.matrix(M, half)
    for i in range(half):
        sym[i, i] = sym[M - 1 - i, i] = r
        anti[i, i] = r
        anti[M - 1 - i, i] = -r
    if M % 2:
        sym[half, half] = 1
    return sym, anti


def eigenvalues(A):
    vals = [A[0, 0]] if A.rows == 1 else mp.eig(A, left=False, right=False)
    return sorted((mp.mpc(v) for v in vals), key=lambda z: (z.real, z.imag))


def levels(M, z2):
    """{label: ascending levels} at 40 digits."""
    z2 = mp.mpf(z2)
    T = jacobi(M, z2)
    if M % 2 == 0:
        return {"E_R": eigenvalues(T)}
    sym, anti = reversal_bases(M)
    out = {"E_P": eigenvalues(sym.T * T * sym)}
    if M > 1:
        out["E_Q"] = eigenvalues(anti.T * T * anti)
    return out


def _sym_block_poly(M, E, z2):
    """p and dp/dE for the symmetric block, by its three-term recurrence.

    Its diagonal is b_0 .. b_k and the off-diagonal products are a_1 ..
    a_{k-1} and 2 a_k (the middle basis vector is not halved)."""
    k = (M - 1) // 2
    f_prev, f = mp.mpf(0), mp.mpf(1)
    g_prev, g = mp.mpf(0), mp.mpf(0)
    for j in range(k + 1):
        prod = 0 if j == 0 else a_coef(j, M, z2) * (2 if j == k else 1)
        f_next = (E - b_coef(j, M, z2)) * f - prod * f_prev
        g_next = f + (E - b_coef(j, M, z2)) * g - prod * g_prev
        f_prev, f, g_prev, g = f, f_next, g, g_next
    return f, g


def _has_complex_p_level(M, z2):
    return any(abs(z.imag) > mp.mpf(10) ** -20 * abs(z) for z in levels(M, z2)["E_P"])


def critical(M):
    """(zeta_c^2, merged energy) of the first E_P merger, to 40 digits."""
    with mp.workdps(25):
        step = mp.mpf(1) / (50 * M * M)
        z2 = step
        while not _has_complex_p_level(M, z2):
            z2 += step
            if z2 > mp.mpf(10) / (M * M):
                raise RuntimeError(f"no merger found for M={M}")
        lo, hi = z2 - step, z2
        for _ in range(30):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if _has_complex_p_level(M, mid) else (mid, hi)
        E_P = [z.real for z in levels(M, lo)["E_P"]]
    pair = min(range(len(E_P) - 1), key=lambda i: E_P[i + 1] - E_P[i])
    E0 = (E_P[pair] + E_P[pair + 1]) / 2
    E, zc2 = mp.findroot(lambda E, z: _sym_block_poly(M, E, z), (E0, lo))
    return mp.re(zc2), mp.re(E)


def r_values(M, z2, E):
    """R_0(E) .. R_{M-1}(E)."""
    out = [mp.mpc(1), E - b_coef(0, M, z2)]
    for n in range(1, M - 1):
        out.append((E - b_coef(n, M, z2)) * out[n] - a_coef(n, M, z2) * out[n - 1])
    return out[:M]


def weights(M, z2):
    z2 = mp.mpf(z2)
    support = eigenvalues(jacobi(M, z2))
    A = mp.matrix(M, M)
    for k, E in enumerate(support):
        for j, v in enumerate(r_values(M, z2, E)):
            A[j, k] = v
    rhs = mp.matrix(M, 1)
    rhs[0] = 1
    w = mp.lu_solve(A, rhs)
    return support, [w[k] for k in range(M)]


def gammas(M, z2):
    out, acc = [mp.mpf(1)], mp.mpf(1)
    for n in range(1, M + 1):
        acc *= a_coef(n, M, mp.mpf(z2))
        out.append(acc)
    return out


def pq_gram(M, z2):
    """Gram diagonals of the truncating P and Q families: running products
    of their recursion's P_{n-2} (Q_{n-2}) coefficients, from the paper's

        P_n = [...] P_{n-1} - 8i zeta (n-1)(2n-3)(M+3-2s-2n) P_{n-2},  s = 0
        Q_n = [...] Q_{n-1} - 8i zeta (n-1)(2n-1)(M+2-2s-2n) Q_{n-2},  s = 1/2
    """
    k = (M - 1) // 2
    zeta = mp.sqrt(mp.mpf(z2))

    def products(tail, count):
        out, acc = [mp.mpc(1)], mp.mpc(1)
        for n in range(2, count + 1):
            acc *= tail(n)
            out.append(acc)
        return out

    p = products(lambda n: 8j * zeta * (n - 1) * (2 * n - 3) * (M + 3 - 2 * n), k + 1)
    q = products(lambda n: 8j * zeta * (n - 1) * (2 * n - 1) * (M + 1 - 2 * n), k)
    return p, q


def _c(z):
    z = mp.mpc(z)
    return [float(z.real), float(z.imag)]


def _levels_json(lv):
    return {label: [_c(z) for z in vals] for label, vals in lv.items()}


def generate():
    crit = {M: critical(M) for M in wl.ZC2_PLACEMENT}
    spectrum = []
    for M in wl.SPECTRUM_ODD_M + wl.SPECTRUM_EVEN_M:
        below, above = wl.spectrum_points(M)
        for z2 in below + above:
            spectrum.append({"M": M, "zeta2": z2, "levels": _levels_json(levels(M, z2))})
    sweep = {str(M): [_levels_json(levels(M, z2)) for z2 in wl.sweep_values(M)] for M in wl.SWEEP_GRIDS}
    norms = []
    for M in wl.NORMS_M:
        below, above = wl.norms_points(M)
        for z2 in below + above:
            support, w = weights(M, z2)
            entry = {
                "M": M,
                "zeta2": z2,
                "support": [_c(z) for z in support],
                "weights": [_c(z) for z in w],
                "gamma": [float(g) for g in gammas(M, z2)],
            }
            if M % 2:
                p, q = pq_gram(M, z2)
                entry["pq_norms"] = {"P": [_c(z) for z in p], "Q": [_c(z) for z in q]}
            norms.append(entry)
    critical_json = {
        str(M): {"zeta_c_squared": float(zc), "degenerate_energy": float(E)} for M, (zc, E) in crit.items()
    }
    return {
        "spectrum": {"critical": critical_json, "points": spectrum},
        "sweep": {"critical": critical_json, "grids": sweep},
        "critical": {"critical": critical_json},
        "norms": {"critical": critical_json, "points": norms},
    }


def self_check():
    """Closed forms the reference must reproduce; returns a list of faults."""
    faults = []
    tight = mp.mpf(10) ** -30

    def expect(what, got, want):
        if abs(got - want) > tight * (1 + abs(want)):
            faults.append(f"{what}: {mp.nstr(got, 20)} != {mp.nstr(want, 20)}")

    for z2 in ("0", "0.01", "0.2", "0.3", "1.5"):
        z2 = mp.mpf(z2)
        expect(f"M=1 zeta2={z2}", levels(1, z2)["E_P"][0], 1 - z2)
        lv = levels(3, z2)
        r = mp.sqrt(mp.mpc(1 - 4 * z2))
        for want in (7 - z2 - 2 * r, 7 - z2 + 2 * r):
            got = min(lv["E_P"], key=lambda z: abs(z - want))
            expect(f"M=3 E_P zeta2={z2}", got, want)
        expect(f"M=3 E_Q zeta2={z2}", lv["E_Q"][0], 5 - z2)
    for M in range(1, 16):
        got = sorted(z.real for vals in levels(M, 0).values() for z in vals)
        want = sorted(b_coef(n, M, 0) for n in range(M))
        for g, w in zip(got, want):
            expect(f"M={M} zeta=0", g, w)
    zc2, E = critical(3)
    expect("zeta_c^2(3)", zc2, mp.mpf(1) / 4)
    expect("merged energy M=3", E, mp.mpf(27) / 4)
    return faults


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="run the closed-form self-check only")
    args = parser.parse_args(argv)
    faults = self_check()
    for f in faults:
        print("FAULT", f, file=sys.stderr)
    if faults:
        return 1
    print("self-check passed: M=1, M=3 closed forms, zeta=0 levels b_n, zeta_c^2(3) = 1/4")
    if args.check:
        return 0
    os.makedirs(REF_DIR, exist_ok=True)
    for name, data in generate().items():
        path = os.path.join(REF_DIR, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))
            fh.write("\n")
        print("wrote", os.path.relpath(path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
