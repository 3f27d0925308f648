"""Correctness checks for every operation the benchmark issues.

Values are compared with the stored 40-digit reference (reference.py), never
with a stored copy of the program's own output.  Tolerances are the
program's stated accuracy:

* levels to 1e-8 relative (README: qes_spectrum stays at 1e-8 or better);
* zeta_c^2 to the tol the call was given;
* weights to 1e-8 of the largest weight.

Structural properties are checked alongside: M levels; k + 1 levels E_P and
k levels E_Q for M = 2k + 1; conjugation invariance; the dsg levels are
exactly the negated, reversed dshg levels; the Gram matrix is diag(gamma);
gamma_0 = 1 and gamma_M = 0 exactly; real levels and real weights for odd
M below zeta_c^2.

digits_min is the fewest correct significant digits over everything
compared with the reference, capped at 16.
"""

import csv
import io
import json
import math

import workloads as wl

LEVEL_RTOL = 1e-8
WEIGHT_RTOL = 1e-8
# A reference level counts as real or as complex for the reality check only
# when it is clearly so; levels in between are compared by value alone.
REAL_RTOL = 1e-10
COMPLEX_RTOL = 1e-6
# Conjugate partners agree to rounding: the program solves real-coefficient
# polynomials for odd M and R_M has real coefficients for every M.
CONJ_RTOL = 1e-12
GAMMA_RTOL = 1e-12
DIGITS_CAP = 16.0


def digits(rel_err: float) -> float:
    if rel_err <= 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(rel_err))


def _cplx(pair):
    return complex(pair[0], pair[1])


def _match(got, want):
    """Pair each wanted value with the nearest unused got value (greedy by
    distance); returns [(got, want)] or None when the counts differ."""
    if len(got) != len(want):
        return None
    cands = sorted((abs(g - w), i, j) for i, g in enumerate(got) for j, w in enumerate(want))
    used_g, used_w, pairs = set(), set(), []
    for _, i, j in cands:
        if i not in used_g and j not in used_w:
            used_g.add(i)
            used_w.add(j)
            pairs.append((got[i], want[j]))
    return pairs


def _r_values(M, z2, E):
    """R_0 .. R_{M-1} and their E-derivatives at E, from the paper's
    recursion in double precision."""
    r, dr = [1.0 + 0j, E - (2 * M - 1 - z2)], [0j, 1.0 + 0j]
    for n in range(1, M - 1):
        b = 4 * n * (M - 1 - n) + 2 * M - 1 - z2
        a = -4 * n * (M - n) * z2
        r.append((E - b) * r[n] - a * r[n - 1])
        dr.append(r[n] + (E - b) * dr[n] - a * dr[n - 1])
    return r[:M], dr[:M]


class Checker:
    """Accumulates faults and the digit count for one workload's outputs."""

    def __init__(self, workload: str, reference: dict):
        self.workload = workload
        self.ref = reference
        self.critical = {int(M): v for M, v in reference["critical"].items()}
        if workload in ("spectrum", "norms"):
            self.points = {(p["M"], p["zeta2"]): p for p in reference["points"]}
        self.digits_min = DIGITS_CAP
        self.faults = []
        self.checked = 0

    def fault(self, op, msg):
        self.faults.append(f"{self.workload} {json.dumps(op, sort_keys=True)}: {msg}")

    def check(self, op, out, ptqes=None):
        self.checked += 1
        getattr(self, "_check_" + self.workload)(op, out, ptqes)

    # -- levels ------------------------------------------------------------

    def _levels(self, op, M, z2, got, want, sign=1.0):
        """got: [(E, label, is_real)]; want: reference {label: [[re, im]]}."""
        if len(got) != M:
            self.fault(op, f"{len(got)} levels for M={M}")
            return
        labels = {}
        for E, label, is_real in got:
            labels.setdefault(label, []).append((E, is_real))
        expected_counts = {label: len(vals) for label, vals in want.items()}
        if {k: len(v) for k, v in labels.items()} != expected_counts:
            self.fault(op, f"label counts {sorted((k, len(v)) for k, v in labels.items())}, want {sorted(expected_counts.items())}")
            return
        energies = [E for E, _, _ in got]
        for E, partner in _match(energies, [E.conjugate() for E in energies]):
            if abs(E - partner) > CONJ_RTOL * (1.0 + abs(E)):
                self.fault(op, f"level set is not closed under conjugation: {E!r} vs {partner!r}")
        zc = self.critical.get(M, {}).get("zeta_c_squared", math.inf) if M % 2 else None
        for label, vals in labels.items():
            ref = [sign * _cplx(p) for p in want[label]]
            pairs = _match([v[0] for v in vals], ref)
            for E, E_ref in pairs:
                rel = abs(E - E_ref) / abs(E_ref)
                self.digits_min = min(self.digits_min, digits(rel))
                if rel > LEVEL_RTOL:
                    self.fault(op, f"{label} level {E!r} vs reference {E_ref!r}: rel err {rel:.2e} > {LEVEL_RTOL:.0e}")
            for (E, is_real) in vals:
                E_ref = min(ref, key=lambda z: abs(z - E))
                size = 1.0 + abs(E_ref)
                if zc is not None and z2 < zc and not is_real:
                    self.fault(op, f"{label} level {E!r} flagged complex below zeta_c^2={zc}")
                elif abs(E_ref.imag) <= REAL_RTOL * size and not is_real:
                    self.fault(op, f"{label} level {E!r} flagged complex, reference is real")
                elif abs(E_ref.imag) >= COMPLEX_RTOL * size and is_real:
                    self.fault(op, f"{label} level {E!r} flagged real, reference {E_ref!r} is not")

    def _check_spectrum(self, op, spec, ptqes):
        M, z2 = op["M"], op["zeta2"]
        want = self.points[(M, z2)]["levels"]
        if op["model"] == "dsg":
            got = [(lvl.Ehat, lvl.label, lvl.is_real) for lvl in spec.levels]
            self._levels(op, M, z2, got, want, sign=-1.0)
            base = ptqes.qes_spectrum(ptqes.ModelParams(M=M, zeta=math.sqrt(z2)))
            mirrored = [-lvl.E for lvl in reversed(base.levels)]
            if [lvl.Ehat for lvl in spec.levels] != mirrored:
                self.fault(op, "dsg levels are not exactly the negated, reversed dshg levels")
        else:
            got = [(lvl.E, lvl.label, lvl.is_real) for lvl in spec.levels]
            self._levels(op, M, z2, got, want)

    def _check_sweep(self, op, out_path, ptqes):
        M = op["M"]
        step, _ = wl.SWEEP_GRIDS[M]
        with open(out_path) as fh:
            text = fh.read()
        if op["format"] == "json":
            rows = json.loads(text)["rows"]
        else:
            rows = list(csv.DictReader(io.StringIO(text)))
        by_z2 = {}
        for row in rows:
            E = complex(float(row["E_re"]), float(row["E_im"]))
            is_real = row["is_real"] in (True, "true")
            by_z2.setdefault(float(row["zeta2"]), []).append((E, row["label"], is_real))
        if len(by_z2) != wl.SWEEP_POINTS:
            self.fault(op, f"{len(by_z2)} couplings in the sweep, want {wl.SWEEP_POINTS}")
        grid = self.ref["grids"][str(M)]
        for z2, got in sorted(by_z2.items()):
            i = round(z2 / step)
            if not (op["start"] <= i < op["start"] + wl.SWEEP_POINTS) or abs(z2 - i * step) > 1e-9 * step:
                self.fault(op, f"zeta2={z2!r} is not on the requested range")
                continue
            self._levels(op, M, i * step, got, grid[i])

    def _check_critical(self, op, cc, ptqes):
        ref = self.critical[op["M"]]
        zc_ref, E_ref = ref["zeta_c_squared"], ref["degenerate_energy"]
        err = abs(cc.zeta_c_squared - zc_ref)
        self.digits_min = min(self.digits_min, digits(err / zc_ref))
        if not err <= op["tol"]:
            self.fault(op, f"zeta_c^2={cc.zeta_c_squared!r} vs reference {zc_ref!r}: error {err:.2e} > tol")
        # Near a square-root branch point an error tol in zeta^2 allows an
        # error of order sqrt(tol) in the merged energy.
        if not abs(cc.degenerate_energy - E_ref) <= math.sqrt(op["tol"]) * abs(E_ref):
            self.fault(op, f"merged energy {cc.degenerate_energy!r} vs reference {E_ref!r}")

    def _check_norms(self, op, out, ptqes):
        table, G, pq = out
        M, z2 = op["M"], op["zeta2"]
        ref = self.points[(M, z2)]
        support_ref = [_cplx(p) for p in ref["support"]]
        w_ref = dict(zip(support_ref, (_cplx(p) for p in ref["weights"])))
        pairs = _match(list(table.energies), support_ref)
        if pairs is None:
            self.fault(op, f"{len(table.energies)} support points for M={M}")
            return
        w_scale = max(abs(w) for w in w_ref.values())
        got_w = dict(zip(table.energies, table.weights))
        worst_w = 0.0
        for E, E_ref in pairs:
            rel = abs(E - E_ref) / abs(E_ref)
            self.digits_min = min(self.digits_min, digits(rel))
            if rel > LEVEL_RTOL:
                self.fault(op, f"support point {E!r} vs reference {E_ref!r}: rel err {rel:.2e}")
            worst_w = max(worst_w, abs(got_w[E] - w_ref[E_ref]) / w_scale)
        self.digits_min = min(self.digits_min, digits(worst_w))
        if worst_w > WEIGHT_RTOL:
            self.fault(op, f"weights off by {worst_w:.2e} of the largest weight")

        gamma = table.gamma
        if len(gamma) != M + 1 or gamma[0] != 1.0 or gamma[M] != 0.0:
            self.fault(op, f"gamma endpoints {gamma[0]!r}, {gamma[-1]!r}; want exactly 1 and 0")
        for g, g_ref in zip(gamma, ref["gamma"]):
            if abs(g - g_ref) > GAMMA_RTOL * abs(g_ref):
                self.fault(op, f"gamma {g!r} vs reference {g_ref!r}")
        # G = diag(gamma) to first order in the stated accuracies: weights
        # off by WEIGHT_RTOL of the largest and support points off by
        # LEVEL_RTOL, propagated through G_ij = sum_k w_k R_i(E_k) R_j(E_k).
        terms = [(w, abs(E)) + _r_values(M, z2, E) for E, w in zip(table.energies, table.weights)]
        for i in range(M):
            for j in range(M):
                bound = sum(
                    WEIGHT_RTOL * w_scale * abs(r[i] * r[j])
                    + LEVEL_RTOL * size * abs(w) * abs(dr[i] * r[j] + r[i] * dr[j])
                    for w, size, r, dr in terms
                )
                target = gamma[i] if i == j else 0.0
                if abs(complex(G[i][j]) - target) > bound:
                    self.fault(op, f"G[{i},{j}]={complex(G[i][j])!r}, want {target!r} within {bound:.1e}")
        zc = self.critical.get(M, {}).get("zeta_c_squared") if M % 2 else None
        if zc is not None and z2 < zc and max(abs(w.imag) for w in table.weights) > REAL_RTOL * w_scale:
            self.fault(op, f"weights not real below zeta_c^2: max rel imag {table.max_weight_imag:.1e}")
        if pq is not None:
            for fam, vals in zip(("P", "Q"), pq):
                want = [_cplx(p) for p in ref["pq_norms"][fam]]
                if len(vals) != len(want) or any(abs(v - w) > GAMMA_RTOL * abs(w) for v, w in zip(vals, want)):
                    self.fault(op, f"pq_norms {fam} {vals!r} vs reference {want!r}")
