"""Benchmark inputs: the coupling grids, the seeded rounds and one operation.

Every operation the benchmark can issue lies on a fixed grid, so that the
reference values in reference/<workload>.json cover it.  A round visits its
workload's grid once.  The seed sets the order, the model of each odd-M
spectrum point and the window of each sweep; the make-up of a round (how
many operations per M, model, format and side of the critical coupling) is
the same for every seed, so seeds change the inputs but not the amount of
work.

This module imports only the standard library.  ptqes is handed in by the
caller (see import_ptqes), so the reference generator can use the grids
without it.
"""

import math
import os
import random
import sys

WORKLOADS = ("spectrum", "sweep", "critical", "norms")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Approximate zeta_c^2(M), used only to place grid points on both sides of
# the first level merger.  The checked values come from the reference.
ZC2_PLACEMENT = {
    3: 0.25,
    5: 0.0875721,
    7: 0.0443559,
    9: 0.0267532,
    11: 0.0178825,
    13: 0.0127925,
    15: 0.00960342,
}

BELOW = (0.0, 0.05, 0.15, 0.3, 0.45, 0.6, 0.75, 0.85)
ABOVE = (1.15, 1.3, 1.6, 2.0, 2.5, 3.0)
M1_ZETA2 = (0.0, 0.05, 0.2, 0.5, 0.8, 2.0, 4.0)
EVEN_ZETA2 = (0.0, 0.001, 0.005, 0.01, 0.03, 0.1, 0.3)

SPECTRUM_ODD_M = (1, 3, 5, 7, 9, 11, 13, 15)
SPECTRUM_EVEN_M = (2, 4)
NORMS_M = (2, 3, 4, 5)
CRITICAL_M = (3, 5, 7, 9, 11)
CRITICAL_TOL = (1e-8, 1e-9, 1e-10)

# Sweep grids: zeta^2_i = i * step for i < count; each spans about twice
# the critical coupling, so a window of SWEEP_POINTS consecutive points
# can be placed across the merger.
SWEEP_GRIDS = {3: (0.005, 100), 9: (0.0005, 100), 15: (0.0002, 100)}
SWEEP_POINTS = 25
SWEEP_FORMATS = ("csv", "json")


def _z2(factor: float, M: int) -> float:
    return float(f"{factor * ZC2_PLACEMENT[M]:.6g}")


def spectrum_points(M: int):
    """(below, above) zeta^2 grid for one M; 'above' is empty where no
    finite critical coupling exists (M = 1) or none applies (even M)."""
    if M == 1:
        return M1_ZETA2, ()
    if M % 2 == 0:
        return EVEN_ZETA2, ()
    return tuple(_z2(f, M) for f in BELOW), tuple(_z2(f, M) for f in ABOVE)


def norms_points(M: int):
    """(below, above) grid for the weight solve.  zeta^2 = 0 is left out:
    there the support points of R_M coincide in pairs and no weights exist."""
    below, above = spectrum_points(M)
    return tuple(z for z in below if z > 0), above


def sweep_values(M: int):
    step, count = SWEEP_GRIDS[M]
    return [i * step for i in range(count)]


def sweep_merger_index(M: int) -> int:
    step, _ = SWEEP_GRIDS[M]
    return int(ZC2_PLACEMENT[M] / step)


def first_op(workload: str) -> dict:
    """The operation every round starts with, whatever the seed; set-up time
    is a fresh interpreter running this one, so it does not vary with the
    seed.  Each is a mid-sized member of its workload."""
    if workload == "spectrum":
        return {"model": "dshg", "M": 9, "zeta2": spectrum_points(9)[0][4]}
    if workload == "sweep":
        return {"M": 9, "start": sweep_merger_index(9) - SWEEP_POINTS // 2, "format": "json"}
    if workload == "critical":
        return {"M": 7, "tol": 1e-10}
    if workload == "norms":
        return {"M": 5, "zeta2": norms_points(5)[0][3]}
    raise ValueError(f"unknown workload {workload!r}")


def build_round(workload: str, seed: int) -> list:
    """The seeded list of operations that makes up one round: first_op, then
    the rest in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    first = first_op(workload)
    ops = []
    if workload == "spectrum":
        for M in SPECTRUM_ODD_M + SPECTRUM_EVEN_M:
            below, above = spectrum_points(M)
            for z2 in below + above:
                model = rng.choice(("dshg", "dsg")) if M % 2 else "dshg"
                ops.append({"model": model, "M": M, "zeta2": z2})
    elif workload == "sweep":
        for M in SWEEP_GRIDS:
            ic = sweep_merger_index(M)
            lowest = max(0, ic - SWEEP_POINTS + 2)
            for fmt in SWEEP_FORMATS:
                for _ in range(2):
                    ops.append({"M": M, "start": rng.randint(lowest, ic), "format": fmt})
        # One of the M = 9 json windows is the fixed first operation.
        slot = next(i for i, op in enumerate(ops) if op["M"] == first["M"] and op["format"] == first["format"])
        ops[slot] = first
    elif workload == "critical":
        for M in CRITICAL_M:
            for tol in CRITICAL_TOL:
                ops.append({"M": M, "tol": tol})
    elif workload == "norms":
        for M in NORMS_M:
            below, above = norms_points(M)
            ops.extend({"M": M, "zeta2": z2} for z2 in below + above)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # The first operation replaces its own grid point (for spectrum, in
    # whichever model the seed drew for it).
    ops.pop(next(i for i, op in enumerate(ops) if {**op, "model": None} == {**first, "model": None}))
    rng.shuffle(ops)
    return [first] + ops


def import_ptqes():
    """Import ptqes from the src/ directory next to the benchmark and refuse
    any other copy, so a run always measures the tree it sits in."""
    sys.path.insert(0, SRC)
    import ptqes

    if not os.path.realpath(ptqes.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"ptqes was imported from {ptqes.__file__}, not from {SRC}")
    return ptqes


def sweep_argv(op: dict, out_path: str) -> list:
    step, _ = SWEEP_GRIDS[op["M"]]
    start = op["start"]
    stop = start + SWEEP_POINTS - 1
    spec = f"{start * step!r}:{stop * step!r}:{step!r}"
    return ["sweep", "--M", str(op["M"]), "--zeta2-range", spec, "--format", op["format"], "--out", out_path]


def run_op(ptqes, workload: str, op: dict, out_path: str = None):
    """Issue one operation against the program and return what it gave."""
    if workload == "spectrum":
        params = ptqes.ModelParams(M=op["M"], zeta=math.sqrt(op["zeta2"]))
        if op["model"] == "dsg":
            return ptqes.dual_spectrum(params)
        return ptqes.qes_spectrum(params)
    if workload == "sweep":
        import ptqes.cli

        code = ptqes.cli.main(sweep_argv(op, out_path))
        if code != 0:
            raise RuntimeError(f"ptqes sweep exited {code}")
        return out_path
    if workload == "critical":
        return ptqes.critical_coupling(op["M"], tol=op["tol"])
    if workload == "norms":
        params = ptqes.ModelParams(M=op["M"], zeta=math.sqrt(op["zeta2"]))
        table = ptqes.weights(params)
        gram = ptqes.gram_matrix(table)
        pq = None
        if op["M"] % 2 == 1:
            pq = (ptqes.pq_norms(params, "P"), ptqes.pq_norms(params, "Q"))
        return table, gram, pq
    raise ValueError(f"unknown workload {workload!r}")
