"""ptqes benchmark: one workload per run, every output checked.

From the root of a checkout:

    python3 bench/run.py --workload spectrum --seed 1 --seconds 20 --trace 0

--trace 0 times the workload untraced and reports the end-to-end metrics;
--trace 1 reports per-operation layer metrics from a traced run.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  bench/README.md describes the workloads and the metrics.
"""

import os

# The program is single-threaded; keep BLAS from spreading over the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layertrace  # noqa: E402
import workloads as wl  # noqa: E402

COLD_STARTS = 7
TRACED_COLD_STARTS = 3
COLD_START_TIMEOUT_S = 60
MAX_LOGGED = 5
# p90 needs ten samples beyond it: a run measures at least this many
# operations, however slow the host, for up to twice --seconds.
MIN_OPS = 100
# Duration of one HostRef block on an unloaded 2-vCPU host (Python 3.11,
# numpy 2.4).  Reported times are scaled to a host running at this speed.
REF_NOMINAL_S = 200e-6
# A fresh interpreter that imports numpy and does one small solve, without
# ptqes: the host's cold-start speed.  It takes about this long unloaded.
REF_COLD_START = (
    "import json, time, numpy; numpy.linalg.eigvals(numpy.eye(8)); "
    "print(json.dumps({'end': time.clock_gettime(time.CLOCK_MONOTONIC)}))"
)
REF_COLD_NOMINAL_S = 0.13


class HostRef:
    """A fixed piece of work that does not touch ptqes, in the mix the
    program runs: complex arithmetic in Python, small dense eigensolves and
    small numpy array calls.  Timed next to every operation, it measures how
    fast the host is at that moment."""

    def __init__(self, np):
        self.np = np
        self.matrix = np.arange(64.0).reshape(8, 8) % 5.0 + np.eye(8)
        self.coeffs = np.array([1.0, -3.0, 2.5, 0.5, -1.0, 2.0, 0.25, -0.75, 1.0])

    def block(self):
        np, c = self.np, self.coeffs
        t = time.perf_counter()
        acc, z = 0j, 0.5 + 0.1j
        for i in range(300):
            acc = acc * z + i
        np.linalg.eigvals(self.matrix)
        np.linalg.eigvals(self.matrix)
        for _ in range(10):
            np.polyval(c, 0.3 + 0.1j)
            np.abs(c).sum()
            np.convolve(c, c)
        return time.perf_counter() - t


def _spawn(argv):
    """Run a child whose last line is a JSON object with "end", its
    CLOCK_MONOTONIC reading when its work is done (on Linux all processes
    share that clock).  Returns the object with "seconds" from spawn to
    "end" added."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=COLD_START_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1]} exited {proc.returncode}: {proc.stderr.strip()}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["seconds"] = rec["end"] - t0
    return rec


class Runner:
    def __init__(self, ptqes, workload, seed, reference, host):
        self.ptqes = ptqes
        self.workload = workload
        self.host = host
        self.ops = wl.build_round(workload, seed)
        self.checker = checks.Checker(workload, reference)
        self.attempted = 0
        self.failed = 0
        self.logged = 0
        self.refs = []
        self.paths = [self._out_path(i, op) for i, op in enumerate(self.ops)]

    def _out_path(self, i, op):
        if self.workload != "sweep":
            return None
        return os.path.join(OUT_DIR, f"sweep-{os.getpid()}-{i}.{op['format']}")

    def _log(self, text):
        if self.logged < MAX_LOGGED:
            print(text, file=sys.stderr)
        self.logged += 1

    def cold_starts(self, count):
        """[(setup seconds, import ms)] of fresh interpreters that import
        ptqes and run the round's first operation.  Each is timed right
        after a REF_COLD_START interpreter and scaled by REF_COLD_NOMINAL_S
        over that one's time: a cold start is mostly process creation, file
        reads and imports, which the HostRef block does not track."""
        out = []
        argv = [sys.executable, os.path.join(HERE, "cold_start.py"), self.workload, json.dumps(self.ops[0])]
        path = self.paths[0] or os.path.join(OUT_DIR, "cold-start")
        for _ in range(count):
            ref = _spawn([sys.executable, "-c", REF_COLD_START])
            rec = _spawn(argv + [path])
            out.append((rec["seconds"] * REF_COLD_NOMINAL_S / ref["seconds"], rec["import_ms"]))
        return out

    def round(self, tracer=None):
        """Run every operation once and return their times in seconds, each
        scaled by REF_NOMINAL_S over the mean of the host blocks timed just
        before and just after it.  Outputs are checked after the last one."""
        times, results = [], []
        run_op, ptqes, workload, block = wl.run_op, self.ptqes, self.workload, self.host.block
        before = block()
        if tracer is not None:
            tracer.active = True
        for op, path in zip(self.ops, self.paths):
            t = time.perf_counter()
            try:
                if tracer is None:
                    out = run_op(ptqes, workload, op, path)
                else:
                    out = tracer.span("bench.op", "bench", run_op, ptqes, workload, op, path)
            except Exception:
                self.failed += 1
                self._log(f"operation {json.dumps(op)} failed:\n{traceback.format_exc()}")
                before = block()
                continue
            elapsed = time.perf_counter() - t
            after = block()
            times.append(elapsed * 2.0 * REF_NOMINAL_S / (before + after))
            self.refs.append(after)
            before = after
            results.append((op, out))
        self.attempted += len(self.ops)
        if tracer is not None:
            tracer.active = False
        for op, out in results:
            try:
                self.checker.check(op, out, ptqes)
            except Exception as exc:  # a malformed output is a wrong output
                self.checker.fault(op, f"check raised {exc!r}")
        return times

    def warm_up(self):
        """One checked, untimed round: fills caches and finishes lazy set-up."""
        self.round()
        self.attempted = self.failed = 0
        self.refs.clear()


def measure(runner, seconds):
    setups = runner.cold_starts(COLD_STARTS)
    runner.warm_up()
    times = []
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < seconds or (len(times) < MIN_OPS and elapsed < 2 * seconds):
        times.extend(runner.round())
    return {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "ops_per_s": (len(times) / sum(times), "ops/s"),
        "op_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "op_ms_p90": (statistics.quantiles(times, n=10)[8] * 1e3, "ms"),
        "digits_min": (runner.checker.digits_min, "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def measure_traced(runner, seconds, seed):
    """Alternate untraced and traced rounds; layer figures come from the
    traced ones, the tracing overhead from comparing the two."""
    imports = [ms for _, ms in runner.cold_starts(TRACED_COLD_STARTS)]
    runner.warm_up()
    tracer = layertrace.Tracer()
    tracer.install()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    try:
        while time.perf_counter() < deadline:
            plain.extend(runner.round())
            traced.extend(runner.round(tracer))
    finally:
        tracer.active = False
        tracer.uninstall()

    with open(os.path.join(OUT_DIR, f"trace-{runner.workload}-seed{seed}.json"), "w") as fh:
        json.dump({"workload": runner.workload, "seed": seed, "spans": tracer.spans}, fh)

    per_op = len(traced)
    by_name = tracer.self_times()

    def calls(prefix):
        return sum(c for name, (c, _) in by_name.items() if name.startswith(prefix)) / per_op

    def self_ms(prefix):
        return sum(s for name, (_, s) in by_name.items() if name.startswith(prefix)) * 1e3 / per_op

    metrics = {
        "polyengine.roots.calls": (calls("polyengine.roots"), "count"),
        "polyengine.roots.degree": (tracer.roots_degree / per_op, "count"),
        "polyengine.self_ms": (self_ms("polyengine."), "ms"),
        "recursion.calls": (calls("recursion."), "count"),
        "recursion.self_ms": (self_ms("recursion."), "ms"),
        "spectra.self_ms": (self_ms("spectra."), "ms"),
        "spectra.probes": (calls("spectra.critical_polynomials"), "count"),
        "duality.self_ms": (self_ms("duality."), "ms"),
        "norms.self_ms": (self_ms("norms."), "ms"),
        "cli.self_ms": (self_ms("cli."), "ms"),
        "bench.self_ms": (self_ms("bench."), "ms"),
        "setup.import_ms": (statistics.median(imports), "ms"),
        "host.ref_per_s": (1.0 / statistics.median(runner.refs), "1/s"),
        "trace.overhead_pct": ((sum(traced) / len(traced)) / (sum(plain) / len(plain)) * 100.0 - 100.0, "%"),
    }
    for name in layertrace.LAYERS:
        metrics[f"{name}.errors"] = (tracer.errors[name], "count")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description="ptqes benchmark")
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        ptqes = wl.import_ptqes()
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 1
    import numpy as np

    with open(os.path.join(HERE, "reference", f"{args.workload}.json")) as fh:
        reference = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)
    runner = Runner(ptqes, args.workload, args.seed, reference, HostRef(np))
    try:
        if args.trace:
            metrics = measure_traced(runner, args.seconds, args.seed)
        else:
            metrics = measure(runner, args.seconds)
    finally:
        for path in runner.paths:
            if path and os.path.exists(path):
                os.remove(path)

    faults = runner.checker.faults
    for line in faults[:MAX_LOGGED]:
        print("FAULT", line, file=sys.stderr)
    print(
        f"{args.workload}: {runner.attempted} operations in rounds of {len(runner.ops)}, "
        f"{runner.failed} failed, {runner.checker.checked} checked, {len(faults)} faults",
        file=sys.stderr,
    )
    result = {
        "correct": not faults and runner.checker.checked > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
