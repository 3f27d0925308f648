"""One cold start: a fresh interpreter imports ptqes and runs one operation.

    python3 bench/cold_start.py <workload> '<op as json>' <out path>

Prints one JSON line: import_ms, the time `import ptqes` took, and end, the
CLOCK_MONOTONIC reading when the operation finished.  The caller reads the
same clock before it starts this process (on Linux all processes share it),
so the difference is the set-up time a CLI invocation pays.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads as wl  # noqa: E402


def main():
    workload, op, out_path = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3]
    t = time.perf_counter()
    ptqes = wl.import_ptqes()
    import_ms = (time.perf_counter() - t) * 1e3
    wl.run_op(ptqes, workload, op, out_path)
    end = time.clock_gettime(time.CLOCK_MONOTONIC)
    print(json.dumps({"import_ms": import_ms, "end": end}))


if __name__ == "__main__":
    main()
