"""Per-layer spans for ptqes, recorded from outside the package.

Each layer is one ptqes module.  Every public function a layer defines is
wrapped, and every module of the package that holds a reference to it
(``from .polyengine import roots`` binds the name in the importing module)
gets the wrapper, so calls between layers are seen wherever they are made.

A span is [name, start, end, parent index].  Spans stay in memory and are
written out by the caller when the run ends.  A span's self time is its
duration minus the time covered by its direct children.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("polyengine", "recursion", "spectra", "duality", "norms", "cli")


class Tracer:
    def __init__(self):
        self.spans = []
        self.errors = Counter()
        self.roots_degree = 0
        self.active = False
        self._stack = []
        self._restore = []

    def span(self, name, layer, fn, *args, **kwargs):
        """Run fn inside a span named "<layer>.<what>"; the benchmark uses
        this for whole operations.  An exception is counted once per layer
        boundary it leaves."""
        spans, stack = self.spans, self._stack
        parent = stack[-1] if stack else -1
        record = [name, 0.0, 0.0, parent]
        stack.append(len(spans))
        spans.append(record)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            if parent < 0 or not spans[parent][0].startswith(layer + "."):
                self.errors[layer] += 1
            raise
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def _wrap(self, layer, name, fn):
        qualified = f"{layer}.{name}"
        count_degree = qualified == "polyengine.roots"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if count_degree:
                self.roots_degree += args[0].degree
            return self.span(qualified, layer, fn, *args, **kwargs)

        return wrapper

    def install(self):
        """Wrap the public functions of every layer, in every ptqes module."""
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"ptqes.{layer}")
            for name, obj in vars(module).items():
                if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped[id(obj)] = (obj, self._wrap(layer, name, obj))
        for modname, module in list(sys.modules.items()):
            if modname != "ptqes" and not modname.startswith("ptqes."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))
        return len(wrapped)

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def self_times(self):
        """{span name: (calls, total self seconds)} over all spans."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - child)
        return out
