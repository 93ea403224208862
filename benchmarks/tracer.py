"""Outside-in tracer: times tiltfan's layers by wrapping their public functions.

Nothing in tiltfan changes.  `Tracer.install` replaces each function in
LAYERS by a wrapper, both on its home module and on every tiltfan module
that imported it by name (`cluster.build_fan`, `combinatorics.faces`, ...),
so no call escapes.  Per-element helpers (`dot`, `matvec`, `vadd`, ...) are
left alone: a wrapper would cost more than the call.

Each call becomes a span (layer, start, end, parent span).  A layer's self
time is its spans' duration minus the part covered by their direct child
spans; its total time is the duration itself (no layer calls itself, so
totals do not double count).  Time inside a `region` that no layer span
covers is booked to `bench.outside`, so the self times of all layers add
up to the time spent in regions.  Spans stay in memory until `write_spans`.
"""

import functools
import json
import sys
from time import perf_counter

LAYERS = (
    "lattice.invert_unimodular",
    "lattice.solve_exact",
    "lattice.kernel_functional",
    "lattice.determinant",
    "lattice.matmul",
    "weyl.weyl_enumerate",
    "weyl.coxeter_fan",
    "weyl.descent_histogram",
    "weyl.root_system",
    "cluster.mutate",
    "cluster.enumerate_gfan",
    "brauer.pair_admissible",
    "brauer.self_admissible_walks",
    "brauer.chambers_by_cliques",
    "fan.build_fan",
    "fan.faces",
    "fan.verify_pairwise_intersections",
    "polytope.convex_hull",
    "polytope.convexity_report",
    "polytope.dual_polytope",
    "polytope.root_polytope",
    "combinatorics.analyze",
    "combinatorics.ehrhart_bruteforce",
    "cli.main",
)
OUTSIDE = "bench.outside"


class Tracer:
    def __init__(self):
        self.names = LAYERS + (OUTSIDE,)
        self._originals = {}
        # The wrappers close over these containers, so reset() clears them in
        # place.  Spans are kept column-wise in lists of numbers: a list of
        # per-span objects would make every garbage collection walk all spans.
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.total_s = [0.0] * len(self.names)
        self.counts = {}
        self.span_layer = []
        self.span_parent = []
        self.span_start = []
        self.span_end = []
        self._covered = []  # per span: time covered by its direct children
        self._stack = []  # indices of the open spans
        self.reset()

    def reset(self):
        """Forget all spans and counts."""
        for column in (self.calls, self.self_s, self.total_s):
            column[:] = [0] * len(column)
        self.counts.update({"fan.walls": 0, "cluster.chambers": 0, "brauer.admitted": 0})
        for column in (self.span_layer, self.span_parent, self.span_start, self.span_end,
                       self._covered, self._stack):
            column.clear()

    # -- installing the wrappers ---------------------------------------------

    def install(self):
        hooks = {
            "fan.build_fan": self._count_walls,
            "cluster.enumerate_gfan": self._count_chambers,
            "brauer.pair_admissible": self._count_admitted,
        }
        replace = {}
        for lid, name in enumerate(LAYERS):
            module, attr = name.split(".")
            original = getattr(sys.modules[f"tiltfan.{module}"], attr)
            self._originals[name] = original
            replace[id(original)] = (original, self._wrap(lid, original, hooks.get(name)))
        self._rebind(replace)

    def uninstall(self):
        replace = {}
        for name, original in self._originals.items():
            module, attr = name.split(".")
            wrapper = getattr(sys.modules[f"tiltfan.{module}"], attr)
            replace[id(wrapper)] = (wrapper, original)
        self._rebind(replace)
        self._originals = {}

    @staticmethod
    def _rebind(replace):
        """Point every tiltfan module attribute bound to an old function at its new one."""
        for modname, module in list(sys.modules.items()):
            if modname != "tiltfan" and not modname.startswith("tiltfan."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _open(self, lid):
        """Start a span; returns (index, start)."""
        stack = self._stack
        index = len(self.span_layer)
        self.span_layer.append(lid)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_end.append(0.0)
        self._covered.append(0.0)
        stack.append(index)
        start = perf_counter()
        self.span_start.append(start)
        return index, start

    def _close(self, lid, index, start):
        """End a span and book its time; returns its duration."""
        end = perf_counter()
        stack = self._stack
        stack.pop()
        self.span_end[index] = end
        duration = end - start
        self.self_s[lid] += duration - self._covered[index]
        self.total_s[lid] += duration
        self.calls[lid] += 1
        if stack:
            self._covered[stack[-1]] += duration
        return duration

    def _wrap(self, lid, fn, hook):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index, start = open_(lid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(lid, index, start)
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def _count_walls(self, fan):
        self.counts["fan.walls"] += len(fan.walls)

    def _count_chambers(self, result):
        if hasattr(result, "chambers"):  # a closed enumeration, not BudgetExhausted
            self.counts["cluster.chambers"] += len(result.chambers)

    def _count_admitted(self, ok):
        self.counts["brauer.admitted"] += bool(ok)

    # -- traced regions and results ------------------------------------------

    def region(self):
        """Context manager around one job; its `seconds` is the job's wall time."""
        return _Region(self)

    def layer_metrics(self):
        """'<layer>.calls', '.self_s' and '.total_s' for every layer, and
        'bench.outside.self_s'."""
        out = {}
        for lid, name in enumerate(LAYERS):
            out[f"{name}.calls"] = self.calls[lid]
            out[f"{name}.self_s"] = self.self_s[lid]
            out[f"{name}.total_s"] = self.total_s[lid]
        out[f"{OUTSIDE}.self_s"] = self.self_s[-1]
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({
                "layers": list(self.names),
                "columns": ["layer", "start", "end", "parent"],
                "spans": list(zip(self.span_layer, self.span_start, self.span_end,
                                  self.span_parent)),
            }, fh)


class _Region:
    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        if self.tracer._stack:
            raise RuntimeError("traced regions do not nest")
        self.index, self.start = self.tracer._open(len(LAYERS))
        return self

    def __exit__(self, *exc):
        self.seconds = self.tracer._close(len(LAYERS), self.index, self.start)
        return False
