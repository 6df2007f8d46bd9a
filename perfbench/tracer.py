"""Spans and counts recorded around intaut's public functions, from outside.

`install` replaces every public module-level function of the traced modules
(and `Field.__init__`) with a wrapper.  A wrapper records a span
(name, start, end, parent) in memory; the hot scalar helpers only bump a call
count, because they run up to a million times per instance and a span each
would distort the timings they sit inside.  Their time is charged to the
calling span.  A few wrappers also derive work counts from the arguments or
the result, so ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import inspect
import itertools
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "field", "space", "transform", "orbits", "graph")
TRACED_MODULES = ("cli", "space", "transform", "orbits", "graph")

# scalar helpers counted but not spanned; num_points runs inside check_size
HOT = {"space." + name for name in ("point_of_index", "canonical_index",
                                    "vec_add", "norm", "distance",
                                    "check_size", "num_points")}

# inclusive-time metrics: metric name -> the functions whose outermost calls
# it sums
INCLUSIVE = {
    "space.bulk_tables_s": ("space.bulk_tables",),
    "space.distance_matrix_s": ("space.distance_matrix",),
    "transform.semiaffine_group_s": ("transform.semiaffine_group",),
    "transform.batch_preserves_s": ("transform.batch_preserves",),
    "transform.preserves_cones_s": ("transform.preserves_cones",),
    "transform.recognize_s": ("transform.recognize_semiaffine",),
    "orbits.close_group_array_s": ("orbits.close_group_array",),
    "orbits.stabilizer_orbits_s": ("orbits.stabilizer_orbits",),
    "orbits.m_orbits_s": ("orbits.m_orbits",),
    "orbits.orbital_connected_s": ("orbits.orbital_connected",),
    "graph.automorphism_group_s": ("graph.automorphism_group",),
    "graph.interchange_s": ("graph.graph6_bytes", "graph.parse_graph6",
                            "graph.dimacs_text", "graph.parse_dimacs"),
}

WORK_COUNTS = ("field.fields_built", "transform.family_elements",
               "transform.pairs_checked", "transform.recognized",
               "transform.recognize_calls", "orbits.closure_elements",
               "graph.search_nodes", "graph.generators",
               "graph.interchange_bytes")


def _work(name, args, result, counts):
    """Work counts taken from one call's arguments or result."""
    if name == "transform.semiaffine_group":
        counts["transform.family_elements"] += len(result)
    elif name == "transform.batch_preserves":
        perms, relation = args[0], args[1]
        counts["transform.pairs_checked"] += perms.shape[0] * relation.size
    elif name == "transform.recognize_semiaffine":
        counts["transform.recognize_calls"] += 1
        counts["transform.recognized"] += result is not None
    elif name == "orbits.close_group_array":
        counts["orbits.closure_elements"] += len(result)
    elif name == "graph.automorphism_group":
        counts["graph.search_nodes"] += result.node_count
        counts["graph.generators"] += len(result.generators)
    elif name in ("graph.graph6_bytes", "graph.dimacs_text"):
        counts["graph.interchange_bytes"] += len(result)
    elif name in ("graph.parse_graph6", "graph.parse_dimacs"):
        counts["graph.interchange_bytes"] += len(args[0])
    elif name == "field.Field.__init__":
        counts["field.fields_built"] += 1


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index or None]
        self.stack = []
        self.calls = Counter()  # per spanned function
        self.ticks = {}         # per hot helper, read once by summary()
        self.counts = Counter()  # work counts

    def spanned(self, name, fn):
        spans, stack, calls, counts = self.spans, self.stack, self.calls, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            rec = [name, perf_counter(), None, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            _work(name, args, result, counts)
            return result
        return wrapper

    def counted(self, name, fn):
        # the cheapest wrapper found: a C-level tick and positional arguments
        # only (no hot helper is called with keywords)
        counter = self.ticks[name] = itertools.count()
        tick = counter.__next__

        @functools.wraps(fn)
        def wrapper(*args):
            tick()
            return fn(*args)
        return wrapper

    def install(self, package):
        """Wrap the public functions of `package`'s traced modules."""
        for short in TRACED_MODULES:
            module = getattr(package, short)
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or inspect.isclass(obj) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                name = f"{short}.{attr}"
                wrap = self.counted if name in HOT else self.spanned
                setattr(module, attr, wrap(name, obj))
        field_cls = package.field.Field
        field_cls.__init__ = self.spanned("field.Field.__init__", field_cls.__init__)

    def summary(self):
        """Per-layer self times, inclusive times, call and work counts, and
        the time covered by root spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        out.update({f"{layer}.calls": 0 for layer in LAYERS})
        out.update({metric: 0.0 for metric in INCLUSIVE})
        out.update({metric: 0 for metric in WORK_COUNTS})
        covered = 0.0
        owner = {fn: metric for metric, fns in INCLUSIVE.items() for fn in fns}
        for i, (name, start, end, parent) in enumerate(spans):
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] += end - start - child_time[i]
            if parent is None:
                covered += end - start
            metric = owner.get(name)
            if metric is not None and not self._inside(i, INCLUSIVE[metric]):
                out[metric] += end - start
        hot_calls = Counter({name: next(c) for name, c in self.ticks.items()})
        for name, n in (self.calls + hot_calls).items():
            out[name.split(".", 1)[0] + ".calls"] += n
        out.update(self.counts)
        out["covered_s"] = covered
        return out

    def _inside(self, i, names):
        """Whether span i has an ancestor among `names` (so its time is
        already inside that ancestor's inclusive time)."""
        parent = self.spans[i][3]
        while parent is not None:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def span_records(self, origin):
        """Spans with start and end in seconds since `origin`."""
        return [[name, start - origin, end - origin, parent]
                for name, start, end, parent in self.spans]
