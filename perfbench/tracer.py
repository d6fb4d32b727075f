"""Call tracing for the benchmark's traced run, by patching module attributes.

The tracer wraps the public functions of every ``ptfprg`` module and a few
hot methods of its classes, from the outside: the package itself is not
changed.  A wrapper keeps a call stack so that each call's self time (its
duration minus the time spent in traced callees) can be attributed to the
function, and it aggregates calls in memory per (enclosing span, function)
instead of keeping one record per call: a battery pass constructs about
600k ``HermitePoly`` objects.

Individual span records are kept only at coarse boundaries: the spans the
benchmark opens around a fooling group, a battery check or a mollifier
batch, and each ``StatGrid.row_batch`` call.

Some functions also feed work counters (gathers, blocks, points, cells,
soft checks).  The counters read only argument shapes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

ROOT_SPAN = 0

# Public helpers too small to time: the wrapper would cost more than the
# work, and they are called per coefficient or per check.  Their time stays
# in the caller's self time.
UNTRACED = {
    "ptfprg.hermite.total_degree",
    "ptfprg.hermite.dominates",
    "ptfprg.gaussops.binom_pmf_row",
    "ptfprg.mollifier.soft_check",
}

MODULES = ("seeding", "kwise", "prg", "hermite", "gaussops", "statgrid",
           "mollifier", "hyperlab", "verify", "battery")


# Work counters, by traced function.  Each takes the tracer and the call's
# arguments, under the traced function's parameter names.

def _count_gathers(tracer, coeffs, spec):
    from ptfprg import kwise
    tracer.count("kwise.expand_batch.gathers",
                 coeffs.shape[0] * spec.k * spec.n)
    m = tracer.originals["ptfprg.kwise.field_width"](spec)
    if m <= kwise._TABLE_MAX_M:
        tracer.table_specs.add((spec.k, spec.n, m))


def _count_blocks(tracer, params, *_, **__):
    tracer.count("prg.generate_batch.blocks", params.L)


def _count_points(tracer, poly, X):
    tracer.count("hermite.eval_batch.points", len(X))


def _count_cells(tracer, grid, i, X, cols):
    tracer.count("statgrid.row_batch.cells", len(X) * len(cols))


def _count_soft_checks(tracer, p, params, X, *_, **__):
    checks = tracer.originals["ptfprg.mollifier.mollifier_checks"](params)
    tracer.count("mollifier.soft_checks", len(X) * len(checks))


COUNTERS = {
    "ptfprg.kwise.expand_batch": _count_gathers,
    "ptfprg.prg.generate_batch": _count_blocks,
    "ptfprg.hermite.HermitePoly.eval_batch": _count_points,
    "ptfprg.statgrid.StatGrid.row_batch": _count_cells,
    "ptfprg.mollifier.mollifier_eval_batch": _count_soft_checks,
}
COUNT_NAMES = ("kwise.expand_batch.gathers", "prg.generate_batch.blocks",
               "hermite.eval_batch.points", "statgrid.row_batch.cells",
               "mollifier.soft_checks")

# Class methods traced, with the short name their metrics use.
METHODS = (
    ("hermite", "HermitePoly", "__init__", "hermite.init"),
    ("hermite", "HermitePoly", "__add__", "hermite.add"),
    ("hermite", "HermitePoly", "__mul__", "hermite.mul"),
    ("hermite", "HermitePoly", "__rmul__", "hermite.mul"),
    ("hermite", "HermitePoly", "eval_batch", "hermite.eval_batch"),
    ("statgrid", "PolySampler", "sample", "statgrid.PolySampler.sample"),
    ("statgrid", "StatGrid", "row_batch", "statgrid.row_batch"),
)

SPAN_FUNCTIONS = {"statgrid.row_batch"}


class Tracer:
    """Self time, call counts and work counters of the traced functions."""

    def __init__(self):
        self.stack = []          # per active call: [time spent in callees]
        self.span_stack = [ROOT_SPAN]
        self.spans = []          # [id, name, parent id, start, end]
        self.agg = {}            # (span id, name) -> [calls, total s, self s]
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.names = set()
        self.table_specs = set()
        self.originals = {}
        self._patches = []

    # -- recording ------------------------------------------------------

    def count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def _record(self, name, parent_span, dt, child):
        if self.stack:
            self.stack[-1][0] += dt
        rec = self.agg.get((parent_span, name))
        if rec is None:
            rec = self.agg[(parent_span, name)] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - child

    def _open_span(self, name):
        sid = len(self.spans) + 1
        self.spans.append([sid, name, self.span_stack[-1],
                           time.perf_counter(), None])
        self.span_stack.append(sid)
        return sid

    def _close_span(self, sid):
        self.span_stack.pop()
        self.spans[sid - 1][4] = time.perf_counter()

    @contextmanager
    def span(self, name, kind):
        """Coarse span opened by the benchmark; ``kind`` names its self time."""
        parent = self.span_stack[-1]
        sid = self._open_span(name)
        frame = [0.0]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.stack.pop()
            self._close_span(sid)
            self._record(kind, parent, dt, frame[0])

    def wrap(self, name, fn, counter=None):
        tracer = self
        self.names.add(name)
        is_span = name in SPAN_FUNCTIONS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counter(tracer, *args, **kwargs)
            parent = tracer.span_stack[-1]
            sid = tracer._open_span(name) if is_span else None
            frame = [0.0]
            tracer.stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer.stack.pop()
                if is_span:
                    tracer._close_span(sid)
                tracer._record(name, parent, dt, frame[0])

        return traced

    # -- patching ---------------------------------------------------------

    def _setattr(self, obj, attr, value):
        self._patches.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def install(self, callers=()):
        """Patch every ptfprg namespace, and the caller modules given, where
        they bind a traced function."""
        mods = {m: sys.modules[f"ptfprg.{m}"] for m in MODULES}
        namespaces = [mod for key, mod in sorted(sys.modules.items())
                      if key == "ptfprg" or key.startswith("ptfprg.")]
        namespaces += list(callers)
        for short, mod in mods.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                full = f"{mod.__name__}.{attr}"
                self.originals[full] = fn
                if (not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                        or full in UNTRACED):
                    continue
                wrapped = self.wrap(f"{short}.{attr}", fn, COUNTERS.get(full))
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            self._setattr(ns, key, wrapped)
        wrapped_methods = {}
        for short, cls_name, attr, name in METHODS:
            cls = getattr(mods[short], cls_name)
            fn = cls.__dict__[attr]
            if fn not in wrapped_methods:
                full = f"ptfprg.{short}.{cls_name}.{attr}"
                wrapped_methods[fn] = self.wrap(name, fn, COUNTERS.get(full))
            self._setattr(cls, attr, wrapped_methods[fn])

    def uninstall(self):
        while self._patches:
            obj, attr, value = self._patches.pop()
            setattr(obj, attr, value)

    # -- results ----------------------------------------------------------

    def totals(self):
        """name -> [calls, self s] summed over spans, for every traced
        function and span kind."""
        out = {name: [0, 0.0] for name in self.names}
        for (_, name), (calls, _, self_s) in self.agg.items():
            rec = out.setdefault(name, [0, 0.0])
            rec[0] += calls
            rec[1] += self_s
        return out

    def document(self):
        """The full trace, as written to the trace file."""
        return {
            "spans": [{"id": s[0], "name": s[1], "parent": s[2],
                       "start": s[3], "end": s[4]} for s in self.spans],
            "aggregates": [{"span": sid, "name": name, "calls": c,
                            "total_s": tot, "self_s": slf}
                           for (sid, name), (c, tot, slf)
                           in sorted(self.agg.items())],
            "counts": self.counts,
            "table_specs": sorted(self.table_specs),
        }
