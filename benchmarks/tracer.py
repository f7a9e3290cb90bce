"""Per-layer tracing installed from outside the package.

``Tracer.install`` replaces each traced function at every place it is bound:
the defining module, every ``bacforge`` module that imported it by name, and
the class for methods.  Patching ``bacforge.field.span_solve`` alone would
miss the copy ``bacforge.verify`` imported.

Two kinds of wrapper:

* hot primitives (elimination, recovery tests, good-vector helpers) keep a
  call count, accumulated time and a count of truthy results;
* layer calls record one span each (name, parent, op id, start, end, time
  of hot calls made directly inside), kept in memory and written out when
  the run ends.  Self time is a span's duration minus its child spans and
  the hot calls inside it.

No span may open inside a hot primitive; none of the traced hot functions
calls a traced layer function, so the two kinds never double-count.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

HOT, SPAN = "hot", "span"

# (trace name, module, attribute, kind); "Class.method" patches the class
TARGETS = (
    ("field.echelon_new", "bacforge.field", "Echelon.__init__", HOT),
    ("field.echelon_add", "bacforge.field", "Echelon.add", HOT),
    ("field.contains_unit", "bacforge.field", "Echelon.contains_unit", HOT),
    ("field.span_solve", "bacforge.field", "span_solve", HOT),
    ("verify.recovers", "bacforge.verify", "SpanEngine.recovers", HOT),
    ("verify.find_plan", "bacforge.verify", "find_plan", SPAN),
    ("verify.certify_plan", "bacforge.verify", "certify_plan", SPAN),
    ("construct.goodvec_plan", "bacforge.construct", "goodvec_certified_plan", SPAN),
    ("construct.cyclic_plan", "bacforge.construct", "cyclic_certified_plan", SPAN),
    ("construct.canonical_recovery_sets", "bacforge.construct", "canonical_recovery_sets", HOT),
    ("construct.max_batch_k", "bacforge.construct", "max_batch_k", HOT),
    ("affine.random_bac", "bacforge.affine", "random_bac", SPAN),
    ("affine.greedy_plan", "bacforge.affine", "greedy_plan", SPAN),
    ("model.encode", "bacforge.model", "encode", SPAN),
    ("model.load_code", "bacforge.model", "load_code", SPAN),
    ("sim.serve_batch", "bacforge.sim", "serve_batch", SPAN),
    ("bounds.bound_table", "bacforge.bounds", "bound_table", SPAN),
)

# (metric, unit, trace name, statistic); the order is the report order
LAYER_METRICS = (
    ("field.echelon_new", "count", "field.echelon_new", "calls"),
    ("field.echelon_add.calls", "count", "field.echelon_add", "calls"),
    ("field.echelon_add.s", "s", "field.echelon_add", "s"),
    ("field.contains_unit.calls", "count", "field.contains_unit", "calls"),
    ("field.span_solve.calls", "count", "field.span_solve", "calls"),
    ("field.span_solve.s", "s", "field.span_solve", "s"),
    ("verify.find_plan.calls", "count", "verify.find_plan", "calls"),
    ("verify.find_plan.self_s", "s", "verify.find_plan", "self_s"),
    ("verify.recovers.calls", "count", "verify.recovers", "calls"),
    ("verify.recovers.useful_ratio", "ratio", "verify.recovers", "hit_ratio"),
    ("verify.certify_plan.calls", "count", "verify.certify_plan", "calls"),
    ("verify.certify_plan.s", "s", "verify.certify_plan", "s"),
    ("construct.goodvec_plan.calls", "count", "construct.goodvec_plan", "calls"),
    ("construct.goodvec_plan.self_s", "s", "construct.goodvec_plan", "self_s"),
    ("construct.cyclic_plan.calls", "count", "construct.cyclic_plan", "calls"),
    ("construct.cyclic_plan.self_s", "s", "construct.cyclic_plan", "self_s"),
    ("construct.canonical_recovery_sets.calls", "count", "construct.canonical_recovery_sets", "calls"),
    ("construct.max_batch_k.calls", "count", "construct.max_batch_k", "calls"),
    ("affine.random_bac.calls", "count", "affine.random_bac", "calls"),
    ("affine.random_bac.s", "s", "affine.random_bac", "s"),
    ("affine.greedy_plan.calls", "count", "affine.greedy_plan", "calls"),
    ("affine.greedy_plan.self_s", "s", "affine.greedy_plan", "self_s"),
    ("affine.greedy_plan.success_ratio", "ratio", "affine.greedy_plan", "hit_ratio"),
    ("model.encode.calls", "count", "model.encode", "calls"),
    ("model.encode.s", "s", "model.encode", "s"),
    ("model.load_code.s", "s", "model.load_code", "s"),
    ("sim.serve_batch.calls", "count", "sim.serve_batch", "calls"),
    ("sim.serve_batch.self_s", "s", "sim.serve_batch", "self_s"),
    ("bounds.bound_table.s", "s", "bounds.bound_table", "s"),
)

# measured around the process rather than by a wrapper
PROCESS_METRICS = (
    ("cli.import_s", "s"),
    ("cli.numpy_import_s", "s"),
    ("cli.handler_s", "s"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """Counters and spans for one process; records only while ``on``."""

    def __init__(self):
        self.on = False
        self.op = 0
        self.calls: Counter = Counter()
        self.hits: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.spans: list = []  # (name, parent, op, t0, t1, hot_child_s)
        self.stack: list = []  # open span frames, innermost last (see open)
        self.hot_depth = 0
        self.missing: list = []
        self._root: list = []

    def _hot(self, name, fn):
        tracer, calls, hits, total = self, self.calls, self.hits, self.total
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            tracer.hot_depth += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                tracer.hot_depth -= 1
                calls[name] += 1
                total[name] += dt
                if tracer.hot_depth == 0 and tracer.stack:
                    tracer.stack[-1][1] += dt
            if result is not None and result is not False:
                hits[name] += 1
            return result

        return wrapper

    def _span(self, name, fn):
        tracer, hits = self, self.hits

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            frame = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if result is not None and result is not False:
                hits[name] += 1
            return result

        return wrapper

    def open(self, name: str) -> list:
        """Push a span frame: [index, hot time inside, name, parent, start]."""
        parent = self.stack[-1][0] if self.stack else -1
        frame = [len(self.spans), 0.0, name, parent, time.perf_counter()]
        self.spans.append(None)
        self.stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        t1 = time.perf_counter()
        self.stack.pop()
        index, hot_child, name, parent, t0 = frame
        self.spans[index] = (name, parent, self.op, t0, t1, hot_child)

    def begin_op(self) -> None:
        """Start recording one benchmark op under a root span."""
        self.op += 1
        self.on = True
        self._root = self.open("op")

    def end_op(self) -> None:
        self.close(self._root)
        self.on = False

    def install(self) -> None:
        """Wrap every target at every binding site among loaded bacforge
        modules.  Targets a refactor removed are listed in ``missing`` and
        report zero."""
        modules = [m for n, m in list(sys.modules.items()) if n == "bacforge" or n.startswith("bacforge.")]
        for name, modname, attr, kind in TARGETS:
            module = sys.modules.get(modname)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, fn_name, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapped = (self._hot if kind == HOT else self._span)(name, original)
            if owner_name:
                setattr(owner, fn_name, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def records(self) -> dict:
        """Everything recorded, in a JSON-ready form."""
        return {
            "hot": {n: [self.calls[n], self.total[n]] for n in self.calls},
            "hits": dict(self.hits),
            "spans": [s for s in self.spans if s is not None],
            "missing": self.missing,
        }


def _no_stats() -> dict:
    return {"calls": 0, "s": 0.0, "self_s": 0.0, "hits": 0}


def layer_stats(records: dict) -> dict:
    """trace name -> {calls, s, self_s, hits} from one process's records."""
    stats: dict = defaultdict(_no_stats)
    for name, (calls, total) in records["hot"].items():
        st = stats[name]
        st["calls"] += calls
        st["s"] += total
        st["self_s"] += total
    spans = records["spans"]
    child = [0.0] * len(spans)
    for name, parent, _op, t0, t1, _hot in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    for index, (name, parent, _op, t0, t1, hot_child) in enumerate(spans):
        st = stats[name]
        st["calls"] += 1
        st["s"] += t1 - t0
        st["self_s"] += t1 - t0 - child[index] - hot_child
    for name, hits in records["hits"].items():
        stats[name]["hits"] += hits
    return stats


def merge_stats(parts: list) -> dict:
    out: dict = defaultdict(_no_stats)
    for part in parts:
        for name, st in part.items():
            for key, value in st.items():
                out[name][key] += value
    return out


def layer_metrics(stats: dict) -> dict:
    metrics = {}
    for metric, unit, name, stat in LAYER_METRICS:
        st = stats.get(name) or _no_stats()
        if stat == "hit_ratio":
            value = st["hits"] / st["calls"] if st["calls"] else 0.0
        else:
            value = st[stat]
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


def numpy_import_s(importtime_stderr: str) -> float:
    """Cumulative import time of the top-level numpy package, from the
    stderr of ``python -X importtime``; 0.0 when numpy was never imported."""
    for line in importtime_stderr.splitlines():
        if line.startswith("import time:"):
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "numpy":
                return int(parts[1]) / 1e6
    return 0.0


def write_records(path, records: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh)
