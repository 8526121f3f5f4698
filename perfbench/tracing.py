"""Outside-in tracing of the `bockstein` layers.

`Tracer.install()` replaces each hooked function by a timing wrapper in
every `bockstein` module that binds it, so both `algebra.basis_in_degree`
and `engine.basis_in_degree` are seen.  Coarse layers record one span per
call (name, start, end, parent span, case id).  Hot leaf functions (called
up to ~10^6 times per pass) are aggregated per (case, layer) instead.
Every call adds its duration to the "covered" time of its caller's frame,
so a layer's self time is its duration minus the part its traced callees
and the garbage collector cover.  Collector pauses are timed through
`gc.callbacks` and reported as their own layer, `python.gc`.

A hook whose function no longer exists is listed in `absent` instead of
failing the run.
"""

from __future__ import annotations

import gc
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional


def _cells(c, args, kwargs, out):
    w = args[2] if len(args) > 2 else kwargs["w"]
    D = getattr(w, "max_degree", w)
    c["engine.build_e1.cells"] += len(out.cells)
    c["engine.build_e1.window_cells"] += sum(1 for (t, _s) in out.cells if 0 <= t <= D)


def _page(c, args, kwargs, out):
    diffs = args[0].diffs
    c["engine.apply_page.diffs"] += len(diffs)
    c["engine.apply_page.rank_sum"] += sum(rec.rank for rec in diffs.values())


def _compare(c, args, kwargs, out):
    c["towers.compare.unverified"] += len(out.unverified)
    c["towers.compare.mismatches"] += len(out.mismatches)


def _observe(name, value):
    def observe(c, args, kwargs, out):
        c[name] += value(out)
    return observe


# (layer, module, attribute, observer): one span per call
SPANS = [
    ("engine.schedule", "engine", "schedule_v0", None),
    ("engine.schedule", "engine", "schedule_v1", None),
    ("engine.schedule", "engine", "schedule_v2", None),
    ("engine.schedule", "engine", "schedule_conj", None),
    ("engine.run", "engine", "run", None),
    ("engine.build_e1", "engine", "build_e1", _cells),
    ("engine.apply_page", "engine", "apply_page", _page),
    ("engine.validate_rules", "engine", "_validate_rules", None),
    ("engine.extract_towers", "engine", "extract_towers", None),
    ("closedform.oracle", "closedform", "t0n_profile", None),
    ("closedform.oracle", "closedform", "t12_profile", None),
    ("closedform.oracle", "closedform", "t22_profile", None),
    ("closedform.oracle", "closedform", "tmn_profile", None),
    ("closedform.oracle", "closedform", "localized_expected_profile", None),
    ("towers.compare", "towers", "compare", _compare),
    ("jsonio.emit_json", "jsonio", "emit_json",
     _observe("jsonio.emit_json.bytes", lambda doc: len(doc.encode()))),
    ("svg.emit_svg", "svg", "emit_svg", _observe("svg.emit_svg.bytes", lambda doc: len(doc.encode()))),
]

# (layer, module, attribute, observer): aggregated per (case, layer)
LEAVES = [
    ("algebra.basis_in_degree", "algebra", "basis_in_degree",
     _observe("algebra.basis_in_degree.monomials", len)),
    ("algebra.multiply", "algebra", "multiply", None),
    ("engine.d_of_monomial", "engine", "_d_of_monomial",
     _observe("engine.d_of_monomial.nonzero", bool)),
    ("linalg.reduce_row", "linalg", "reduce_row", None),
    ("linalg.echelon_insert", "linalg", "echelon_insert", None),
    ("linalg.left_kernel", "linalg", "left_kernel", None),
    ("linalg.rank", "linalg", "rank", None),
    ("linalg.coset_solver", "linalg", "CosetSolver.__init__", None),
    ("linalg.express", "linalg", "CosetSolver.express", None),
]


class Tracer:
    """Spans, leaf aggregates, counters and collector time of one pass."""

    def __init__(self) -> None:
        self.case = ""
        self.absent: List[str] = []
        self._undo: List[tuple] = []
        self._gc_t0 = 0.0
        self.reset()

    def reset(self) -> None:
        self.origin = perf_counter()
        # a frame is [covered seconds, index of the enclosing span or -1]
        self.stack: List[list] = [[0.0, -1]]
        self.spans: List[list] = []  # [name, case, start, end, parent, covered]
        self.leaves: Dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.gc_s = 0.0
        self.gc_collections = 0

    # -- hooks

    def install(self) -> None:
        self.absent = []
        for table, leaf in ((SPANS, False), (LEAVES, True)):
            for layer, module, attr, observe in table:
                self._hook(layer, module, attr, leaf, observe)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _hook(self, layer: str, module: str, attr: str, leaf: bool, observe) -> None:
        try:
            owner = importlib.import_module(f"bockstein.{module}")
        except ImportError:
            owner = None
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, name, None) if owner is not None else None
        if original is None:
            self.absent.append(f"{module}.{attr}")
            return
        wrapper = self._wrap(layer, original, leaf, observe)
        if path:
            owners = [owner]
        else:
            # patch every binding of the function where callers look it up
            owners = [m for key, m in list(sys.modules.items())
                      if (key == "bockstein" or key.startswith("bockstein."))
                      and m.__dict__.get(name) is original]
        for own in owners:
            self._undo.append((own, name, original))
            setattr(own, name, wrapper)

    def _wrap(self, layer: str, fn: Callable, leaf: bool, observe) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1]
            if leaf:
                frame = [0.0, parent[1]]
            else:
                frame = [0.0, len(tracer.spans)]
                rec = [layer, tracer.case, 0.0, 0.0, parent[1], 0.0]
                tracer.spans.append(rec)
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if leaf:
                    agg = tracer.leaves[(tracer.case, layer)]
                    agg[0] += 1
                    agg[1] += t1 - t0
                    agg[2] += t1 - t0 - frame[0]
                else:
                    rec[2] = t0 - tracer.origin
                    rec[3] = t1 - tracer.origin
                    rec[5] = frame[0]
                parent[0] += t1 - t0
            if observe is not None:
                observe(tracer.counts[tracer.case], args, kwargs, out)
                # the observation belongs to no layer
                parent[0] += perf_counter() - t1
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = perf_counter()
            return
        if len(self.stack) == 1:
            return  # outside every span: collected by the benchmark, not the program
        d = perf_counter() - self._gc_t0
        self.gc_s += d
        self.gc_collections += 1
        self.stack[-1][0] += d

    @contextmanager
    def span(self, layer: str, case: Optional[str] = None):
        """A span opened by the benchmark itself, around one phase of a case."""
        if case is not None:
            self.case = case
        parent = self.stack[-1]
        frame = [0.0, len(self.spans)]
        rec = [layer, self.case, 0.0, 0.0, parent[1], 0.0]
        self.spans.append(rec)
        self.stack.append(frame)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self.stack.pop()
            rec[2], rec[3], rec[5] = t0 - self.origin, t1 - self.origin, frame[0]
            parent[0] += t1 - t0

    # -- results

    def self_times(self) -> Dict[str, float]:
        """Self seconds per layer: span durations minus covered time, plus
        the leaf aggregates' self time."""
        out: Dict[str, float] = defaultdict(float)
        for name, _case, start, end, _parent, covered in self.spans:
            out[name] += end - start - covered
        for (_case, layer), (_calls, _total, own) in self.leaves.items():
            out[layer] += own
        return out

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            out[name] += 1
        for (_case, layer), (n, _total, _own) in self.leaves.items():
            out[layer] += n
        return out

    def span_records(self) -> List[dict]:
        return [{"id": i, "name": name, "case": case, "start": start, "end": end,
                 "parent": parent, "self": end - start - covered}
                for i, (name, case, start, end, parent, covered) in enumerate(self.spans)]

    def leaf_records(self) -> List[dict]:
        return [{"case": case, "layer": layer, "calls": n, "total": total, "self": own}
                for (case, layer), (n, total, own) in sorted(self.leaves.items())]


PER_LAYER_UNITS = {
    "engine.schedule.s": "s",
    "engine.run.s": "s",
    "engine.build_e1.s": "s",
    "engine.build_e1.cells": "count",
    "engine.build_e1.window_frac": "ratio",
    "engine.apply_page.s": "s",
    "engine.apply_page.calls": "count",
    "engine.apply_page.diffs": "count",
    "engine.apply_page.rank_sum": "count",
    "engine.validate_rules.s": "s",
    "engine.extract_towers.s": "s",
    "engine.d_of_monomial.s": "s",
    "engine.d_of_monomial.calls": "count",
    "engine.d_of_monomial.nonzero_frac": "ratio",
    "algebra.basis_in_degree.s": "s",
    "algebra.basis_in_degree.calls": "count",
    "algebra.basis_in_degree.monomials": "count",
    "algebra.multiply.s": "s",
    "algebra.multiply.calls": "count",
    "linalg.coset_solver.s": "s",
    "linalg.coset_solver.builds": "count",
    "linalg.express.s": "s",
    "linalg.express.calls": "count",
    "linalg.left_kernel.s": "s",
    "linalg.rank.s": "s",
    "linalg.echelon_insert.s": "s",
    "linalg.echelon_insert.calls": "count",
    "linalg.reduce_row.s": "s",
    "linalg.reduce_row.calls": "count",
    "closedform.oracle.s": "s",
    "towers.compare.s": "s",
    "towers.compare.unverified": "count",
    "towers.compare.mismatches": "count",
    "jsonio.emit_json.s": "s",
    "jsonio.emit_json.bytes": "B",
    "svg.emit_svg.s": "s",
    "svg.emit_svg.bytes": "B",
    "python.gc.s": "s",
    "python.gc.collections": "count",
    "trace.wall_s": "s",
    "trace.attributed_frac": "ratio",
    "trace.certify_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer, wall_s: float) -> dict:
    """One pass's per-layer metrics; extra keys are kept in the record only."""
    layers = {k: v for k, v in tracer.self_times().items() if not k.startswith("bench.")}
    calls = tracer.calls()
    m: Dict[str, float] = defaultdict(int)
    for counts in tracer.counts.values():
        for key, val in counts.items():
            if not isinstance(val, str):  # counters are named after their metric
                m[key] += val
    m.update({f"{layer}.calls": n for layer, n in calls.items()})
    m.update({f"{layer}.s": s for layer, s in layers.items()})
    m["linalg.coset_solver.builds"] = calls.get("linalg.coset_solver", 0)
    cells, d_calls = m["engine.build_e1.cells"], m["engine.d_of_monomial.calls"]
    m["engine.build_e1.window_frac"] = m["engine.build_e1.window_cells"] / cells if cells else 0.0
    m["engine.d_of_monomial.nonzero_frac"] = (m["engine.d_of_monomial.nonzero"] / d_calls
                                              if d_calls else 0.0)
    m.update({"python.gc.s": tracer.gc_s, "python.gc.collections": tracer.gc_collections,
              "trace.wall_s": wall_s,
              "trace.attributed_frac": (sum(layers.values()) + tracer.gc_s) / wall_s})
    return dict(m)


def deterministic_counts(tracer) -> dict:
    """Per-case counts that do not depend on the machine or the case order."""
    out = {}
    for case, counts in tracer.counts.items():
        rec = dict(counts)
        for (c, layer), (n, _total, _own) in tracer.leaves.items():
            if c == case:
                rec[f"{layer}.calls"] = n
        rec["engine.apply_page.calls"] = sum(
            1 for s in tracer.spans if s[1] == case and s[0] == "engine.apply_page")
        out[case] = dict(sorted(rec.items()))
    return dict(sorted(out.items()))
