"""Spans recorded from outside the program, and the per-layer metrics
derived from them.

The tracer wraps the public functions that ``regionminer.discovery`` and
``regionminer.quality`` call (by replacing the names in those modules for
the duration of a traced round), the per-pair solver (passed through
``DiscoveryOptions(solver=...)``) and the calls the benchmark makes itself.
Spans stay in memory; ``layer_metrics`` turns one round's spans into the
per-layer figures.
"""

from __future__ import annotations

import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    ident: int
    parent: int | None  # ident of the span that caused this one
    thread: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans. Nesting is tracked per thread; a span opened on a
    thread with nothing open (a solver pool worker) is attributed to the
    outermost span open on the thread that created the tracer."""

    def __init__(self):
        self.spans: list[Span] = []
        self._owner = threading.get_ident()
        self._local = threading.local()
        self._root: int | None = None
        self._next = 0
        self._lock = threading.Lock()

    def wrap(self, name: str, fn: Callable, counts: Callable | None = None) -> Callable:
        """``fn`` with a span named ``name`` around every call; ``counts``
        maps the return value to counters stored on the span."""

        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            with self._lock:
                ident = self._next
                self._next += 1
            parent = stack[-1] if stack else self._root
            thread = threading.get_ident()
            if parent is None and thread == self._owner:
                self._root = ident
            stack.append(ident)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if self._root == ident:
                    self._root = None
            span = Span(name, start, end, ident, parent, thread)
            if counts is not None:
                span.counts = counts(result)
            self.spans.append(span)
            return result

        return traced

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a new batch."""
        spans, self.spans = self.spans, []
        return spans


# (module, function, span name, counters read from the return value)
PATCHES = (
    ("discovery", "use_transform", "eventlog.use_transform", None),
    ("discovery", "prefix_closure", "eventlog.prefix_closure",
     lambda pc: {"prefixes": len(pc.entries)}),
    ("discovery", "build_causal_graph", "causal.build_causal_graph", None),
    ("discovery", "repair_for_path_property", "causal.repair_for_path_property",
     lambda graph: {"pairs": len(graph.arcs)}),
    ("discovery", "build_graph", "filtering.build_graph",
     lambda graph: {"vertices": len(graph.vertex_weight)}),
    ("discovery", "make_kappa_max", "filtering.make_kappa_max", None),
    ("discovery", "sef_bfs", "filtering.sef_bfs", lambda kept: {"retained": len(kept)}),
    ("discovery", "build_constraint_system", "regions.build_constraint_system",
     lambda cs: {"inequality_rows": len(cs.inequality_rows),
                 "equality_rows": len(cs.equality_rows)}),
    ("discovery", "instantiate_causal_ilp", "regions.instantiate_causal_ilp", None),
    ("quality", "token_fitness", "quality.token_fitness", None),
    ("quality", "escaping_edges_precision", "quality.escaping_edges_precision", None),
)


@contextmanager
def instrumented(tracer: Tracer, modules: dict):
    """Replace the patched names in ``modules`` (short name -> module)
    with traced wrappers, restoring the originals on exit."""
    saved = []
    try:
        for module_name, attr, span_name, counts in PATCHES:
            module = modules[module_name]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original, counts))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _self_time(parent: Span, spans: list[Span]) -> float:
    children = [
        (max(s.start, parent.start), min(s.end, parent.end))
        for s in spans
        if s.parent == parent.ident and s.end > parent.start and s.start < parent.end
    ]
    return parent.duration - covered(children)


# name -> unit, in the order they are reported
LAYER_METRICS = {
    "eventlog.parse_s": "s",
    "eventlog.closure_s": "s",
    "eventlog.prefixes": "count",
    "causal.graph_s": "s",
    "causal.pairs": "count",
    "filtering.graph_s": "s",
    "filtering.sweep_s": "s",
    "filtering.vertices": "count",
    "filtering.retained": "count",
    "regions.system_s": "s",
    "regions.instantiate_s": "s",
    "regions.inequality_rows": "count",
    "regions.equality_rows": "count",
    "ilp.solve_s": "s",
    "ilp.pair_max_s": "s",
    "ilp.pair_p50_s": "s",
    "ilp.pair_sum_s": "s",
    "ilp.pairs_solved": "count",
    "ilp.pairs_infeasible": "count",
    "ilp.distinct_place_ratio": "ratio",
    "ilp.threads": "count",
    "discovery.self_s": "s",
    "discovery.places": "count",
    "petri.export_s": "s",
    "petri.parse_s": "s",
    "petri.pnml_bytes": "bytes",
    "quality.evaluate_s": "s",
    "quality.fitness_s": "s",
    "quality.precision_s": "s",
    "quality.evaluate_self_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one traced round (every job mined and scored
    once). Times and counts are summed over the round's jobs; the pair
    maximum and median are taken over every pair of the round."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def busy(*names: str) -> float:
        return sum(s.duration for n in names for s in by_name.get(n, ()))

    def count(name: str, key: str) -> int:
        return sum(s.counts[key] for s in by_name.get(name, ()))

    solves = by_name.get("ilp.solve", [])
    pair_times = [s.duration for s in solves]
    solved = sum(s.counts["status"] == "optimal" for s in solves)
    places = count("discovery.run_discovery", "places")
    threads_per_run = [
        len({s.thread for s in solves if s.parent == run.ident})
        for run in by_name.get("discovery.run_discovery", ())
    ]
    return {
        "eventlog.parse_s": busy("eventlog.parse_trace_log"),
        "eventlog.closure_s": busy("eventlog.use_transform", "eventlog.prefix_closure"),
        "eventlog.prefixes": count("eventlog.prefix_closure", "prefixes"),
        "causal.graph_s": busy(
            "causal.build_causal_graph", "causal.repair_for_path_property"
        ),
        "causal.pairs": count("causal.repair_for_path_property", "pairs"),
        "filtering.graph_s": busy("filtering.build_graph"),
        "filtering.sweep_s": busy("filtering.make_kappa_max", "filtering.sef_bfs"),
        "filtering.vertices": count("filtering.build_graph", "vertices"),
        "filtering.retained": count("filtering.sef_bfs", "retained"),
        "regions.system_s": busy("regions.build_constraint_system"),
        "regions.instantiate_s": busy("regions.instantiate_causal_ilp"),
        "regions.inequality_rows": count("regions.build_constraint_system", "inequality_rows"),
        "regions.equality_rows": count("regions.build_constraint_system", "equality_rows"),
        "ilp.solve_s": covered((s.start, s.end) for s in solves),
        "ilp.pair_max_s": max(pair_times, default=0.0),
        "ilp.pair_p50_s": statistics.median(pair_times) if pair_times else 0.0,
        "ilp.pair_sum_s": sum(pair_times),
        "ilp.pairs_solved": solved,
        "ilp.pairs_infeasible": len(solves) - solved,
        "ilp.distinct_place_ratio": places / solved if solved else 0.0,
        "ilp.threads": max(threads_per_run, default=0),
        "discovery.self_s": sum(
            _self_time(run, spans) for run in by_name.get("discovery.run_discovery", ())
        ),
        "discovery.places": places,
        "petri.export_s": busy("petri.export_pnml"),
        "petri.parse_s": busy("petri.parse_pnml"),
        "petri.pnml_bytes": count("petri.export_pnml", "bytes"),
        "quality.evaluate_s": busy("quality.evaluate"),
        "quality.fitness_s": busy("quality.token_fitness"),
        "quality.precision_s": busy("quality.escaping_edges_precision"),
        "quality.evaluate_self_s": sum(
            _self_time(run, spans) for run in by_name.get("quality.evaluate", ())
        ),
    }
