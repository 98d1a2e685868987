"""Causal relation oracle over unique-start/end logs.

Builds a directed graph of likely activity causalities from weighted
directly-follows counts, then repairs it so that every activity lies on a
path from the start activity to the end activity. That structural property
is what lets the discovery layer guarantee a workflow net.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from .dot import quote
from .errors import GraphRepairError
from .eventlog import EventLog, is_use_log

Arc = tuple[str, str]


def directly_follows(log: EventLog) -> dict[Arc, int]:
    """Count adjacent pairs (a immediately followed by b), multiplicity-weighted."""
    counts: dict[Arc, int] = {}
    for trace, mult in log.traces.items():
        for left, right in zip(trace, trace[1:]):
            counts[(left, right)] = counts.get((left, right), 0) + mult
    return counts


def dependency(a: str, b: str, df: Mapping[Arc, int]) -> float:
    """Frequency-aware dependency score in (-1, 1), antisymmetric in a and b."""
    forward = df.get((a, b), 0)
    backward = df.get((b, a), 0)
    return (forward - backward) / (forward + backward + 1)


@dataclass(frozen=True)
class CausalGraph:
    """Directed causality graph over the activities of a USE log.

    Invariants: no arc enters ``start`` and no arc leaves ``end``, so no
    path from either back to itself can exist. ``df`` keeps the raw
    directly-follows counts so that repair can score candidate arcs.
    """

    vertices: frozenset[str]
    arcs: frozenset[Arc]
    weights: Mapping[Arc, float]
    start: str
    end: str
    df: Mapping[Arc, int]


def build_causal_graph(
    log: EventLog, start: str, end: str, threshold: float = 0.9
) -> CausalGraph:
    """Keep every pair whose dependency score reaches ``threshold``.

    Arcs into the start activity or out of the end activity are dropped
    regardless of score.
    """
    if not is_use_log(log, start, end):
        raise ValueError("causal graph requires a unique-start/end log")
    df = directly_follows(log)
    arcs: set[Arc] = set()
    weights: dict[Arc, float] = {}
    for a in log.alphabet:
        for b in log.alphabet:
            if b == start or a == end:
                continue
            score = dependency(a, b, df)
            if score >= threshold:
                arcs.add((a, b))
                weights[(a, b)] = score
    return CausalGraph(
        vertices=frozenset(log.alphabet),
        arcs=frozenset(arcs),
        weights=weights,
        start=start,
        end=end,
        df=df,
    )


def _reachable(vertices, arcs, source, forward=True):
    adjacency: dict[str, list[str]] = {v: [] for v in vertices}
    for a, b in arcs:
        if forward:
            adjacency[a].append(b)
        else:
            adjacency[b].append(a)
    seen = {source}
    stack = [source]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def validate_path_property(graph: CausalGraph) -> tuple[bool, list[str]]:
    """True iff every vertex is on a start-to-end path and the boundary
    invariants hold. Returns the offending vertices otherwise."""
    violations = []
    for a, b in graph.arcs:
        if b == graph.start:
            violations.append(f"arc into start: {a}->{b}")
        if a == graph.end:
            violations.append(f"arc out of end: {a}->{b}")
    forward = _reachable(graph.vertices, graph.arcs, graph.start, forward=True)
    backward = _reachable(graph.vertices, graph.arcs, graph.end, forward=False)
    for v in sorted(graph.vertices):
        if v not in forward or v not in backward:
            violations.append(v)
    return (not violations, violations)


def _contact(df: Mapping[Arc, int], u: str, v: str) -> bool:
    return df.get((u, v), 0) > 0 or df.get((v, u), 0) > 0


def repair_for_path_property(graph: CausalGraph) -> CausalGraph:
    """Add arcs until every vertex lies on a start-to-end path.

    Each vertex not reachable from the start gets one arc from the
    reachable side, chosen by maximum dependency score with lexicographic
    tie-breaking; vertices that cannot reach the end are handled
    symmetrically. Existing arcs are never removed. Raises
    GraphRepairError when a vertex has no directly-follows contact with
    the connected part.
    """
    arcs = set(graph.arcs)

    def grow(forward: bool):
        while True:
            anchor = graph.start if forward else graph.end
            connected = _reachable(graph.vertices, arcs, anchor, forward=forward)
            missing = sorted(graph.vertices - connected)
            if not missing:
                return
            progress = False
            for v in missing:
                candidates = []
                for u in sorted(connected):
                    if forward and (u == graph.end or v == graph.start):
                        continue
                    if not forward and (u == graph.start or v == graph.end):
                        continue
                    if not _contact(graph.df, u, v):
                        continue
                    score = (
                        dependency(u, v, graph.df)
                        if forward
                        else dependency(v, u, graph.df)
                    )
                    candidates.append((score, u))
                if not candidates:
                    continue
                best_score = max(score for score, _ in candidates)
                partner = min(u for score, u in candidates if score == best_score)
                arcs.add((partner, v) if forward else (v, partner))
                progress = True
                break
            if not progress:
                raise GraphRepairError(
                    f"cannot connect vertex {missing[0]!r}: no directly-follows "
                    "contact with the connected part"
                )

    grow(forward=True)
    grow(forward=False)

    weights = dict(graph.weights)
    for arc in arcs - graph.arcs:
        weights[arc] = dependency(arc[0], arc[1], graph.df)
    repaired = replace(graph, arcs=frozenset(arcs), weights=weights)
    ok, violations = validate_path_property(repaired)
    if not ok:
        raise GraphRepairError(f"repair left violations: {violations}")
    return repaired


def causal_graph_dot(graph: CausalGraph) -> str:
    """Render the graph in DOT, arcs labelled with dependency scores."""
    lines = ["digraph causal {", "  rankdir=LR;"]
    for v in sorted(graph.vertices):
        lines.append(f"  {quote(v)};")
    for a, b in sorted(graph.arcs):
        weight = graph.weights.get((a, b), 0.0)
        lines.append(f'  {quote(a)} -> {quote(b)} [label="{weight:.3f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
