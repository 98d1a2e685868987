"""Causal relation oracle over the prefix tree of a unique-start/end log.

Builds a directed graph of likely activity causalities from weighted
directly-follows counts, read off the prefix tree (``PrefixClosure``) the
rest of discovery uses, so no stage here walks the log's events. It then
repairs the graph so that every activity lies on a path from the start
activity to the end activity. That structural property is what lets the
discovery layer guarantee a workflow net. Repair runs one growth rule
twice: on the graph from the start, then on its reverse (arcs and counts
reversed) from the end. Arc weights are not stored; the directly-follows
counts determine them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterable, Mapping

from .dot import quote
from .errors import GraphRepairError
from .eventlog import PrefixClosure

Arc = tuple[str, str]

DEFAULT_DEPENDENCY_THRESHOLD = 0.9


def directly_follows(pc: PrefixClosure) -> dict[Arc, int]:
    """Count adjacent pairs (a immediately followed by b), multiplicity-weighted.

    Every occurrence of ``a b`` in a trace ends a prefix of depth >= 2, so
    each such tree node adds its closure frequency (the number of trace
    instances passing through it) to the pair of its parent's last
    activity and its own.
    """
    counts: dict[Arc, int] = {}
    lasts = pc.lasts
    for node, (parent, frequency) in enumerate(zip(pc.parents, pc.frequencies)):
        if parent > 0:
            arc = (lasts[parent], lasts[node])
            counts[arc] = counts.get(arc, 0) + frequency
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
    start: str
    end: str
    df: Mapping[Arc, int]

    @property
    def weights(self) -> dict[Arc, float]:
        """The dependency score of every arc."""
        return {(a, b): dependency(a, b, self.df) for a, b in self.arcs}


def _is_use(pc: PrefixClosure) -> bool:
    """True iff ``pc`` is the closure of a unique-start/end log: every
    trace starts with ``pc.start``, ends with ``pc.end``, and holds
    neither anywhere else.

    Read off the tree: node 0 has no multiplicity (the empty trace is no
    USE trace), the only depth-1 node is ``(start,)`` and has no
    multiplicity, no deeper node ends in ``start``, and a deeper node has
    a multiplicity exactly when it ends in ``end``, and then no children
    (its multiplicity equals its frequency).
    """
    start, end, lasts = pc.start, pc.end, pc.lasts
    if start is None or end is None or start == end:
        return False
    # in (length, prefix) order node 1 is the first depth-1 node and node 2
    # the next one, if there is one
    if lasts[1:2] != (start,) or len(lasts) > 2 and pc.parents[2] == 0:
        return False
    if any(pc.multiplicities[:2]):
        return False
    deeper = islice(zip(lasts, pc.frequencies, pc.multiplicities), 2, None)
    for last, frequency, multiplicity in deeper:
        if last == start or multiplicity != (frequency if last == end else 0):
            return False
    return True


def build_causal_graph(
    pc: PrefixClosure, threshold: float = DEFAULT_DEPENDENCY_THRESHOLD
) -> CausalGraph:
    """Keep every pair whose dependency score reaches ``threshold``.

    ``pc`` is the prefix tree of a unique-start/end log, with ``start``
    and ``end`` set (ValueError otherwise); its alphabet gives the
    vertices. Arcs into the start activity or out of the end activity are
    dropped regardless of score.
    """
    if not _is_use(pc):
        raise ValueError("causal graph requires the closure of a unique-start/end log")
    df = directly_follows(pc)
    arcs: set[Arc] = set()
    for a in pc.alphabet:
        for b in pc.alphabet:
            if b == pc.start or a == pc.end:
                continue
            if dependency(a, b, df) >= threshold:
                arcs.add((a, b))
    return CausalGraph(
        vertices=pc.alphabet,
        arcs=frozenset(arcs),
        start=pc.start,
        end=pc.end,
        df=df,
    )


def _reversed(arcs: Iterable[Arc]) -> set[Arc]:
    return {(b, a) for a, b in arcs}


def _reachable(vertices, arcs, source):
    adjacency: dict[str, list[str]] = {v: [] for v in vertices}
    for a, b in arcs:
        adjacency[a].append(b)
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
    forward = _reachable(graph.vertices, graph.arcs, graph.start)
    backward = _reachable(graph.vertices, _reversed(graph.arcs), graph.end)
    for v in sorted(graph.vertices):
        if v not in forward or v not in backward:
            violations.append(v)
    return (not violations, violations)


def _contact(df: Mapping[Arc, int], u: str, v: str) -> bool:
    return df.get((u, v), 0) > 0 or df.get((v, u), 0) > 0


def _connect(vertices, arcs, df, anchor, barrier) -> set[Arc]:
    """``arcs`` grown until ``anchor`` reaches every vertex: each round
    adds one arc to the first unreachable vertex in sorted order with
    directly-follows contact, from its best-scoring reachable partner
    (lowest name on ties) other than ``barrier``."""
    arcs = set(arcs)
    while True:
        connected = _reachable(vertices, arcs, anchor)
        missing = sorted(vertices - connected)
        if not missing:
            return arcs
        for v in missing:
            candidates = []
            for u in sorted(connected):
                if u == barrier:
                    continue
                if not _contact(df, u, v):
                    continue
                candidates.append((dependency(u, v, df), u))
            if not candidates:
                continue
            best_score = max(score for score, _ in candidates)
            partner = min(u for score, u in candidates if score == best_score)
            arcs.add((partner, v))
            break
        else:
            raise GraphRepairError(
                f"cannot connect vertex {missing[0]!r}: no directly-follows "
                "contact with the connected part"
            )


def repair_for_path_property(graph: CausalGraph) -> CausalGraph:
    """Add arcs until every vertex lies on a start-to-end path.

    Growing from the start connects every vertex the start cannot reach;
    the same rule on the reversed graph, growing from the end, connects
    every vertex that cannot reach the end. Existing arcs are never
    removed. Raises GraphRepairError when a vertex has no directly-follows
    contact with the connected part.
    """
    arcs = _connect(graph.vertices, graph.arcs, graph.df, graph.start, graph.end)
    # dependency(u, v, reverse_df) computes dependency(v, u, graph.df)
    reverse_df = {(b, a): count for (a, b), count in graph.df.items()}
    reverse_arcs = _connect(
        graph.vertices, _reversed(arcs), reverse_df, graph.end, graph.start
    )
    repaired = replace(graph, arcs=frozenset(_reversed(reverse_arcs)))
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
        weight = dependency(a, b, graph.df)
        lines.append(f'  {quote(a)} -> {quote(b)} [label="{weight:.3f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
