"""Frequency filtering on the constraint body via the sequence-encoding graph.

Vertices are the deduplicated rows of the closure's encoding table
(``PrefixClosure.encodings``), the empty sequence's row being the root;
arcs follow one-step extensions and carry the frequency mass that flows
along them. A breadth-first sweep keeps, per vertex, only the children
selected by a pluggable filter; everything the sweep never reaches is
stripped from the constraint body.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .dot import quote
from .eventlog import PrefixClosure
from .regions import EncodingVector, encoding_length, encoding_shorthand

KappaFilter = Callable[[EncodingVector], Iterable[EncodingVector]]


@dataclass(frozen=True)
class SequenceEncodingGraph:
    """Weighted DAG over encoding vectors.

    ``children`` maps each vertex to its outgoing arcs with their weights;
    ``vertex_weight`` is the total closure frequency of the sequences
    behind a vertex. The weight of an arc (v, w) is the frequency mass
    arriving at w from sequences whose proper prefix encodes to v, so the
    incoming arc weights of every vertex sum to its own weight.
    """

    root: EncodingVector
    children: Mapping[EncodingVector, Mapping[EncodingVector, int]]
    vertex_weight: Mapping[EncodingVector, int]
    alphabet: tuple[str, ...]

    @property
    def vertices(self) -> set[EncodingVector]:
        return set(self.vertex_weight)

    def shorthand(self, vertex: EncodingVector) -> str:
        return encoding_shorthand(vertex, self.alphabet)


def build_graph(pc: PrefixClosure) -> SequenceEncodingGraph:
    """Construct the sequence-encoding graph of a prefix-closure from its
    encoding table."""
    table = pc.encodings
    vertex_weight: dict[EncodingVector, int] = {}
    children: dict[EncodingVector, dict[EncodingVector, int]] = {}
    for trace, vec in table.items():
        freq = pc.entries[trace]
        vertex_weight[vec] = vertex_weight.get(vec, 0) + freq
        children.setdefault(vec, {})
        if trace:
            arcs = children.setdefault(table[trace[:-1]], {})
            arcs[vec] = arcs.get(vec, 0) + freq
    graph = SequenceEncodingGraph(
        root=table[()],
        children=children,
        vertex_weight=vertex_weight,
        alphabet=pc.ordered_alphabet(),
    )
    _assert_acyclic(graph)
    return graph


def _assert_acyclic(graph: SequenceEncodingGraph) -> None:
    # Kahn topological sort; encoding length strictly increases along arcs,
    # so a cycle would indicate a construction bug.
    indegree: dict[EncodingVector, int] = {v: 0 for v in graph.vertex_weight}
    for arcs in graph.children.values():
        for child in arcs:
            indegree[child] += 1
    queue = deque(v for v, deg in indegree.items() if deg == 0)
    seen = 0
    while queue:
        vertex = queue.popleft()
        seen += 1
        for child in graph.children.get(vertex, {}):
            indegree[child] -= 1
            if indegree[child] == 0:
                queue.append(child)
    if seen != len(indegree):
        raise AssertionError("sequence encoding graph has a cycle")


def kappa_max(
    graph: SequenceEncodingGraph, vertex: EncodingVector, alpha: float
) -> set[EncodingVector]:
    """Children whose arc weight reaches (1 - alpha) times the heaviest
    sibling arc; the empty set for childless vertices."""
    arcs = graph.children.get(vertex, {})
    if not arcs:
        return set()
    bound = (1.0 - alpha) * max(arcs.values())
    return {child for child, weight in arcs.items() if weight >= bound}


def make_kappa_max(graph: SequenceEncodingGraph, alpha: float) -> KappaFilter:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    return lambda vertex: kappa_max(graph, vertex, alpha)


def sef_bfs(graph: SequenceEncodingGraph, kappa: KappaFilter) -> set[EncodingVector]:
    """Breadth-first filtering sweep from the root.

    Collects the kappa-selected children of every processed vertex; the
    root itself is never part of the result. A visited set guards the
    queue so diamond merges are processed once.
    """
    retained: set[EncodingVector] = set()
    queue: deque[EncodingVector] = deque([graph.root])
    enqueued = {graph.root}
    while queue:
        vertex = queue.popleft()
        for child in kappa(vertex):
            retained.add(child)
            if child not in enqueued:
                enqueued.add(child)
                queue.append(child)
    return retained


def encoding_table(pc: PrefixClosure) -> str:
    """One line per distinct encoding vertex: shorthand and total closure
    frequency, ordered by sequence length then shorthand."""
    graph = build_graph(pc)
    rows = sorted(
        (encoding_length(v, graph.alphabet), graph.shorthand(v), weight)
        for v, weight in graph.vertex_weight.items()
    )
    return "".join(f"{short}\t{weight}\n" for _, short, weight in rows)


def seg_dot(
    graph: SequenceEncodingGraph, retained: set[EncodingVector] | None = None
) -> str:
    """DOT rendering with arc weights; vertices pruned by the filter (and
    the arcs reaching them) are drawn dashed."""
    order = sorted(
        (encoding_length(v, graph.alphabet), graph.shorthand(v), v)
        for v in graph.vertex_weight
    )
    ids = {v: f"v{i}" for i, (_, _, v) in enumerate(order)}

    def kept(vertex: EncodingVector) -> bool:
        return retained is None or vertex == graph.root or vertex in retained

    lines = ["digraph seg {", "  rankdir=TB;"]
    for _, short, vertex in order:
        style = ' style=dashed' if not kept(vertex) else ""
        lines.append(f"  {ids[vertex]} [label={quote(short)}{style}];")
    for _, _, vertex in order:
        for child, weight in sorted(
            graph.children.get(vertex, {}).items(),
            key=lambda item: ids[item[0]],
        ):
            style = ' style=dashed' if not (kept(vertex) and kept(child)) else ""
            lines.append(
                f'  {ids[vertex]} -> {ids[child]} [label="{weight}"{style}];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
