"""Frequency filtering on the constraint body via the sequence-encoding graph.

Vertices are the vertex ids of ``PrefixClosure.numbering``, one per
distinct encoding row of the closure's prefix tree, the empty sequence's
row being the root (vertex 0); arcs are the tree edges, merged where their
rows coincide, and carry the frequency mass that flows along them. A
breadth-first sweep keeps, per vertex, only the children selected by a
pluggable filter; everything the sweep never reaches is stripped from the
constraint body. Ids stay ids up to the constraint body: a row tuple,
``graph.vertices[v]``, is read only where a vertex is rendered.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .dot import quote
from .eventlog import PrefixClosure
from .regions import EncodingVector, encoding_length, encoding_shorthand

KappaFilter = Callable[[int], Iterable[int]]


@dataclass(frozen=True)
class SequenceEncodingGraph:
    """Weighted DAG over vertex ids; vertex 0 is the root.

    ``vertices[v]`` is the encoding row of vertex v (the closure's
    ``numbering.vertices``); ``children[v]`` maps each child id to its arc
    weight; ``vertex_weight[v]`` is the total closure frequency of the
    sequences behind v (``numbering.weights``). The weight of an arc
    (v, w) is the frequency mass arriving at w from sequences whose proper
    prefix encodes to v, so the incoming arc weights of every vertex sum to
    its own weight.
    """

    vertices: Sequence[EncodingVector]
    children: Sequence[Mapping[int, int]]
    vertex_weight: Sequence[int]
    alphabet: tuple[str, ...]

    def shorthand(self, vertex: int) -> str:
        return encoding_shorthand(self.vertices[vertex], self.alphabet)


def build_graph(pc: PrefixClosure) -> SequenceEncodingGraph:
    """Construct the sequence-encoding graph of a prefix-closure: each
    tree edge becomes an arc between the vertex ids of its two nodes. It
    is acyclic by construction: every arc runs from a prefix's row to the
    row of a prefix one event longer, and a row's ``encoding_length`` is
    its prefix's length."""
    numbering = pc.numbering
    vertex_ids = numbering.vertex_ids
    children: list[dict[int, int]] = [{} for _ in numbering.vertices]
    nodes = zip(pc.parents[1:], pc.frequencies[1:], vertex_ids[1:])
    for parent, freq, vertex in nodes:
        out = children[vertex_ids[parent]]
        out[vertex] = out.get(vertex, 0) + freq
    return SequenceEncodingGraph(
        numbering.vertices, tuple(children), numbering.weights, pc.ordered_alphabet()
    )


def kappa_max(graph: SequenceEncodingGraph, vertex: int, alpha: float) -> set[int]:
    """Children whose arc weight reaches (1 - alpha) times the heaviest
    sibling arc; the empty set for childless vertices."""
    arcs = graph.children[vertex]
    if not arcs:
        return set()
    try:
        bound = (1.0 - alpha) * max(arcs.values())
    except OverflowError:
        raise ValueError(
            "the filter cannot weigh an arc weight beyond float range"
        ) from None
    return {child for child, weight in arcs.items() if weight >= bound}


def make_kappa_max(graph: SequenceEncodingGraph, alpha: float) -> KappaFilter:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    return lambda vertex: kappa_max(graph, vertex, alpha)


def sef_bfs(graph: SequenceEncodingGraph, kappa: KappaFilter) -> set[int]:
    """Breadth-first filtering sweep from the root (vertex 0).

    Collects the ids of the kappa-selected children of every processed
    vertex; the root itself is never part of the result. A visited set
    guards the queue so diamond merges are processed once.
    """
    retained: set[int] = set()
    queue: deque[int] = deque([0])
    enqueued = {0}
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
    numbering = pc.numbering
    alphabet = pc.ordered_alphabet()
    rows = sorted(
        (encoding_length(row, alphabet), encoding_shorthand(row, alphabet), weight)
        for row, weight in zip(numbering.vertices, numbering.weights)
    )
    return "".join(f"{short}\t{weight}\n" for _, short, weight in rows)


def seg_dot(graph: SequenceEncodingGraph, retained: set[int] | None = None) -> str:
    """DOT rendering with arc weights; vertices pruned by the filter (and
    the arcs reaching them) are drawn dashed. Vertices are listed by
    sequence length, then shorthand, which is injective."""
    order = sorted(
        (encoding_length(row, graph.alphabet), graph.shorthand(v), v)
        for v, row in enumerate(graph.vertices)
    )
    names = {v: f"v{i}" for i, (_, _, v) in enumerate(order)}

    def kept(vertex: int) -> bool:
        return retained is None or vertex == 0 or vertex in retained

    lines = ["digraph seg {", "  rankdir=TB;"]
    for _, short, vertex in order:
        style = ' style=dashed' if not kept(vertex) else ""
        lines.append(f"  {names[vertex]} [label={quote(short)}{style}];")
    for _, _, vertex in order:
        for child, weight in sorted(
            graph.children[vertex].items(), key=lambda item: names[item[0]]
        ):
            style = ' style=dashed' if not (kept(vertex) and kept(child)) else ""
            lines.append(
                f'  {names[vertex]} -> {names[child]} [label="{weight}"{style}];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
