"""Frequency filtering on the constraint body via the sequence-encoding graph.

Vertices are the distinct encoding rows of the closure's prefix tree,
built once each and numbered by ``PrefixClosure.numbering``, the empty
sequence's row being the root (vertex 0); arcs are the tree edges, merged
where their rows coincide, and carry the frequency mass that flows along
them. The graph is summed up over vertex ids and keyed by the row tuples
only when it is returned. A breadth-first sweep keeps, per vertex, only
the children selected by a pluggable filter; everything the sweep never
reaches is stripped from the constraint body.
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
    """Construct the sequence-encoding graph of a prefix-closure: each
    tree edge becomes an arc between the rows of its two nodes. It is
    acyclic by construction: every arc runs from a prefix's row to the
    row of a prefix one event longer, and a row's ``encoding_length`` is
    its prefix's length. Weights are summed by vertex id."""
    numbering = pc.numbering
    vertices, vertex_ids = numbering.vertices, numbering.vertex_ids
    weights = [0] * len(vertices)
    arcs: list[dict[int, int]] = [{} for _ in vertices]  # by parent vertex id
    weights[0] = pc.frequencies[0]
    nodes = zip(pc.parents[1:], pc.frequencies[1:], vertex_ids[1:])
    for parent, freq, vertex in nodes:
        weights[vertex] += freq
        out = arcs[vertex_ids[parent]]
        out[vertex] = out.get(vertex, 0) + freq
    return SequenceEncodingGraph(
        root=vertices[0],
        children={
            vertices[v]: {vertices[w]: weight for w, weight in out.items()}
            for v, out in enumerate(arcs)
        },
        vertex_weight=dict(zip(vertices, weights)),
        alphabet=pc.ordered_alphabet(),
    )


def kappa_max(
    graph: SequenceEncodingGraph, vertex: EncodingVector, alpha: float
) -> set[EncodingVector]:
    """Children whose arc weight reaches (1 - alpha) times the heaviest
    sibling arc; the empty set for childless vertices."""
    arcs = graph.children.get(vertex, {})
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
