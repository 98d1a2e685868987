"""Output checks written without the code they check.

The checker reads the mined PNML with its own XML walk, plays its own
token game and implements the paper's filtering sweep itself. It imports
nothing from ``regionminer``; the caller passes the log as a bag of
traces.

Checked on every mined net:

- workflow-net structure: the marked source has no inputs, exactly one
  place (the sink) has no outputs, every node lies on a source-to-sink
  path, two silent wrapper transitions sit after the source and before the
  sink, and each log activity labels exactly one transition;
- region rows: for every prefix of every wrapped trace whose rows the
  filter keeps (all of them when the filter is off), firing the prefix's
  last transition never drives a place below zero, and every place is
  empty after each trace whose whole prefix path the filter keeps;
- with the filter off, every trace replays to exactly one token on the
  sink, and every transition fires in at least one such replay (its
  relaxed-soundness witness).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

Trace = tuple[str, ...]


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


@dataclass
class Net:
    places: set[str]
    marked: dict[str, int]
    labels: dict[str, str | None]  # transition -> label, None when silent
    pre: dict[str, set[str]]  # node -> input nodes
    post: dict[str, set[str]]  # node -> output nodes


def read_pnml(data: bytes) -> Net:
    root = ET.fromstring(data)
    places: set[str] = set()
    marked: dict[str, int] = {}
    labels: dict[str, str | None] = {}
    arcs: list[tuple[str, str]] = []
    for element in root.iter():
        kind = _local(element.tag)
        if kind == "place":
            places.add(element.attrib["id"])
            for child in element:
                if _local(child.tag) == "initialMarking":
                    marked[element.attrib["id"]] = int("".join(child.itertext()).strip())
        elif kind == "transition":
            name = None
            silent = False
            for child in element:
                if _local(child.tag) == "name":
                    name = "".join(child.itertext()).strip()
                elif _local(child.tag) == "toolspecific":
                    silent = silent or child.get("invisible") == "true"
            labels[element.attrib["id"]] = None if silent else name
        elif kind == "arc":
            arcs.append((element.attrib["source"], element.attrib["target"]))
    nodes = places | set(labels)
    pre: dict[str, set[str]] = {node: set() for node in nodes}
    post: dict[str, set[str]] = {node: set() for node in nodes}
    for source, target in arcs:
        post[source].add(target)
        pre[target].add(source)
    return Net(places, marked, labels, pre, post)


def _reach(origin: str, step: dict[str, set[str]]) -> set[str]:
    seen = {origin}
    stack = [origin]
    while stack:
        for nxt in step[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def structure(net: Net, alphabet: set[str]) -> tuple[list[str], dict | None]:
    """Workflow-net problems, plus the boundary (source, sink, start and
    end wrappers, activity -> transition) when there are none."""
    problems: list[str] = []
    if list(net.marked.values()) != [1]:
        return [f"expected one marked place with one token, got {net.marked}"], None
    (source,) = net.marked
    sinks = [p for p in net.places if not net.post[p]]
    if len(sinks) != 1:
        return [f"expected one place without outputs, got {sorted(sinks)}"], None
    sink = sinks[0]
    if net.pre[source]:
        problems.append("source has inputs")
    nodes = net.places | set(net.labels)
    off_path = nodes - (_reach(source, net.post) & _reach(sink, net.pre))
    if off_path:
        problems.append(f"not on a source-to-sink path: {sorted(off_path)}")
    silent = sorted(t for t, label in net.labels.items() if label is None)
    starts = sorted(net.post[source])
    ends = sorted(net.pre[sink])
    if len(starts) != 1 or len(ends) != 1 or sorted(starts + ends) != silent:
        problems.append(
            f"wrappers: source feeds {starts}, sink is fed by {ends}, silent {silent}"
        )
    transition_of: dict[str, str] = {}
    for t, label in net.labels.items():
        if label is None:
            continue
        if label in transition_of:
            problems.append(f"activity {label!r} labels two transitions")
        transition_of[label] = t
    if set(transition_of) != alphabet:
        problems.append(
            f"labels {sorted(transition_of)} differ from activities {sorted(alphabet)}"
        )
    if problems:
        return problems, None
    boundary = {
        "source": source,
        "sink": sink,
        "start": starts[0],
        "end": ends[0],
        "transition_of": transition_of,
    }
    return problems, boundary


def sweep_keep(traces: dict[Trace, int], alpha: float) -> set:
    """The paper's filtering sweep over Parikh-encoded prefixes.

    A vertex stands for (Parikh vector of the proper prefix, Parikh
    vector of the whole prefix); the arc from the vertex of a prefix to
    the vertex of its one-step extension carries the closure frequency of
    the extension. Breadth-first from the empty prefix, each reached
    vertex keeps the children whose arc mass reaches (1 - alpha) times
    the heaviest sibling arc. Returns the kept vertices.
    """
    children: dict[object, dict[object, int]] = {}
    for trace, count in traces.items():
        parent = "root"
        for cut in range(1, len(trace) + 1):
            vertex = encode(trace, cut)
            arcs = children.setdefault(parent, {})
            arcs[vertex] = arcs.get(vertex, 0) + count
            parent = vertex
    keep_share = 1 - Fraction(alpha)
    kept: set = set()
    queue = deque(["root"])
    seen = {"root"}
    while queue:
        arcs = children.get(queue.popleft(), {})
        if not arcs:
            continue
        bound = keep_share * max(arcs.values())
        for child, mass in arcs.items():
            if mass >= bound:
                kept.add(child)
                if child not in seen:
                    seen.add(child)
                    queue.append(child)
    return kept


def encode(trace: Trace, cut: int) -> tuple:
    """Order-free key of the prefix ``trace[:cut]``: the bag before its
    last event and the bag including it."""
    head = tuple(sorted(_bag(trace[: cut - 1]).items()))
    whole = tuple(sorted(_bag(trace[:cut]).items()))
    return head, whole


def _bag(events) -> dict[str, int]:
    counts: dict[str, int] = {}
    for event in events:
        counts[event] = counts.get(event, 0) + 1
    return counts


def check_net(pnml: bytes, traces: dict[Trace, int], alpha: float | None) -> list[str]:
    """Every problem found with a net mined from ``traces`` (visible
    activities only, with multiplicities) under filter strength ``alpha``."""
    net = read_pnml(pnml)
    alphabet = {a for trace in traces for a in trace}
    problems, boundary = structure(net, alphabet)
    if boundary is None:
        return problems
    transition_of = boundary["transition_of"]
    wrapped = {
        trace: (boundary["start"],)
        + tuple(transition_of[a] for a in trace)
        + (boundary["end"],)
        for trace in traces
    }
    kept = None
    if alpha is not None:
        kept = sweep_keep({wrapped[t]: n for t, n in traces.items()}, alpha)
    regions = sorted(net.places - {boundary["source"], boundary["sink"]})
    for place in regions:
        if net.marked.get(place):
            problems.append(f"region place {place} starts marked")
    for trace in sorted(traces):
        firing = wrapped[trace]
        kept_path = True
        tokens = dict.fromkeys(regions, 0)
        for cut, t in enumerate(firing, start=1):
            row_kept = kept is None or encode(firing, cut) in kept
            kept_path = kept_path and row_kept
            for place in regions:
                level = tokens[place] - (place in net.pre[t])
                if row_kept and level < 0:
                    problems.append(
                        f"place {place} goes negative at {t} in <{' '.join(trace)}>"
                    )
                tokens[place] = level + (place in net.post[t])
        if kept_path:
            full = [p for p in regions if tokens[p]]
            if full:
                problems.append(f"places {full} not empty after <{' '.join(trace)}>")
    if alpha is None:
        problems.extend(_witnesses(net, boundary, wrapped))
    return problems


def _witnesses(net: Net, boundary: dict, wrapped: dict[Trace, Trace]) -> list[str]:
    """Replay every wrapped trace with the token game; each must end on
    exactly one sink token, and every transition must fire in one."""
    problems = []
    fired: set[str] = set()
    final = {boundary["sink"]: 1}
    for trace, firing in sorted(wrapped.items()):
        marking = {boundary["source"]: 1}
        for t in firing:
            if any(marking.get(p, 0) < 1 for p in net.pre[t]):
                problems.append(f"{t} not enabled replaying <{' '.join(trace)}>")
                break
            for p in net.pre[t]:
                marking[p] -= 1
            for p in net.post[t]:
                marking[p] = marking.get(p, 0) + 1
        else:
            marking = {p: n for p, n in marking.items() if n}
            if marking == final:
                fired.update(firing)
            else:
                problems.append(f"<{' '.join(trace)}> ends on {marking}")
    unwitnessed = sorted(set(net.labels) - fired)
    if unwitnessed:
        problems.append(f"transitions without a witness trace: {unwitnessed}")
    return problems


def place_arcs(pnml: bytes) -> set[tuple[frozenset, frozenset]]:
    """(input labels, output labels) of every place, silent wrappers
    named by their transition id."""
    net = read_pnml(pnml)

    def names(ts):
        return frozenset(net.labels[t] or t for t in ts)

    return {(names(net.pre[p]), names(net.post[p])) for p in net.places}
