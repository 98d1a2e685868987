"""Labelled Petri nets, workflow nets, replay and soundness checking.

Markings are sparse bags (place -> positive token count). Nets are
immutable after construction; replay, exploration and the checkers are
pure functions.

Replay rule, shared by ``replay`` and the scores in ``quality``:
``label_map`` maps each visible label to its one transition, and rejects
a label the caller will replay that the net lacks and a visible label on
several transitions. Before each event, and after the last event until
the final marking, the silent walk fires the unique enabled silent
transition until the goal is met. A walk stops when zero or several
silents are enabled, and after at most |T| + 1 firings, so a silent
cycle cannot run forever.

Replay and scoring run on a ``CompiledNet``: places are numbered in
sorted order and a marking is the sorted tuple of its tokens' place
indices, one entry per token, so it can key a dict. ``CompiledNet.walk``
is the one implementation of the silent walk.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping
import xml.etree.ElementTree as ET

from .dot import quote
from .errors import ParseError, ReplayError
from .eventlog import EventLog, Trace

Marking = dict[str, int]


class PetriNet:
    """Bipartite net: places, transitions, unit-weight arcs and a label
    per transition (None marks a silent transition)."""

    def __init__(
        self,
        places: Iterable[str],
        transitions: Iterable[str],
        arcs: Iterable[tuple[str, str]],
        labels: Mapping[str, str | None],
    ):
        self.places = frozenset(places)
        self.transitions = frozenset(transitions)
        self.arcs = frozenset(arcs)
        self.labels = dict(labels)
        if self.places & self.transitions:
            raise ValueError("places and transitions must be disjoint")
        nodes = self.places | self.transitions
        for source, target in self.arcs:
            if source not in nodes or target not in nodes:
                raise ValueError(f"arc ({source}, {target}) references unknown node")
            if (source in self.places) == (target in self.places):
                raise ValueError(f"arc ({source}, {target}) is not bipartite")
        for t in self.transitions:
            if t not in self.labels:
                raise ValueError(f"transition {t} has no label entry")
        pre: dict[str, set[str]] = {n: set() for n in nodes}
        post: dict[str, set[str]] = {n: set() for n in nodes}
        for source, target in self.arcs:
            post[source].add(target)
            pre[target].add(source)
        self.preset = {n: frozenset(sources) for n, sources in pre.items()}
        self.postset = {n: frozenset(targets) for n, targets in post.items()}

    def components(self):
        return (self.places, self.transitions, self.arcs, self.labels)

    def __eq__(self, other):
        return isinstance(other, PetriNet) and self.components() == other.components()

    def __repr__(self):
        return (
            f"PetriNet({len(self.places)} places, {len(self.transitions)} "
            f"transitions, {len(self.arcs)} arcs)"
        )


@dataclass(frozen=True)
class WorkflowNet:
    net: PetriNet
    source: str
    sink: str

    def initial_marking(self) -> Marking:
        return {self.source: 1}

    def final_marking(self) -> Marking:
        return {self.sink: 1}


def enabled(net: PetriNet, marking: Marking, transition: str) -> bool:
    if transition not in net.transitions:
        raise ValueError(f"unknown transition {transition}")
    return all(marking.get(p, 0) > 0 for p in net.preset[transition])


def fire(net: PetriNet, marking: Marking, transition: str) -> Marking:
    """Token update rule: consume one from each input-only place, produce
    one on each output-only place, self-loop places unchanged."""
    if not enabled(net, marking, transition):
        raise ValueError(f"transition {transition} is not enabled")
    result = dict(marking)
    pre = net.preset[transition]
    post = net.postset[transition]
    for p in pre - post:
        result[p] -= 1
        if result[p] == 0:
            del result[p]
    for p in post - pre:
        result[p] = result.get(p, 0) + 1
    return result


@dataclass(frozen=True)
class ReplayResult:
    ok: bool
    blocked_at: int | None
    final_marking: Marking
    fired: tuple[str, ...]


def label_map(net: PetriNet, labels: Iterable[str]) -> dict[str, str]:
    """Visible label -> its transition, checked against the ``labels`` the
    caller will replay: each must be in the net, and no visible label may
    sit on more than one transition."""
    transition_of: dict[str, str] = {}
    ambiguous = set()
    for t in net.transitions:
        label = net.labels[t]
        if label is not None:
            if label in transition_of:
                ambiguous.add(label)
            transition_of[label] = t
    missing = sorted(set(labels) - transition_of.keys())
    if missing:
        raise ReplayError(f"labels missing from the net: {', '.join(missing)}")
    if ambiguous:
        raise ReplayError(f"ambiguous labels in the net: {', '.join(sorted(ambiguous))}")
    return transition_of


@dataclass(frozen=True)
class CompiledTransition:
    """A transition over place indices: the places it needs marked, those
    it takes a token from (preset minus postset) and puts one on (postset
    minus preset), and the sizes of its preset and postset, which replay
    counts as consumed and produced tokens."""

    name: str
    preset: frozenset[int]
    consumes: tuple[int, ...]
    produces: tuple[int, ...]
    inputs: int
    outputs: int

    def enabled(self, marking: tuple[int, ...]) -> bool:
        return self.preset.issubset(marking)

    def fire(
        self, marking: tuple[int, ...], inserted: tuple[int, ...] = ()
    ) -> tuple[int, ...]:
        """The marking after adding the ``inserted`` tokens and firing;
        the transition must be enabled once they are added."""
        tokens = [*marking, *inserted]
        for place in self.consumes:
            tokens.remove(place)
        tokens += self.produces
        tokens.sort()
        return tuple(tokens)


Walk = list[tuple[tuple[int, ...], tuple[CompiledTransition, ...]]]


class CompiledNet:
    """A net numbered for replay: ``places`` in sorted order, and one
    ``CompiledTransition`` per transition name."""

    def __init__(self, net: PetriNet):
        self.places = tuple(sorted(net.places))
        self.index = {place: i for i, place in enumerate(self.places)}
        self.transitions: dict[str, CompiledTransition] = {}
        for t in sorted(net.transitions):
            pre, post = net.preset[t], net.postset[t]
            self.transitions[t] = CompiledTransition(
                name=t,
                preset=frozenset(self.index[p] for p in pre),
                consumes=tuple(sorted(self.index[p] for p in pre - post)),
                produces=tuple(sorted(self.index[p] for p in post - pre)),
                inputs=len(pre),
                outputs=len(post),
            )
        self.silents = tuple(
            c for t, c in self.transitions.items() if net.labels[t] is None
        )
        self.hops = len(net.transitions) + 1

    def encode(self, marking: Marking) -> tuple[int, ...]:
        return tuple(
            sorted(self.index[p] for p, count in marking.items() for _ in range(count))
        )

    def decode(self, marking: tuple[int, ...]) -> Marking:
        bag: Marking = {}
        for i in marking:
            bag[self.places[i]] = bag.get(self.places[i], 0) + 1
        return bag

    def walk(self, marking: tuple[int, ...]) -> Walk:
        """``marking``, then each marking reached by firing the unique
        enabled silent transition, each with the silents fired to reach
        it. Stops when zero or several silents are enabled, or after
        |T| + 1 firings."""
        path: tuple[CompiledTransition, ...] = ()
        walk = [(marking, path)]
        for _ in range(self.hops):
            ready = [t for t in self.silents if t.enabled(marking)]
            if len(ready) != 1:
                break
            marking = ready[0].fire(marking)
            path += (ready[0],)
            walk.append((marking, path))
        return walk


def first_step(
    walk: Walk, goal: Callable[[tuple[int, ...]], bool]
) -> tuple[tuple[int, ...], tuple[CompiledTransition, ...]]:
    """The first marking of ``walk`` that meets ``goal`` (else its last),
    with the silents fired to reach it."""
    return next((step for step in walk if goal(step[0])), walk[-1])


def replay(wfnet: WorkflowNet, trace: Trace) -> ReplayResult:
    """Deterministic replay of a visible trace from the source place.

    Every label of the trace is checked up front; silents fire by the
    module's replay rule. Discovery output has just the two wrapper
    silents at fixed positions, so the rule is complete there. The replay
    is ok when every event fired and the walk after the last one reaches
    exactly one token on the sink; otherwise ``blocked_at`` is the index
    of the event that could not fire (the trace length when the end was
    not reached), and ``fired`` lists only transitions that did fire.
    """
    transition_of = label_map(wfnet.net, trace)
    net = CompiledNet(wfnet.net)
    marking = net.encode(wfnet.initial_marking())
    fired: list[str] = []
    for index, label in enumerate(trace):
        transition = net.transitions[transition_of[label]]
        marking, path = first_step(net.walk(marking), transition.enabled)
        fired += (t.name for t in path)
        if not transition.enabled(marking):
            return ReplayResult(False, index, net.decode(marking), tuple(fired))
        marking = transition.fire(marking)
        fired.append(transition.name)
    final = net.encode(wfnet.final_marking())
    marking, path = first_step(net.walk(marking), final.__eq__)
    fired += (t.name for t in path)
    ok = marking == final
    blocked_at = None if ok else len(trace)
    return ReplayResult(ok, blocked_at, net.decode(marking), tuple(fired))


def is_wf_net(net: PetriNet, source: str, sink: str) -> tuple[bool, list[str]]:
    """Structural workflow-net conditions: no arc into the source, none out
    of the sink, and every node on a source-to-sink path."""
    violations: list[str] = []
    if source not in net.places or sink not in net.places:
        return False, [f"missing boundary place {source}/{sink}"]
    if source == sink:
        return False, ["source equals sink"]
    if net.preset[source]:
        violations.append(f"source has incoming arcs: {sorted(net.preset[source])}")
    if net.postset[sink]:
        violations.append(f"sink has outgoing arcs: {sorted(net.postset[sink])}")

    def sweep(origin: str, mapping) -> set[str]:
        seen = {origin}
        queue = [origin]
        while queue:
            for nxt in mapping[queue.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return seen

    forward = sweep(source, net.postset)
    backward = sweep(sink, net.preset)
    for node in sorted(net.places | net.transitions):
        if node not in forward or node not in backward:
            violations.append(node)
    return (not violations, violations)


def relaxed_soundness_witnesses(
    wfnet: WorkflowNet, log: EventLog
) -> dict[str, Trace | None]:
    """Per transition, the first log trace whose replay fires it and ends
    on the sink; full coverage certifies relaxed soundness constructively."""
    witnesses: dict[str, Trace | None] = {t: None for t in wfnet.net.transitions}
    for trace in sorted(log.traces):
        result = replay(wfnet, trace)
        if not result.ok:
            continue
        for t in set(result.fired):
            if witnesses[t] is None:
                witnesses[t] = trace
    return witnesses


def _marking_key(marking: Marking) -> tuple[tuple[str, int], ...]:
    return tuple(sorted(marking.items()))


@dataclass(frozen=True)
class ReachabilityGraph:
    initial: tuple
    markings: dict
    edges: tuple
    complete: bool


def explore_state_space(
    net: PetriNet, marking: Marking, bound: int = 100000
) -> ReachabilityGraph:
    """Breadth-first reachability up to ``bound`` distinct markings; the
    result says whether exploration exhausted the state space."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    start = _marking_key(marking)
    markings = {start: dict(marking)}
    edges: list[tuple[tuple, str, tuple]] = []
    queue = deque([start])
    complete = True
    while queue:
        key = queue.popleft()
        state = markings[key]
        for t in sorted(net.transitions):
            if not enabled(net, state, t):
                continue
            successor = fire(net, state, t)
            successor_key = _marking_key(successor)
            if successor_key not in markings:
                if len(markings) >= bound:
                    complete = False
                    continue
                markings[successor_key] = successor
                queue.append(successor_key)
            edges.append((key, t, successor_key))
    return ReachabilityGraph(
        initial=start, markings=markings, edges=tuple(edges), complete=complete
    )


def relaxed_soundness_by_exploration(
    wfnet: WorkflowNet, bound: int = 100000
) -> str:
    """Direct decision over the reachability graph: "sound", "unsound", or
    "undecided" when the bound cut exploration short."""
    graph = explore_state_space(wfnet.net, wfnet.initial_marking(), bound)
    if not graph.complete:
        return "undecided"
    final = _marking_key(wfnet.final_marking())
    backward: dict[tuple, set[tuple]] = {}
    for origin, _t, target in graph.edges:
        backward.setdefault(target, set()).add(origin)
    co_reachable = set()
    if final in graph.markings:
        co_reachable.add(final)
        queue = [final]
        while queue:
            for origin in backward.get(queue.pop(), ()):
                if origin not in co_reachable:
                    co_reachable.add(origin)
                    queue.append(origin)
    fireable = {
        t
        for origin, t, target in graph.edges
        if target in co_reachable
    }
    return "sound" if fireable == wfnet.net.transitions else "unsound"


def escape(text: str) -> str:
    """XML character data with ``&``, ``>`` and ``<`` escaped, as
    ``xml.sax.saxutils.escape`` writes it (that module is not imported
    because it pulls in ``urllib.request`` and its network stack)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def quoteattr(text: str) -> str:
    """Quoted XML attribute value, as ``xml.sax.saxutils.quoteattr``
    writes it: newline, carriage return and tab become character
    references, and the value takes double quotes unless it holds a
    double quote and no single one."""
    text = escape(text).replace("\n", "&#10;").replace("\r", "&#13;")
    text = text.replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def export_pnml(wfnet: WorkflowNet) -> bytes:
    """Standard place/transition/arc vocabulary; silent transitions carry
    an invisible toolspecific tag; byte-stable for identical nets."""
    net = wfnet.net
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        "<pnml>",
        '  <net id="net1" type="http://www.pnml.org/version-2009/grammar/ptnet">',
        '    <page id="page1">',
    ]
    initial = wfnet.initial_marking()
    for place in sorted(net.places):
        lines.append(f"      <place id={quoteattr(place)}>")
        lines.append(f"        <name><text>{escape(place)}</text></name>")
        tokens = initial.get(place, 0)
        if tokens:
            lines.append(
                f"        <initialMarking><text>{tokens}</text></initialMarking>"
            )
        lines.append("      </place>")
    for transition in sorted(net.transitions):
        label = net.labels[transition]
        lines.append(f"      <transition id={quoteattr(transition)}>")
        lines.append(
            f"        <name><text>{escape(label) if label is not None else ''}</text></name>"
        )
        if label is None:
            lines.append(
                '        <toolspecific tool="regionminer" version="0.1" invisible="true"/>'
            )
        lines.append("      </transition>")
    for index, (source, target) in enumerate(sorted(net.arcs)):
        lines.append(
            f'      <arc id="arc{index}" source={quoteattr(source)} '
            f"target={quoteattr(target)}/>"
        )
    lines.extend(["    </page>", "  </net>", "</pnml>", ""])
    return "\n".join(lines).encode("utf-8")


def parse_pnml(data: bytes | str) -> WorkflowNet:
    """Rebuild a workflow net from PNML; the unique place without incoming
    arcs becomes the source, the unique place without outgoing arcs the
    sink."""
    try:
        root = ET.fromstring(data if isinstance(data, bytes) else data.encode("utf-8"))
    except (ET.ParseError, LookupError) as exc:  # LookupError: unknown encoding
        raise ParseError(f"malformed PNML document: {exc}") from exc

    def local(tag: str) -> str:
        return tag.rsplit("}", 1)[-1]

    def attribute(element: ET.Element, name: str) -> str:
        value = element.get(name)
        if value is None:
            raise ParseError(f"<{local(element.tag)}> without {name!r} attribute")
        return value

    seen: set[str] = set()

    def node_id(element: ET.Element) -> str:
        value = attribute(element, "id")
        if value in seen:
            raise ParseError(f"duplicate id {value!r}")
        seen.add(value)
        return value

    places: list[str] = []
    transitions: list[str] = []
    labels: dict[str, str | None] = {}
    arcs: list[tuple[str, str]] = []
    for element in root.iter():
        kind = local(element.tag)
        if kind == "place":
            places.append(node_id(element))
        elif kind == "transition":
            tid = node_id(element)
            transitions.append(tid)
            label: str | None = None
            invisible = False
            for child in element:
                if local(child.tag) == "name":
                    for text_el in child:
                        if local(text_el.tag) == "text":
                            label = text_el.text or ""
                elif local(child.tag) == "toolspecific":
                    if child.get("invisible") == "true" or child.get("activity") == "$invisible$":
                        invisible = True
            labels[tid] = None if invisible or not label else label
        elif kind == "arc":
            arcs.append((attribute(element, "source"), attribute(element, "target")))
    net = PetriNet(places, transitions, arcs, labels)
    sources = sorted(p for p in net.places if not net.preset[p])
    sinks = sorted(p for p in net.places if not net.postset[p])
    if len(sources) != 1 or len(sinks) != 1:
        raise ParseError(
            f"not a workflow net: {len(sources)} source place(s), "
            f"{len(sinks)} sink place(s)"
        )
    return WorkflowNet(net=net, source=sources[0], sink=sinks[0])


def export_dot(wfnet: WorkflowNet) -> str:
    """Graphviz rendering: circles for places (token dots on marked ones),
    boxes for transitions, filled black boxes for silent ones."""
    net = wfnet.net
    initial = wfnet.initial_marking()
    lines = ["digraph wfnet {", "  rankdir=LR;"]
    for place in sorted(net.places):
        label = quote("&bull;" * initial.get(place, 0))
        lines.append(f"  {quote(place)} [shape=circle, label={label}, xlabel={quote(place)}];")
    for transition in sorted(net.transitions):
        label = net.labels[transition]
        if label is None:
            lines.append(
                f'  {quote(transition)} [shape=box, label="", style=filled, fillcolor=black];'
            )
        else:
            lines.append(f"  {quote(transition)} [shape=box, label={quote(label)}];")
    for source, target in sorted(net.arcs):
        lines.append(f"  {quote(source)} -> {quote(target)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
