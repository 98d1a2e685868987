"""Event logs: parsing, bags, the prefix tree of a log's prefix-closure
(parent and last activity per node) and the unique-start/end transformation.

An event log is a bag (multiset) of traces; a trace is an ordered sequence
of activity names. Activity names are non-empty tokens without whitespace
or ``;`` so they survive the plain-text round trip, and without the code
points XML 1.0 cannot carry (below U+0020, surrogates, U+FFFE, U+FFFF) so
they survive PNML export. All types in this module are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Iterable, Mapping, Sequence

from .errors import ParseError

Trace = tuple[str, ...]

START_TOKEN = "__start__"
END_TOKEN = "__end__"


_FORBIDDEN = re.compile(r"[\s;\x00-\x1f\ud800-\udfff\ufffe\uffff]")


def is_activity_name(name: str) -> bool:
    """The activity-name rule: non-empty, and no whitespace, ``;`` or
    code point XML 1.0 cannot carry."""
    return bool(name) and _FORBIDDEN.search(name) is None


@dataclass(frozen=True)
class EventLog:
    """A bag of traces with multiplicities plus the occurring alphabet.

    ``traces`` maps each distinct trace to a multiplicity >= 1. The mapping
    is owned by the instance and must not be mutated.
    """

    traces: Mapping[Trace, int]
    alphabet: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        occurring = set()
        for trace, count in self.traces.items():
            if count < 1:
                raise ValueError(f"multiplicity of {trace!r} must be >= 1, got {count}")
            occurring.update(trace)
        for activity in sorted(occurring | self.alphabet):
            if not is_activity_name(activity):
                raise ValueError(f"invalid activity name {activity!r}")
        if not occurring <= self.alphabet:
            object.__setattr__(self, "alphabet", self.alphabet | frozenset(occurring))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Sequence[str], int]]) -> "EventLog":
        """Build a log from (trace, count) pairs, summing duplicate traces."""
        bag: dict[Trace, int] = {}
        for trace, count in pairs:
            key = tuple(trace)
            bag[key] = bag.get(key, 0) + count
        return cls(traces=bag)

    @property
    def total_instances(self) -> int:
        """Number of trace instances, multiplicities included."""
        return sum(self.traces.values())

    def is_empty(self) -> bool:
        return not self.traces


def parse_trace_log(text: str) -> EventLog:
    """Parse the plain-text trace-log format.

    Lines end at LF; a CR before it is stripped with the other surrounding
    whitespace, so CRLF text parses like its LF twin. Each non-blank,
    non-comment line is ``<count>;<act> <act> ...`` or ``<act> <act> ...``
    (count defaults to 1), and any whitespace separates activities. ``#``
    starts a comment line. Duplicate lines are bag-summed. A leading
    byte-order mark is ignored. Each distinct activity name is checked
    once, on its first occurrence.
    """
    bag: dict[Trace, int] = {}
    accepted: set[str] = set()  # the names that passed is_activity_name
    text = text.removeprefix("\ufeff")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ";" in line:
            count_text, _, rest = line.partition(";")
            count_text = count_text.strip()
            # int() would also take "1_0", "+2" and non-ASCII digits
            if not (count_text.isascii() and count_text.isdigit()):
                raise ParseError(f"malformed count {count_text!r}", line=lineno)
            count = int(count_text)
            if count <= 0:
                raise ParseError(f"count must be positive, got {count}", line=lineno)
        else:
            count, rest = 1, line
        trace = tuple(rest.split())
        if not accepted.issuperset(trace):
            for activity in trace:
                if activity not in accepted:
                    if not is_activity_name(activity):
                        raise ParseError(f"invalid activity token {activity!r}", line=lineno)
                    accepted.add(activity)
        bag[trace] = bag.get(trace, 0) + count
    return EventLog(traces=bag)


def serialize_trace_log(log: EventLog) -> str:
    """Render a log in the trace-log text format (UTF-8, LF, sorted traces)."""
    lines = [f"{count};{' '.join(trace)}" for trace, count in sorted(log.traces.items())]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_xes(source: bytes | str | IO[bytes]) -> EventLog:
    """Read an XES document, keeping only the ``concept:name`` of each event.

    Traces are ordered by document order; timestamps and every other
    attribute are ignored. Identical traces merge into multiplicities.
    """
    try:
        if isinstance(source, bytes):
            root = ET.fromstring(source)
        elif isinstance(source, str):
            root = ET.fromstring(source.encode("utf-8"))
        else:
            root = ET.parse(source).getroot()
    except (ET.ParseError, LookupError) as exc:  # LookupError: unknown encoding
        raise ParseError(f"malformed XES document: {exc}") from exc

    def local(tag: str) -> str:
        return tag.rsplit("}", 1)[-1]

    bag: dict[Trace, int] = {}
    trace_index = 0
    for trace_el in root.iter():
        if local(trace_el.tag) != "trace":
            continue
        trace_index += 1
        events: list[str] = []
        for event_el in trace_el:
            if local(event_el.tag) != "event":
                continue
            name = None
            for attr in event_el:
                if attr.get("key") == "concept:name":
                    name = attr.get("value")
                    break
            if name is None:
                raise ParseError(f"event without concept:name in trace {trace_index}")
            events.append(name)
        trace = tuple(events)
        bag[trace] = bag.get(trace, 0) + 1
    return EventLog(traces=bag)


def parikh(trace: Sequence[str], alphabet: Sequence[str]) -> tuple[int, ...]:
    """Occurrence counts of ``trace`` over an ordered alphabet."""
    index = {a: i for i, a in enumerate(alphabet)}
    counts = [0] * len(alphabet)
    for activity in trace:
        try:
            counts[index[activity]] += 1
        except KeyError:
            raise ValueError(f"activity {activity!r} not in alphabet") from None
    return tuple(counts)


def ordered_alphabet(
    alphabet: Iterable[str], start: str | None = None, end: str | None = None
) -> tuple[str, ...]:
    """Canonical alphabet order: start first, end last, rest lexicographic.

    This fixes the vector index layout used by every downstream module.
    """
    middle = sorted(a for a in alphabet if a != start and a != end)
    prefix = [start] if start is not None else []
    suffix = [end] if end is not None else []
    return tuple(prefix + middle + suffix)


def _fresh(base: str, taken: frozenset[str]) -> str:
    name = base
    while name in taken:
        name += "'"
    return name


def use_transform(log: EventLog) -> tuple[EventLog, str, str]:
    """Wrap every trace in fresh start/end activities.

    Returns the transformed log together with the fresh start and end
    activity names. The result has a unique start activity occurring
    exactly once at position one of every trace, and symmetrically a
    unique end activity.
    """
    if log.is_empty():
        raise ValueError("cannot transform an empty log")
    start = _fresh(START_TOKEN, log.alphabet)
    end = _fresh(END_TOKEN, log.alphabet | {start})
    bag = {(start,) + trace + (end,): count for trace, count in log.traces.items()}
    return EventLog(traces=bag), start, end


@dataclass(frozen=True)
class PrefixClosure:
    """Frequency-annotated prefix-closure of an event log, as a prefix tree.

    Node i is the i-th prefix in (length, prefix) order, so node 0 is the
    empty trace and parents come before their children. One tuple each
    holds every node's parent index (-1 for node 0), last activity (``""``
    for node 0), closure frequency (own multiplicity plus the children's
    frequencies) and own multiplicity in the log; ``render`` builds
    prefixes where they are shown. ``start``/``end`` carry the unique
    start/end activities when the closed log was a USE log.

    ``numbering`` gives every node a vertex id (its distinct encoding row)
    and a Parikh id (its distinct Parikh vector), building each row once;
    the filter and the constraint body group nodes by these ids.
    """

    parents: tuple[int, ...]
    lasts: tuple[str, ...]
    frequencies: tuple[int, ...]
    multiplicities: tuple[int, ...]
    alphabet: frozenset[str]
    start: str | None = None
    end: str | None = None

    def ordered_alphabet(self) -> tuple[str, ...]:
        return ordered_alphabet(self.alphabet, self.start, self.end)

    @property
    def total_instances(self) -> int:
        return self.frequencies[0]

    def render(self, nodes: Iterable[int]) -> dict[int, Trace]:
        """The prefixes of ``nodes`` and the root, keyed by node; each
        extends its nearest rendered ancestor's, so a path is walked once."""
        parents, lasts = self.parents, self.lasts
        rendered: dict[int, Trace] = {0: ()}
        for node in nodes:
            at, path = node, []
            while at not in rendered:
                path.append(lasts[at])
                at = parents[at]
            rendered[node] = rendered[at] + tuple(path[::-1])
        return rendered

    @cached_property
    def entries(self) -> Mapping[Trace, int]:
        """Every prefix mapped to its closure frequency, in node order."""
        return dict(zip(self.render(range(len(self.parents))).values(), self.frequencies))

    @cached_property
    def numbering(self) -> EncodingNumbering:
        """The distinct ``regions.sequence_encoding`` rows over
        ``ordered_alphabet()``, each built and numbered once.

        A node's row ``(1, parikh(parent), -parikh(prefix))`` depends only
        on its parent's Parikh vector and its last activity, so one pass in
        node order keys the rows by that pair and builds a row only when
        its key is new, and sums each vertex's closure frequency. Computed
        on first use only: scoring never needs it.
        """
        alphabet = self.ordered_alphabet()
        n = len(alphabet)
        column = {a: n + 1 + i for i, a in enumerate(alphabet)}
        root = (1,) + (0,) * (2 * n)
        vertices, first_nodes = [root], [0]
        tails = {root[n + 1 :]: 0}  # negated Parikh vector -> Parikh id
        tail_of = [root[n + 1 :]]  # by Parikh id
        # by the parent's Parikh id: last activity -> (vertex id, Parikh id)
        keyed: list[dict[str, tuple[int, int]]] = [{}]
        vertex_ids, parikh_ids = [0], [0]
        parents, lasts, frequencies = self.parents, self.lasts, self.frequencies
        weights = [frequencies[0]]
        for index, last in enumerate(lasts[1:], 1):
            parent = parikh_ids[parents[index]]
            ids = keyed[parent].get(last)
            if ids is None:
                tail = tail_of[parent]
                row = [1, *(-c for c in tail), *tail]
                row[column[last]] -= 1
                row = tuple(row)
                tail = row[n + 1 :]
                pid = tails.setdefault(tail, len(tails))
                if pid == len(tail_of):
                    tail_of.append(tail)
                    keyed.append({})
                ids = keyed[parent][last] = (len(vertices), pid)
                vertices.append(row)
                first_nodes.append(index)
                weights.append(0)
            vertex_ids.append(ids[0])
            parikh_ids.append(ids[1])
            weights[ids[0]] += frequencies[index]
        columns = (vertex_ids, parikh_ids, vertices, first_nodes, weights)
        return EncodingNumbering(*map(tuple, columns))


@dataclass(frozen=True)
class EncodingNumbering:
    """Vertex and Parikh ids of a prefix tree's nodes.

    Two nodes share a vertex id exactly when their encoding rows are
    equal, and a Parikh id exactly when their prefixes have equal Parikh
    vectors. Ids are numbered in order of first occurrence in node order,
    so vertex 0 is the empty sequence's row and ``first_nodes[v]`` grows
    with ``v``.
    """

    vertex_ids: tuple[int, ...]  # by node index
    parikh_ids: tuple[int, ...]  # by node index
    vertices: tuple[tuple[int, ...], ...]  # the encoding row, by vertex id
    first_nodes: tuple[int, ...]  # the first node with the row, by vertex id
    weights: tuple[int, ...]  # summed closure frequency of its nodes, by vertex id


def prefix_closure(
    log: EventLog, start: str | None = None, end: str | None = None
) -> PrefixClosure:
    """The prefix tree of a log's prefix-closure: one pass over the variants
    in sorted order builds a trie whose children arrive in ascending
    activity order, so a breadth-first walk numbers its nodes in
    (length, prefix) order."""
    if log.is_empty():
        raise ValueError("cannot close an empty log")
    children: list[dict[str, int]] = [{}]  # per trie node: children by activity
    own: dict[int, int] = {}  # per trie node a variant ends at: its multiplicity
    for trace in sorted(log.traces):
        node = 0
        for activity in trace:
            if activity not in children[node]:
                children[node][activity] = len(children)
                children.append({})
            node = children[node][activity]
        own[node] = log.traces[trace]
    parents, lasts, trie = [-1], [""], [0]  # trie: the trie node behind each node
    for index, at in enumerate(trie):  # trie grows while it is walked
        for activity, child in children[at].items():
            parents.append(index)
            lasts.append(activity)
            trie.append(child)
    multiplicities = [own.get(at, 0) for at in trie]
    frequencies = multiplicities.copy()
    for index in range(len(trie) - 1, 0, -1):  # children come after their parent
        frequencies[parents[index]] += frequencies[index]
    columns = (parents, lasts, frequencies, multiplicities)
    return PrefixClosure(*map(tuple, columns), frozenset(log.alphabet), start, end)
