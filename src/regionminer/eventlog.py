"""Event logs: parsing, bag representation, prefix-closures and the
unique-start/end transformation.

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

    @classmethod
    def from_traces(cls, traces: Iterable[Sequence[str]]) -> "EventLog":
        return cls.from_pairs((t, 1) for t in traces)

    @property
    def total_instances(self) -> int:
        """Number of trace instances, multiplicities included."""
        return sum(self.traces.values())

    @property
    def variant_count(self) -> int:
        return len(self.traces)

    def is_empty(self) -> bool:
        return not self.traces


def parse_trace_log(text: str) -> EventLog:
    """Parse the plain-text trace-log format.

    Each non-blank, non-comment line is ``<count>;<act> <act> ...`` or
    ``<act> <act> ...`` (count defaults to 1). ``#`` starts a comment line.
    Duplicate lines are bag-summed.
    """
    bag: dict[Trace, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
        for activity in trace:
            if not is_activity_name(activity):
                raise ParseError(f"invalid activity token {activity!r}", line=lineno)
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
    except ET.ParseError as exc:
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


def is_use_log(log: EventLog, start: str, end: str) -> bool:
    """Check the unique-start/end predicate for the given symbols."""
    if start == end or log.is_empty():
        return False
    for trace in log.traces:
        if len(trace) < 2 or trace[0] != start or trace[-1] != end:
            return False
        body = trace[1:-1]
        if start in body or end in body or start == trace[-1] or end == trace[0]:
            return False
    return True


@dataclass(frozen=True)
class PrefixClosure:
    """Frequency-annotated prefix-closure of an event log.

    ``entries`` maps every prefix of every trace (including the empty
    trace) to its closure frequency: the trace's own multiplicity plus the
    frequencies of all its one-step extensions. ``start``/``end`` carry the
    unique start/end activities when the closed log was a USE log.
    ``encodings`` tables every prefix's constraint row for the
    sequence-encoding graph, the constraint system and ``check_region``.
    """

    entries: Mapping[Trace, int]
    alphabet: frozenset[str]
    start: str | None = None
    end: str | None = None

    def ordered_alphabet(self) -> tuple[str, ...]:
        return ordered_alphabet(self.alphabet, self.start, self.end)

    @property
    def total_instances(self) -> int:
        return self.entries.get((), 0)

    @cached_property
    def encodings(self) -> Mapping[Trace, tuple[int, ...]]:
        """Every prefix's ``regions.sequence_encoding`` over
        ``ordered_alphabet()`` in (length, prefix) order, computed once.
        Each row comes from its parent's: the parent's negated tail is the
        head, and the tail counts the last activity once more."""
        alphabet = self.ordered_alphabet()
        n = len(alphabet)
        column = {a: n + 1 + i for i, a in enumerate(alphabet)}
        table: dict[Trace, tuple[int, ...]] = {(): (1,) + (0,) * (2 * n)}
        for trace in sorted(self.entries, key=lambda t: (len(t), t)):
            if trace:
                tail = table[trace[:-1]][n + 1 :]
                row = [1, *(-c for c in tail), *tail]
                row[column[trace[-1]]] -= 1
                table[trace] = tuple(row)
        return table

    def full_traces(self) -> dict[Trace, int]:
        """The original bag this closure was built from (log multiplicities):
        each prefix's frequency minus those of its one-step extensions."""
        own = dict(self.entries)
        for trace, freq in self.entries.items():
            if trace:
                own[trace[:-1]] -= freq
        return {trace: count for trace, count in own.items() if count > 0}


def prefix_closure(
    log: EventLog, start: str | None = None, end: str | None = None
) -> PrefixClosure:
    """Compute the prefix-closure of a log with closure frequencies.

    The frequency of a prefix equals its own multiplicity in the log plus
    the frequencies of all its one-step extensions present in the closure;
    the empty trace therefore carries the total instance count.
    """
    if log.is_empty():
        raise ValueError("cannot close an empty log")
    entries: dict[Trace, int] = {}
    for trace, count in log.traces.items():
        for cut in range(len(trace) + 1):
            prefix = trace[:cut]
            entries[prefix] = entries.get(prefix, 0) + count
    return PrefixClosure(
        entries=entries, alphabet=frozenset(log.alphabet), start=start, end=end
    )
