"""Region constraint systems over prefix-closures.

A place candidate is a binary triple: one marking bit plus incoming and
outgoing arc indicators over the ordered alphabet. Every non-empty prefix
of the log contributes one linear inequality stating that replaying the
prefix never drives the candidate place negative; every full trace
contributes one equality stating the place is empty again afterwards.

Variable layout everywhere: index 0 is the marking bit, indices 1..n the
incoming indicators in canonical alphabet order, indices n+1..2n the
outgoing indicators. All constraint coefficients are integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .eventlog import PrefixClosure, Trace, parikh

EncodingVector = tuple[int, ...]


def sequence_encoding(trace: Trace, alphabet: Sequence[str]) -> EncodingVector:
    """Constraint row generated by a prefix: (1, counts of the proper
    prefix, negated counts of the whole sequence)."""
    whole = parikh(trace, alphabet)
    head = list(whole)
    if trace:
        head[alphabet.index(trace[-1])] -= 1
    return (1,) + tuple(head) + tuple(-c for c in whole)


def encoding_shorthand(vector: EncodingVector, alphabet: Sequence[str]) -> str:
    """Compact pair rendering of an encoding: bag of the proper prefix plus
    the appended activity, e.g. ``([a,b^2],c)``; the empty encoding renders
    as ``([],⊥)``."""
    n = len(alphabet)
    head = vector[1 : n + 1]
    whole = tuple(-c for c in vector[n + 1 :])
    parts = []
    for activity, count in zip(alphabet, head):
        if count == 1:
            parts.append(activity)
        elif count > 1:
            parts.append(f"{activity}^{count}")
    last = [a for a, before, after in zip(alphabet, head, whole) if after - before == 1]
    tail = last[0] if last else "⊥"
    return f"([{','.join(parts)}],{tail})"


def encoding_length(vector: EncodingVector, alphabet: Sequence[str]) -> int:
    """Length of the sequences represented by this encoding."""
    n = len(alphabet)
    return -sum(vector[n + 1 :])


@dataclass(frozen=True)
class RegionCandidate:
    """Binary place candidate: marking bit plus arc indicator vectors."""

    marked: int
    incoming: tuple[int, ...]
    outgoing: tuple[int, ...]

    def vector(self) -> tuple[int, ...]:
        return (self.marked,) + self.incoming + self.outgoing

    @classmethod
    def from_vector(cls, vector: Sequence[int]) -> "RegionCandidate":
        n = (len(vector) - 1) // 2
        return cls(
            marked=vector[0],
            incoming=tuple(vector[1 : n + 1]),
            outgoing=tuple(vector[n + 1 :]),
        )


@dataclass(frozen=True)
class Row:
    """One constraint row: coefficient vector, the closure node of its
    representative source sequence (``PrefixClosure.render`` gives the
    prefix) and the merged closure frequency of all sequences that share
    the vector."""

    vector: tuple[int, ...]
    node: int
    weight: int


@dataclass(frozen=True)
class ConstraintSystem:
    """Immutable constraint body shared by all per-pair problem instances.

    Inequality rows require ``vector . (m, x, y) >= 0``; equality rows
    require ``vector . (m, x, y) == 0``; the minimum-arc row requires at
    least one arc indicator set; all variables are binary.
    """

    alphabet: tuple[str, ...]
    inequality_rows: tuple[Row, ...]
    equality_rows: tuple[Row, ...]
    objective: tuple[int, ...]

    @property
    def n_activities(self) -> int:
        return len(self.alphabet)

    @property
    def n_vars(self) -> int:
        return 2 * len(self.alphabet) + 1

    def x_index(self, activity: str) -> int:
        return 1 + self.alphabet.index(activity)

    def y_index(self, activity: str) -> int:
        return 1 + self.n_activities + self.alphabet.index(activity)

    def min_arc_row(self) -> tuple[int, ...]:
        return (0,) + (1,) * (2 * self.n_activities)

    @cached_property
    def solver_state(self) -> dict:
        """What the solver (``ilp``) compiles from this system, under keys
        the solver chooses; empty until the first solve, then shared by
        every pair solved on this system object."""
        return {}

    def variable_names(self) -> tuple[str, ...]:
        return (
            ("m",)
            + tuple(f"x({a})" for a in self.alphabet)
            + tuple(f"y({a})" for a in self.alphabet)
        )


@dataclass(frozen=True)
class ILPInstance:
    """A constraint system plus variable fixings (index -> binary value)
    and, for a causal instance, the pair it was built for, which names the
    pair in solver errors."""

    system: ConstraintSystem
    fixings: Mapping[int, int]
    pair: tuple[str, str] | None = None


def build_constraint_system(
    pc: PrefixClosure, retained: Iterable[int] | None = None
) -> ConstraintSystem:
    """Assemble the constraint system for a USE prefix-closure.

    Rows are the closure's distinct encodings (``PrefixClosure.numbering``
    builds each once; order abstraction: different interleavings share a
    row), one per non-root vertex id with the vertex's summed frequency
    and its first node, in vertex id order. A full trace (a node with a
    multiplicity) has an equality row mirroring its tail, grouped by Parikh
    id, whose node is the group's first full trace. No prefix is built, so
    the system is linear in the closure. When ``retained`` is given, it
    holds the non-root vertex ids that survived the filter (as
    ``filtering.sef_bfs`` returns them): only their inequality rows are
    emitted, and a trace's emptiness equality is kept only when its whole
    path survived.
    """
    alphabet = pc.ordered_alphabet()
    n = len(alphabet)
    numbering = pc.numbering
    vertices, vertex_ids = numbering.vertices, numbering.vertex_ids
    flags = [True] * len(vertices)  # flags[v]: vertex v survived the filter
    kept = [True] * len(vertex_ids)  # kept[i]: node i's whole path survived
    if retained is not None:
        flags = [False] * len(vertices)
        for vertex in retained:
            if not 0 < vertex < len(vertices):
                raise ValueError(
                    f"retained id {vertex} is not a non-root vertex id of the closure"
                )
            flags[vertex] = True
        for index, parent in enumerate(pc.parents[1:], 1):
            kept[index] = kept[parent] and flags[vertex_ids[index]]
    groups: dict[int, list] = {}  # Parikh id -> [first node, summed weight]
    for index, (pid, mult) in enumerate(zip(numbering.parikh_ids, pc.multiplicities)):
        if mult and kept[index]:
            if pid in groups:
                groups[pid][1] += mult
            else:
                groups[pid] = [index, mult]
    inequality_rows = tuple(
        Row(vertices[v], first, numbering.weights[v])
        for v, first in enumerate(numbering.first_nodes)
        if v and flags[v]
    )
    equality_rows = []
    for index, weight in groups.values():
        tail = vertices[vertex_ids[index]][n + 1 :]
        vector = (1,) + tuple(-c for c in tail) + tail
        equality_rows.append(Row(vector, index, weight))

    return ConstraintSystem(
        alphabet=alphabet,
        inequality_rows=inequality_rows,
        equality_rows=tuple(equality_rows),
        objective=_objective_from_rows(inequality_rows, n),
    )


def _residency_from_rows(rows: Sequence[Row], n: int) -> tuple[int, ...]:
    """Frequency-weighted token-residency profile: the marking bit costs
    one plus the total mass of the rows, each incoming arc costs the mass
    of the prefixes it feeds, each outgoing arc credits the mass it
    drains."""
    coeffs = [0] * (2 * n + 1)
    coeffs[0] = 1
    for row in rows:
        coeffs[0] += row.weight
        for i in range(1, 2 * n + 1):
            if row.vector[i]:
                coeffs[i] += row.weight * row.vector[i]
    return tuple(coeffs)


def _objective_from_rows(rows: Sequence[Row], n: int) -> tuple[int, ...]:
    # Primary term: arc count plus marking. Regions expressible as sums of
    # smaller regions carry strictly more arcs, so minimising arcs keeps
    # places minimal; a pure residency objective instead prefers large
    # always-empty self-loop places, which wrecks the discovered nets.
    # Secondary term: frequency-weighted token residency, dominated by one
    # primary unit, breaks ties towards places whose tokens leave quickly.
    residency = _residency_from_rows(rows, n)
    # one primary unit strictly dominates any achievable residency value
    unit = 2 + sum(
        row.weight * (1 + sum(row.vector[1 : n + 1])) for row in rows
    )
    return tuple(unit + r for r in residency)


def instantiate_causal_ilp(cs: ConstraintSystem, a: str, b: str) -> ILPInstance:
    """Problem instance for the causal pair (a, b): unmarked place with an
    arc from a and an arc to b."""
    start = cs.alphabet[0]
    end = cs.alphabet[-1]
    if a == end or b == start:
        raise ValueError(f"pair ({a}, {b}) may not leave the end or enter the start")
    fixings = {0: 0, cs.x_index(a): 1, cs.y_index(b): 1}
    return ILPInstance(system=cs, fixings=fixings, pair=(a, b))


def check_region(
    candidate: RegionCandidate, pc: PrefixClosure
) -> tuple[bool, Trace | None]:
    """Evaluate every prefix inequality on the candidate; returns the first
    violated source sequence (rows ordered by length, then sequence).

    Each distinct row is evaluated once, in vertex id order. Vertex ids
    follow first occurrence in node order, so the first violated vertex's
    first node is the first violated prefix."""
    vec = candidate.vector()
    if len(vec) != 2 * len(pc.ordered_alphabet()) + 1:
        raise ValueError("candidate dimensions do not match the closure alphabet")
    numbering = pc.numbering
    for row, first in zip(numbering.vertices[1:], numbering.first_nodes[1:]):
        if sum(r * v for r, v in zip(row, vec)) < 0:
            return False, pc.render([first])[first]
    return True, None


def lp_text(inst: ILPInstance, closure: PrefixClosure) -> str:
    """Plain-text dump of an instance in an LP-like format; each row is
    annotated with its source prefix, rendered from ``closure``, the
    closure the system was built from."""
    cs = inst.system
    names = cs.variable_names()
    sources = closure.render([row.node for row in cs.inequality_rows + cs.equality_rows])

    def term(coef: int, name: str) -> str:
        sign = "+" if coef >= 0 else "-"
        return f"{sign} {abs(coef)} {name}"

    def render(vector: Sequence[int]) -> str:
        parts = [term(c, names[i]) for i, c in enumerate(vector) if c]
        return " ".join(parts) if parts else "0"

    lines = ["minimize", f"  {render(cs.objective)}", "subject to"]
    for row in cs.inequality_rows:
        lines.append(f"  {render(row.vector)} >= 0  ; <{','.join(sources[row.node])}>")
    for row in cs.equality_rows:
        lines.append(f"  {render(row.vector)} = 0  ; <{','.join(sources[row.node])}>")
    lines.append(f"  {render(cs.min_arc_row())} >= 1")
    for index in sorted(inst.fixings):
        lines.append(f"  {names[index]} = {inst.fixings[index]}")
    lines.append("binary")
    lines.append("  " + " ".join(names))
    return "\n".join(lines) + "\n"
