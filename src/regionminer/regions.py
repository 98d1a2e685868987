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

import math
from dataclasses import dataclass, field
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
    """One constraint row: coefficient vector, representative source
    sequence and the merged closure frequency of all sequences that share
    the vector."""

    vector: tuple[int, ...]
    source: Trace
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
    def independent_equality_rows(self) -> tuple[Row, ...]:
        """The first linearly independent equality rows, in row order.

        They span the same row space as all equality rows, so they cut out
        the same affine set. Every trace equality reads
        ``m + sum_a c_a (x_a - y_a) = 0``, so at most |A|+1 rows survive.
        Computed once per system on first use.
        """
        return tuple(
            self.equality_rows[i]
            for i in _independent_rows([row.vector for row in self.equality_rows])
        )

    def variable_names(self) -> tuple[str, ...]:
        return (
            ("m",)
            + tuple(f"x({a})" for a in self.alphabet)
            + tuple(f"y({a})" for a in self.alphabet)
        )


@dataclass(frozen=True)
class ILPInstance:
    """A constraint system plus variable fixings (index -> binary value).

    ``seeds`` are optional integer assignments worth trying as initial
    incumbents; they are verified before use.
    """

    system: ConstraintSystem
    fixings: Mapping[int, int]
    pair: tuple[str, str] | None = None
    seeds: tuple[tuple[int, ...], ...] = field(default=())


def _independent_rows(vectors: Sequence[Sequence[int]]) -> list[int]:
    """Indices of the first linearly independent vectors, in order.

    Exact integer elimination: each kept vector is reduced against the
    earlier reduced ones (each with its own pivot column, zero in every
    earlier pivot column) and divided by the gcd of its entries, so no
    fraction and no tolerance enters. A vector that reduces to zero is an
    exact rational combination of the kept ones.
    """
    echelon: list[tuple[int, list[int]]] = []
    kept: list[int] = []
    for index, vector in enumerate(vectors):
        residual = list(vector)
        for pivot, row in echelon:
            factor = residual[pivot]
            if factor:
                lead = row[pivot]
                residual = [lead * r - factor * b for r, b in zip(residual, row)]
        pivot = next((j for j, r in enumerate(residual) if r), None)
        if pivot is None:
            continue
        divisor = math.gcd(*residual)
        echelon.append((pivot, [r // divisor for r in residual]))
        kept.append(index)
    return kept


def _grouped(rows: Iterable[tuple[EncodingVector, Trace, int]]) -> tuple[Row, ...]:
    """Merge rows with equal vectors: first source, summed weights, in
    order of first occurrence."""
    groups: dict[EncodingVector, list] = {}
    for vec, source, weight in rows:
        if vec in groups:
            groups[vec][1] += weight
        else:
            groups[vec] = [source, weight]
    return tuple(Row(vec, source, weight) for vec, (source, weight) in groups.items())


def build_constraint_system(
    pc: PrefixClosure, retained: Iterable[EncodingVector] | None = None
) -> ConstraintSystem:
    """Assemble the constraint system for a USE prefix-closure.

    Rows are the closure's encodings, deduplicated by exact vector
    equality (order abstraction: different interleavings share a row) with
    frequencies summed; a full trace's equality row mirrors its tail. When
    ``retained`` is given, only inequality rows whose vector survived the
    filter are emitted, and a trace's emptiness equality is kept only when
    the trace's entire prefix path survived.
    """
    alphabet = pc.ordered_alphabet()
    n = len(alphabet)
    table = pc.encodings
    inequality_rows = _grouped(
        (vec, trace, pc.entries[trace]) for trace, vec in table.items() if trace
    )
    full = pc.full_traces()
    if retained is not None:
        retained = frozenset(retained)
        unknown = retained - {row.vector for row in inequality_rows}
        if unknown:
            raise ValueError(
                f"{len(unknown)} retained vector(s) do not occur in the closure"
            )
        inequality_rows = tuple(r for r in inequality_rows if r.vector in retained)
        full = {
            trace: mult
            for trace, mult in full.items()
            if all(table[trace[:cut]] in retained for cut in range(1, len(trace) + 1))
        }
    equality_rows = _grouped(
        ((1,) + tuple(-c for c in vec[n + 1 :]) + vec[n + 1 :], trace, full[trace])
        for trace, vec in table.items()
        if trace in full
    )

    return ConstraintSystem(
        alphabet=alphabet,
        inequality_rows=inequality_rows,
        equality_rows=equality_rows,
        objective=_objective_from_rows(inequality_rows, n),
    )


def _residency_from_rows(rows: Sequence[Row], n: int) -> tuple[int, ...]:
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


def residency_vector(pc: PrefixClosure) -> tuple[int, ...]:
    """Frequency-weighted token-residency profile: the marking bit costs
    one plus the total closure mass, each incoming arc costs the mass of
    the prefixes it feeds, each outgoing arc credits the mass it drains."""
    cs = build_constraint_system(pc)
    return _residency_from_rows(cs.inequality_rows, cs.n_activities)


def objective_vector(pc: PrefixClosure) -> tuple[int, ...]:
    """Objective coefficients for the unfiltered closure: arc-minimal
    primary with residency tie-break."""
    return build_constraint_system(pc).objective


def instantiate_causal_ilp(cs: ConstraintSystem, a: str, b: str) -> ILPInstance:
    """Problem instance for the causal pair (a, b): unmarked place with an
    arc from a and an arc to b."""
    start = cs.alphabet[0]
    end = cs.alphabet[-1]
    if a == end or b == start:
        raise ValueError(f"pair ({a}, {b}) may not leave the end or enter the start")
    fixings = {0: 0, cs.x_index(a): 1, cs.y_index(b): 1}
    return ILPInstance(
        system=cs, fixings=fixings, pair=(a, b), seeds=(_wrap_seed(cs, a, b),)
    )


def _wrap_seed(cs: ConstraintSystem, a: str, b: str) -> tuple[int, ...]:
    # Always-feasible assignment on unfiltered USE systems: route the pair
    # through the start/end wrappers, self-looping a and b in between.
    start, end = cs.alphabet[0], cs.alphabet[-1]
    seed = [0] * cs.n_vars
    seed[cs.x_index(start)] = 1
    seed[cs.y_index(end)] = 1
    for activity in (a, b):
        if activity not in (start, end):
            seed[cs.x_index(activity)] = 1
            seed[cs.y_index(activity)] = 1
    seed[cs.x_index(a)] = 1
    seed[cs.y_index(b)] = 1
    return tuple(seed)


def check_region(
    candidate: RegionCandidate, pc: PrefixClosure
) -> tuple[bool, Trace | None]:
    """Evaluate every prefix inequality on the candidate; returns the first
    violated source sequence (rows ordered by length, then sequence)."""
    vec = candidate.vector()
    if len(vec) != 2 * len(pc.ordered_alphabet()) + 1:
        raise ValueError("candidate dimensions do not match the closure alphabet")
    for trace, row in pc.encodings.items():
        if trace and sum(r * v for r, v in zip(row, vec)) < 0:
            return False, trace
    return True, None


def lp_text(inst: ILPInstance) -> str:
    """Plain-text dump of an instance in an LP-like format."""
    cs = inst.system
    names = cs.variable_names()

    def term(coef: int, name: str) -> str:
        sign = "+" if coef >= 0 else "-"
        return f"{sign} {abs(coef)} {name}"

    def render(vector: Sequence[int]) -> str:
        parts = [term(c, names[i]) for i, c in enumerate(vector) if c]
        return " ".join(parts) if parts else "0"

    lines = ["minimize", f"  {render(cs.objective)}", "subject to"]
    for row in cs.inequality_rows:
        lines.append(f"  {render(row.vector)} >= 0  ; <{','.join(row.source)}>")
    for row in cs.equality_rows:
        lines.append(f"  {render(row.vector)} = 0  ; <{','.join(row.source)}>")
    lines.append(f"  {render(cs.min_arc_row())} >= 1")
    for index in sorted(inst.fixings):
        lines.append(f"  {names[index]} = {inst.fixings[index]}")
    lines.append("binary")
    lines.append("  " + " ".join(names))
    return "\n".join(lines) + "\n"
