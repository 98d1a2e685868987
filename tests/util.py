"""Shared helpers for randomized suites."""

import random
import string
from dataclasses import dataclass
from fractions import Fraction

from regionminer import ilp
from regionminer.causal import dependency
from regionminer.errors import GraphRepairError
from regionminer.eventlog import EventLog, prefix_closure, use_transform
from regionminer.filtering import build_graph, make_kappa_max, sef_bfs
from regionminer.petri import enabled, fire, label_map
from regionminer.quality import QualityReport
from regionminer.regions import build_constraint_system, instantiate_causal_ilp


def from_traces(traces) -> EventLog:
    """A log of one instance per trace, duplicate traces summed."""
    return EventLog.from_pairs((trace, 1) for trace in traces)


def visible_labels(net) -> set[str]:
    """The labels of a net's visible (non-silent) transitions."""
    return {label for label in net.labels.values() if label is not None}


def random_log(
    rng: random.Random,
    max_alphabet: int = 6,
    max_variants: int = 8,
    max_length: int = 6,
    max_multiplicity: int = 20,
) -> EventLog:
    size = rng.randint(2, max_alphabet)
    letters = list(string.ascii_lowercase[:size])
    variants = rng.randint(1, max_variants)
    pairs = []
    for _ in range(variants):
        length = rng.randint(1, max_length)
        trace = tuple(rng.choice(letters) for _ in range(length))
        pairs.append((trace, rng.randint(1, max_multiplicity)))
    return EventLog.from_pairs(pairs)


def random_use_system(rng: random.Random, alpha: float | None = None, **kwargs):
    """Random USE log, its closure and constraint system (optionally filtered)."""
    log = random_log(rng, **kwargs)
    use, start, end = use_transform(log)
    pc = prefix_closure(use, start, end)
    if alpha is None:
        return pc, build_constraint_system(pc)
    graph = build_graph(pc)
    retained = sef_bfs(graph, make_kappa_max(graph, alpha))
    return pc, build_constraint_system(pc, retained)


def admissible_pairs(pc):
    """Every pair allowed to seed a place: anything but leaving the end
    activity or entering the start activity."""
    alphabet = pc.ordered_alphabet()
    start, end = alphabet[0], alphabet[-1]
    return [(a, b) for a in alphabet if a != end for b in alphabet if b != start]


def random_instance(rng: random.Random):
    """Region-form instance: random system, random admissible pair, and
    sometimes a filtered system, whose fewer rows move the optimum. It is
    always feasible: the wrapper solution satisfies every row, filtered or
    not (criterion 6)."""
    alpha = rng.choice([None, None, None, 0.9, 0.5, 0.1])
    pc, cs = random_use_system(
        rng,
        alpha=alpha,
        max_alphabet=4,
        max_variants=5,
        max_length=5,
        max_multiplicity=9,
    )
    a, b = rng.choice(admissible_pairs(pc))
    return instantiate_causal_ilp(cs, a, b)


def solve_lp(rows, costs, upper, fixings=None, start=()):
    """Exact minimum of ``costs . v`` over the rows ``coefs . v >= rhs``
    with ``0 <= v <= upper`` and the fixings, on the solver's own simplex:
    the start rows are equalities in the first tableau, and every row
    joins by row generation. Returns the status and the point as
    Fractions (empty when infeasible)."""
    simplex = ilp._Simplex(list(start), costs, upper)
    for index, value in (fixings or {}).items():
        simplex.fix(index, value)
    status, point = ilp._Pending(rows, len(costs)).optimum(simplex)
    num, den = point or ([], 1)
    return status, [Fraction(v, den) for v in num]


@dataclass(frozen=True)
class LPRelaxation:
    status: str  # "optimal" | "infeasible"
    value: Fraction | None
    point: tuple[Fraction, ...] | None


def lp_relax(inst) -> LPRelaxation:
    """Continuous relaxation of an instance: variables in [0, 1], the
    fixings as bounds, the plain objective as costs, on the rows
    ``ilp.solve`` uses (the deduplicated equalities as start rows, the
    body by row generation). Its value is an exact lower bound on the
    binary optimum."""
    compiled = ilp._prepare(inst)
    costs = inst.system.objective
    start = compiled.equalities.rows
    status, point = solve_lp(
        compiled.body.rows, costs, [1] * len(costs), inst.fixings, start
    )
    if status != "optimal":
        return LPRelaxation(status="infeasible", value=None, point=None)
    value = sum(c * p for c, p in zip(costs, point))
    return LPRelaxation(status="optimal", value=Fraction(value), point=tuple(point))


def _oracle_reachable(vertices, arcs, source, forward=True):
    adjacency: dict[str, list[str]] = {v: [] for v in vertices}
    for a, b in arcs:
        if forward:
            adjacency[a].append(b)
        else:
            adjacency[b].append(a)
    seen = {source}
    stack = [source]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def oracle_repair(graph):
    """Reference repair: ``causal.repair_for_path_property`` written as
    two directions of growth, each with its own anchor, forbidden partner,
    score and arc orientation, and weights stored as arcs are added.
    Returns the repaired arcs and their weights."""
    arcs = set(graph.arcs)

    def grow(forward: bool):
        while True:
            anchor = graph.start if forward else graph.end
            connected = _oracle_reachable(graph.vertices, arcs, anchor, forward=forward)
            missing = sorted(graph.vertices - connected)
            if not missing:
                return
            progress = False
            for v in missing:
                candidates = []
                for u in sorted(connected):
                    if forward and (u == graph.end or v == graph.start):
                        continue
                    if not forward and (u == graph.start or v == graph.end):
                        continue
                    if not (graph.df.get((u, v), 0) > 0 or graph.df.get((v, u), 0) > 0):
                        continue
                    score = (
                        dependency(u, v, graph.df)
                        if forward
                        else dependency(v, u, graph.df)
                    )
                    candidates.append((score, u))
                if not candidates:
                    continue
                best_score = max(score for score, _ in candidates)
                partner = min(u for score, u in candidates if score == best_score)
                arcs.add((partner, v) if forward else (v, partner))
                progress = True
                break
            if not progress:
                raise GraphRepairError(
                    f"cannot connect vertex {missing[0]!r}: no directly-follows "
                    "contact with the connected part"
                )

    grow(forward=True)
    grow(forward=False)

    weights = {(a, b): dependency(a, b, graph.df) for a, b in graph.arcs}
    for arc in arcs - graph.arcs:
        weights[arc] = dependency(arc[0], arc[1], graph.df)
    return frozenset(arcs), weights


def _oracle_silent_walk(net, marking):
    """The replay rule's silent walk on dict markings: ``marking``, then
    each marking reached by firing the unique enabled silent transition,
    each with the silents fired so far; at most |T| + 1 firings."""
    silents = sorted(t for t in net.transitions if net.labels[t] is None)
    path = ()
    yield marking, path
    for _ in range(len(net.transitions) + 1):
        ready = [t for t in silents if enabled(net, marking, t)]
        if len(ready) != 1:
            return
        marking = fire(net, marking, ready[0])
        path += (ready[0],)
        yield marking, path


def oracle_evaluate(wfnet, log) -> QualityReport:
    """Reference scorer: ``quality.evaluate`` without the compiled net or
    the per-marking memo. Every prefix's state is derived from its
    parent's on dict markings, and every walk, allowed-label set and
    enabling test is computed afresh."""
    net = wfnet.net
    transition_of = label_map(net, log.alphabet)
    final = wfnet.final_marking()
    pc = prefix_closure(log)
    states = {(): (wfnet.initial_marking(), 1, 0, 0)}  # 1: the source token
    totals = [0, 0, 0, 0]  # produced, consumed, missing, remaining
    replayed = blocked = escaping_mass = allowed_mass = 0
    for prefix, weight in sorted(pc.entries.items()):
        marking, produced, consumed, missing = states.pop(prefix)
        walk = list(_oracle_silent_walk(net, marking))
        used = {a for a in pc.alphabet if prefix + (a,) in pc.entries}
        for a in used:
            t = transition_of[a]
            marking, path = next(((m, p) for m, p in walk if enabled(net, m, t)), walk[-1])
            empty = net.preset[t] - marking.keys()
            fired = path + (t,)
            states[prefix + (a,)] = (
                fire(net, {**marking, **dict.fromkeys(empty, 1)}, t),
                produced + sum(len(net.postset[u]) for u in fired),
                consumed + sum(len(net.preset[u]) for u in fired),
                missing + len(empty),
            )
        if not missing:
            allowed = {
                label
                for m, _ in walk
                for label, t in transition_of.items()
                if enabled(net, m, t)
            }
            escaping_mass += weight * len(allowed - used)
            allowed_mass += weight * len(allowed)
        mult = log.traces.get(prefix)
        if mult:
            marking, path = next(((m, p) for m, p in walk if m == final), walk[-1])
            ends = marking.get(wfnet.sink, 0) > 0
            counts = (
                produced + sum(len(net.postset[u]) for u in path),
                consumed + sum(len(net.preset[u]) for u in path) + ends,
                missing + (not ends),
                sum(marking.values()) - ends,
            )
            totals = [total + mult * count for total, count in zip(totals, counts)]
            if counts[2:] == (0, 0):
                replayed += mult
            else:
                blocked += mult
    produced, consumed, missing, remaining = totals
    fitness = 0.0
    if consumed > 0:
        fitness += 0.5 * max(0.0, 1.0 - missing / consumed)
    if produced > 0:
        fitness += 0.5 * max(0.0, 1.0 - remaining / produced)
    precision = 1.0 if allowed_mass == 0 else 1.0 - escaping_mass / allowed_mass
    return QualityReport(
        fitness=fitness,
        precision=precision,
        counts={
            "replayed_traces": replayed,
            "blocked_traces": blocked,
            "escaping_mass": escaping_mass,
            "allowed_mass": allowed_mass,
        },
    )
