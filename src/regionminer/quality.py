"""Scoring discovered nets and injecting controlled noise into logs.

Fitness is token-based replay with missing-token insertion; precision is
an escaping-edges measure. Both come from one pass over the log's sorted
prefix tree that keeps one replay state per prefix, derived from its
parent's by the rule stated in ``petri`` (label check, silent walk, hop
bound). Precision counts the prefixes where nothing was inserted; a full
trace's end step is taken on the same silent walk. Both scores are
multiplicity-weighted, live in [0, 1] and are invariant under scaling all
multiplicities by the same factor.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass

from .eventlog import EventLog, Trace, prefix_closure
from .petri import WorkflowNet, enabled, fire, label_map, silent_walk


@dataclass(frozen=True)
class QualityReport:
    fitness: float
    precision: float
    counts: dict

    def as_text(self) -> str:
        lines = [f"fitness={self.fitness:.6f}", f"precision={self.precision:.6f}"]
        for key in sorted(self.counts):
            lines.append(f"{key}={self.counts[key]}")
        return "\n".join(lines) + "\n"


def _fitness(produced: int, consumed: int, missing: int, remaining: int) -> float:
    fitness = 0.0
    if consumed > 0:
        fitness += 0.5 * max(0.0, 1.0 - missing / consumed)
    if produced > 0:
        fitness += 0.5 * max(0.0, 1.0 - remaining / produced)
    return fitness


def _precision(escaping_mass: int, allowed_mass: int) -> float:
    if allowed_mass == 0:
        return 1.0
    return 1.0 - escaping_mass / allowed_mass


def evaluate(wfnet: WorkflowNet, log: EventLog) -> QualityReport:
    """Fitness, precision and the underlying replay counters, from one
    token-insertion replay of every prefix of the log.

    Each prefix's state (marking, and tokens produced, consumed and
    inserted so far) is its parent's advanced by one event; sorting puts
    every parent before its children. One silent walk from a prefix's
    marking serves all of its children (the first marking that enables
    the event, else the last with its empty input places filled), its
    allowed labels, and, for a full trace, the end step (the first
    marking equal to the final one, else the last)."""
    if log.is_empty():
        raise ValueError("cannot score an empty log")
    net = wfnet.net
    transition_of = label_map(net, log.alphabet)
    final = wfnet.final_marking()
    pc = prefix_closure(log)
    states = {(): (wfnet.initial_marking(), 1, 0, 0)}  # 1: the source token
    totals = [0, 0, 0, 0]  # produced, consumed, missing, remaining
    replayed = blocked = escaping_mass = allowed_mass = 0
    for prefix, weight in sorted(pc.entries.items()):
        marking, produced, consumed, missing = states.pop(prefix)
        walk = list(silent_walk(net, marking))
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
        if not missing:  # precision looks only at prefixes replayed as they are
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
            if counts[2:] == (0, 0):  # no missing and no remaining tokens
                replayed += mult
            else:
                blocked += mult
    return QualityReport(
        fitness=_fitness(*totals),
        precision=_precision(escaping_mass, allowed_mass),
        counts={
            "replayed_traces": replayed,
            "blocked_traces": blocked,
            "escaping_mass": escaping_mass,
            "allowed_mass": allowed_mass,
        },
    )


def token_fitness(wfnet: WorkflowNet, log: EventLog) -> float:
    """Token replay fitness: insert tokens where a firing lacks them, then
    score 1/2 (1 - missing/consumed) + 1/2 (1 - remaining/produced) over
    the multiplicity-weighted totals. Empty denominators contribute zero."""
    return evaluate(wfnet, log).fitness


def escaping_edges_precision(wfnet: WorkflowNet, log: EventLog) -> float:
    """One minus the weighted share of model-enabled continuations the log
    never takes, over every log prefix that replays without inserting a
    token."""
    return evaluate(wfnet, log).precision


_MANIPULATIONS = ("head", "tail", "body", "swap")


def inject_noise(log: EventLog, level: float, seed: int) -> EventLog:
    """Manipulate ceil(level * instances) trace instances, chosen uniformly.

    Each selected instance of length >= 2 suffers one manipulation chosen
    uniformly: head removal, tail removal, removal of a contiguous body
    part, or swapping two events at positions holding different
    activities (constant traces fall back to a tail removal so the
    instance still changes). Removal sizes are uniform in
    [1, max(1, len // 3)]. Deterministic for a fixed seed; instance count
    is preserved and no new activities appear.
    """
    if not 0.0 <= level <= 1.0:
        raise ValueError(f"noise level must be in [0, 1], got {level}")
    traces = sorted(log.traces.items())
    total = sum(mult for _, mult in traces)
    if total > sys.maxsize:
        raise ValueError(
            f"cannot inject noise into more than {sys.maxsize} trace instances"
        )
    rng = random.Random(seed)
    budget = math.ceil(level * total)
    # instance i is the trace whose cumulative count, in sorted-trace
    # order, first exceeds i; the log is rebuilt from runs of unchanged
    # instances between the selected ones, in instance order
    selected = iter(sorted(rng.sample(range(total), budget)))
    index = next(selected, total)
    pairs: list[tuple[Trace, int]] = []
    start = 0
    for trace, mult in traces:
        end = start + mult
        while index < end:
            pairs.append((trace, index - start))
            # too short to manipulate: the instance stays as it is
            pairs.append((_manipulate(rng, trace) if len(trace) >= 2 else trace, 1))
            start, index = index + 1, next(selected, total)
        pairs.append((trace, end - start))
        start = end
    return EventLog.from_pairs(pair for pair in pairs if pair[1])


def _manipulate(rng: random.Random, trace: Trace) -> Trace:
    op = rng.choice(_MANIPULATIONS)
    size_bound = max(1, len(trace) // 3)
    if op == "swap":
        pairs = [
            (i, j)
            for i in range(len(trace))
            for j in range(i + 1, len(trace))
            if trace[i] != trace[j]
        ]
        if pairs:
            i, j = pairs[rng.randrange(len(pairs))]
            swapped = list(trace)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            return tuple(swapped)
        op = "tail"  # constant trace: swapping cannot change it
    size = rng.randint(1, size_bound)
    if op == "head":
        return trace[size:]
    if op == "tail":
        return trace[:-size]
    start = rng.randint(0, len(trace) - size)
    return trace[:start] + trace[start + size :]
