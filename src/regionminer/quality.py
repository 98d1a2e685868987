"""Scoring discovered nets and injecting controlled noise into logs.

Fitness is token-based replay with missing-token insertion; precision is
an escaping-edges measure over the log's prefix states. Both replay by
the rule stated in ``petri`` (label check, silent walk, hop bound). Both
are multiplicity-weighted, live in [0, 1] and are invariant under scaling
all multiplicities by the same factor.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .eventlog import EventLog, Trace, prefix_closure
from .petri import Marking, WorkflowNet, enabled, fire, label_map, silent_walk, walk_until


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


def _replay_with_insertion(
    wfnet: WorkflowNet, transition_of: dict[str, str], trace: Trace
) -> tuple[int, int, int, int]:
    """Produced, consumed, missing and remaining tokens of one trace: each
    event fires, with a token inserted on every empty input place when the
    silent walk cannot enable it; the end consumes a token from the sink."""
    net = wfnet.net
    marking = wfnet.initial_marking()
    fired: list[str] = []
    missing = 0
    for label in trace:
        t = transition_of[label]
        marking, path, ready = walk_until(net, marking, lambda m: enabled(net, m, t))
        fired += path
        if not ready:
            empty = net.preset[t] - marking.keys()
            missing += len(empty)
            marking = {**marking, **dict.fromkeys(empty, 1)}
        marking = fire(net, marking, t)
        fired.append(t)
    final = wfnet.final_marking()
    marking, path, _ = walk_until(net, marking, lambda m: m == final)
    fired += path
    ends = marking.get(wfnet.sink, 0) > 0
    produced = 1 + sum(len(net.postset[t]) for t in fired)  # 1: the source token
    consumed = ends + sum(len(net.preset[t]) for t in fired)
    return produced, consumed, missing + (not ends), sum(marking.values()) - ends


def _replay_log(
    wfnet: WorkflowNet, transition_of: dict[str, str], log: EventLog
) -> tuple[list[int], int, int]:
    """Multiplicity-weighted produced, consumed, missing and remaining
    totals over the log, and the number of trace instances that replay
    without and with token insertion."""
    totals = [0, 0, 0, 0]
    replayed = blocked = 0
    for trace, mult in sorted(log.traces.items()):
        counts = _replay_with_insertion(wfnet, transition_of, trace)
        totals = [total + mult * count for total, count in zip(totals, counts)]
        if counts[2:] == (0, 0):  # no missing and no remaining tokens
            replayed += mult
        else:
            blocked += mult
    return totals, replayed, blocked


def _fitness(produced: int, consumed: int, missing: int, remaining: int) -> float:
    fitness = 0.0
    if consumed > 0:
        fitness += 0.5 * max(0.0, 1.0 - missing / consumed)
    if produced > 0:
        fitness += 0.5 * max(0.0, 1.0 - remaining / produced)
    return fitness


def token_fitness(wfnet: WorkflowNet, log: EventLog) -> float:
    """Token replay fitness: insert tokens where a firing lacks them, then
    score 1/2 (1 - missing/consumed) + 1/2 (1 - remaining/produced) over
    the multiplicity-weighted totals. Empty denominators contribute zero."""
    return _fitness(*_replay_log(wfnet, label_map(wfnet.net, log.alphabet), log)[0])


def _precision_masses(
    wfnet: WorkflowNet, transition_of: dict[str, str], log: EventLog
) -> tuple[int, int]:
    """Escaping and allowed mass over the replayable prefixes. Each
    prefix's state is its parent's advanced by one event; sorting puts
    every parent before its children."""
    net = wfnet.net
    pc = prefix_closure(log)
    states: dict[Trace, Marking] = {(): wfnet.initial_marking()}
    escaping_mass = 0
    allowed_mass = 0
    for prefix, weight in sorted(pc.entries.items()):
        state = states.pop(prefix, None)
        if state is None:
            continue  # the prefix does not replay
        walk = [marking for marking, _ in silent_walk(net, state)]
        allowed = {
            label
            for marking in walk
            for label, t in transition_of.items()
            if enabled(net, marking, t)
        }
        used = {a for a in pc.alphabet if prefix + (a,) in pc.entries}
        escaping_mass += weight * len(allowed - used)
        allowed_mass += weight * len(allowed)
        for a in used:
            t = transition_of[a]
            marking = next((m for m in walk if enabled(net, m, t)), None)
            if marking is not None:
                states[prefix + (a,)] = fire(net, marking, t)
    return escaping_mass, allowed_mass


def _precision(escaping_mass: int, allowed_mass: int) -> float:
    if allowed_mass == 0:
        return 1.0
    return 1.0 - escaping_mass / allowed_mass


def escaping_edges_precision(wfnet: WorkflowNet, log: EventLog) -> float:
    """One minus the weighted share of model-enabled continuations the log
    never takes, over every replayable log prefix."""
    return _precision(*_precision_masses(wfnet, label_map(wfnet.net, log.alphabet), log))


def evaluate(wfnet: WorkflowNet, log: EventLog) -> QualityReport:
    """Fitness, precision and the underlying replay counters."""
    transition_of = label_map(wfnet.net, log.alphabet)
    totals, replayed, blocked = _replay_log(wfnet, transition_of, log)
    escaping_mass, allowed_mass = _precision_masses(wfnet, transition_of, log)
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
    instances: list[Trace] = []
    for trace, mult in sorted(log.traces.items()):
        instances.extend([trace] * mult)
    rng = random.Random(seed)
    budget = math.ceil(level * len(instances))
    selected = sorted(rng.sample(range(len(instances)), budget))
    for index in selected:
        trace = instances[index]
        if len(trace) < 2:
            continue  # too short to manipulate
        instances[index] = _manipulate(rng, trace)
    return EventLog.from_pairs((trace, 1) for trace in instances)


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
