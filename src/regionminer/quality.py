"""Scoring discovered nets and injecting controlled noise into logs.

Fitness is token-based replay with missing-token insertion; precision is
an escaping-edges measure over the log's prefix states. Both are
multiplicity-weighted, live in [0, 1] and are invariant under scaling all
multiplicities by the same factor.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import ReplayError
from .eventlog import EventLog, Trace, prefix_closure
from .petri import Marking, WorkflowNet, enabled, fire


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


def _check_labels(wfnet: WorkflowNet, log: EventLog) -> dict[str, str]:
    labels: dict[str, list[str]] = {}
    for t in wfnet.net.transitions:
        label = wfnet.net.labels[t]
        if label is not None:
            labels.setdefault(label, []).append(t)
    missing = sorted(a for a in log.alphabet if a not in labels)
    if missing:
        raise ReplayError(f"labels missing from the net: {', '.join(missing)}")
    ambiguous = sorted(label for label, ts in labels.items() if len(ts) > 1)
    if ambiguous:
        raise ReplayError(f"ambiguous labels in the net: {', '.join(ambiguous)}")
    return {label: ts[0] for label, ts in labels.items()}


def _silent_step(wfnet: WorkflowNet, marking: Marking) -> tuple[Marking, str] | None:
    """Fire the unique enabled silent transition, if there is exactly one."""
    silents = [
        t for t in wfnet.net.silent_transitions() if enabled(wfnet.net, marking, t)
    ]
    if len(silents) != 1:
        return None
    return fire(wfnet.net, marking, silents[0]), silents[0]


@dataclass
class _TokenCounts:
    produced: int = 0
    consumed: int = 0
    missing: int = 0
    remaining: int = 0


def _replay_with_insertion(
    wfnet: WorkflowNet, transition_of: dict[str, str], trace: Trace
) -> _TokenCounts:
    net = wfnet.net
    counts = _TokenCounts(produced=1)  # the initial token on the source
    marking = dict(wfnet.initial_marking())
    cap = len(net.transitions) + 1

    def fire_counted(t: str, state: Marking) -> Marking:
        counts.consumed += len(net.preset[t])
        counts.produced += len(net.postset[t])
        return fire(net, state, t)

    for label in trace:
        t = transition_of[label]
        hops = 0
        while not enabled(net, marking, t) and hops <= cap:
            step = _silent_step(wfnet, marking)
            if step is None:
                break
            marking = fire_counted(step[1], marking)
            hops += 1
        if not enabled(net, marking, t):
            for p in net.preset[t]:
                if marking.get(p, 0) < 1:
                    counts.missing += 1
                    marking[p] = marking.get(p, 0) + 1
        marking = fire_counted(t, marking)
    hops = 0
    while marking != wfnet.final_marking() and hops <= cap:
        step = _silent_step(wfnet, marking)
        if step is None:
            break
        marking = fire_counted(step[1], marking)
        hops += 1
    if marking.get(wfnet.sink, 0) > 0:
        counts.consumed += 1
        marking[wfnet.sink] -= 1
        if marking[wfnet.sink] == 0:
            del marking[wfnet.sink]
    else:
        counts.missing += 1
    counts.remaining = sum(marking.values())
    return counts


def _replay_log(wfnet: WorkflowNet, log: EventLog) -> tuple[_TokenCounts, int, int]:
    """Multiplicity-weighted token totals over the log, and the number of
    trace instances that replay without and with token insertion."""
    transition_of = _check_labels(wfnet, log)
    totals = _TokenCounts()
    replayed = blocked = 0
    for trace, mult in sorted(log.traces.items()):
        counts = _replay_with_insertion(wfnet, transition_of, trace)
        totals.produced += mult * counts.produced
        totals.consumed += mult * counts.consumed
        totals.missing += mult * counts.missing
        totals.remaining += mult * counts.remaining
        if counts.missing == 0 and counts.remaining == 0:
            replayed += mult
        else:
            blocked += mult
    return totals, replayed, blocked


def _fitness(totals: _TokenCounts) -> float:
    fitness = 0.0
    if totals.consumed > 0:
        fitness += 0.5 * max(0.0, 1.0 - totals.missing / totals.consumed)
    if totals.produced > 0:
        fitness += 0.5 * max(0.0, 1.0 - totals.remaining / totals.produced)
    return fitness


def token_fitness(wfnet: WorkflowNet, log: EventLog) -> float:
    """Token replay fitness: insert tokens where a firing lacks them, then
    score 1/2 (1 - missing/consumed) + 1/2 (1 - remaining/produced) over
    the multiplicity-weighted totals. Empty denominators contribute zero."""
    return _fitness(_replay_log(wfnet, log)[0])


def _state_after(
    wfnet: WorkflowNet, transition_of: dict[str, str], trace: Trace
) -> Marking | None:
    """Marking reached by replaying a prefix, silents fired on demand; None
    when the prefix does not replay."""
    net = wfnet.net
    marking = wfnet.initial_marking()
    cap = len(net.transitions) + 1
    for label in trace:
        t = transition_of[label]
        hops = 0
        while not enabled(net, marking, t):
            step = _silent_step(wfnet, marking)
            hops += 1
            if step is None or hops > cap:
                return None
            marking = step[0]
        marking = fire(net, marking, t)
    return marking


def _allowed_labels(wfnet: WorkflowNet, marking: Marking) -> set[str]:
    """Visible labels fireable from the marking, walking greedily through
    unique enabled silent transitions."""
    net = wfnet.net
    allowed = set()
    cap = len(net.transitions) + 1
    current = marking
    for _ in range(cap):
        for t in net.transitions:
            label = net.labels[t]
            if label is not None and enabled(net, current, t):
                allowed.add(label)
        step = _silent_step(wfnet, current)
        if step is None:
            break
        current = step[0]
    return allowed


def _precision_masses(wfnet: WorkflowNet, log: EventLog) -> tuple[int, int]:
    transition_of = _check_labels(wfnet, log)
    pc = prefix_closure(log)
    escaping_mass = 0
    allowed_mass = 0
    for prefix, weight in sorted(pc.entries.items()):
        state = _state_after(wfnet, transition_of, prefix)
        if state is None:
            continue
        allowed = _allowed_labels(wfnet, state)
        used = {a for a in pc.alphabet if prefix + (a,) in pc.entries}
        escaping_mass += weight * len(allowed - used)
        allowed_mass += weight * len(allowed)
    return escaping_mass, allowed_mass


def _precision(escaping_mass: int, allowed_mass: int) -> float:
    if allowed_mass == 0:
        return 1.0
    return 1.0 - escaping_mass / allowed_mass


def escaping_edges_precision(wfnet: WorkflowNet, log: EventLog) -> float:
    """One minus the weighted share of model-enabled continuations the log
    never takes, over every replayable log prefix."""
    return _precision(*_precision_masses(wfnet, log))


def evaluate(wfnet: WorkflowNet, log: EventLog) -> QualityReport:
    """Fitness, precision and the underlying replay counters."""
    totals, replayed, blocked = _replay_log(wfnet, log)
    escaping_mass, allowed_mass = _precision_masses(wfnet, log)
    return QualityReport(
        fitness=_fitness(totals),
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
