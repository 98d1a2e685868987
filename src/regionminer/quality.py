"""Scoring discovered nets and injecting controlled noise into logs.

Fitness is token-based replay with missing-token insertion; precision is
an escaping-edges measure. Both come from one pass over the nodes of
``eventlog.prefix_closure``, each replayed from the state at its parent's
index by the rule stated in ``petri`` (label check, silent walk, hop bound).
Precision counts the prefixes where nothing was inserted; a full trace's
end step is taken on the same silent walk. Both scores are
multiplicity-weighted, live in [0, 1] and are invariant under scaling all
multiplicities by the same factor.

Many prefixes reach the same marking, so ``evaluate`` compiles the net
once and keeps a memo for the length of one call: per distinct marking
its silent walk, its allowed labels, its step for each label that follows
it in the log, and its end step. A prefix whose marking was seen before
costs dict lookups.
"""

from __future__ import annotations

import math
import random
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import islice

from .eventlog import EventLog, Trace, prefix_closure
from .petri import CompiledNet, WorkflowNet, first_step, label_map


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


class _Memo(dict):
    """A dict that computes a missing value from its key, once."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


def _marking_memos(wfnet: WorkflowNet, transition_of: dict[str, str]):
    """The initial marking of ``wfnet`` compiled, and three memos over
    compiled markings for one ``evaluate`` call: the step of each label
    from each marking, each marking's allowed labels and its end step.
    They share one memo of silent walks, and nothing refers back to them,
    so they are freed when the call returns."""
    net = CompiledNet(wfnet.net)
    transitions = {a: net.transitions[t] for a, t in transition_of.items()}
    final = net.encode(wfnet.final_marking())
    sink = net.index[wfnet.sink]
    walks = _Memo(net.walk)
    interned: dict[frozenset[str], frozenset[str]] = {}

    def step(key: tuple[tuple, str]) -> tuple[tuple, int, int, int]:
        """Fire a label from the first walk marking that enables it, else
        from the last with its empty input places filled: the next marking
        and the tokens produced, consumed and inserted on the way."""
        marking, label = key
        t = transitions[label]
        start, path = first_step(walks[marking], t.enabled)
        inserted = tuple(t.preset.difference(start))
        fired = path + (t,)
        return (
            t.fire(start, inserted),
            sum(u.outputs for u in fired),
            sum(u.inputs for u in fired),
            len(inserted),
        )

    def allowed(marking: tuple) -> frozenset[str]:
        """The visible labels enabled anywhere on the walk; equal sets are
        stored once."""
        walk = walks[marking]
        labels = frozenset(
            a for a, t in transitions.items() if any(t.enabled(m) for m, _ in walk)
        )
        return interned.setdefault(labels, labels)

    def end(marking: tuple) -> tuple[int, int, int, int]:
        """Walk to the first marking equal to the final one, else the
        last: the tokens produced, consumed (with the sink token when
        there is one) and missing (one when there is none) on the way,
        and those left over."""
        last, path = first_step(walks[marking], final.__eq__)
        ends = sink in last
        return (
            sum(u.outputs for u in path),
            sum(u.inputs for u in path) + ends,
            int(not ends),
            len(last) - ends,
        )

    initial = net.encode(wfnet.initial_marking())
    return initial, _Memo(step), _Memo(allowed), _Memo(end)


def evaluate(wfnet: WorkflowNet, log: EventLog) -> QualityReport:
    """Fitness, precision and the underlying replay counters, from one
    token-insertion replay of every prefix of the log.

    Each prefix's state (marking, and tokens produced, consumed and
    inserted so far) is its parent's advanced by one event's memoised
    step. Precision weighs each prefix replayed without insertion by the
    labels allowed on its walk that no child takes; each full trace adds
    its end step to the fitness totals."""
    if log.is_empty():
        raise ValueError("cannot score an empty log")
    initial, steps, allowed_labels, ends = _marking_memos(
        wfnet, label_map(wfnet.net, log.alphabet)
    )
    totals = [0, 0, 0, 0]  # produced, consumed, missing, remaining
    replayed = blocked = escaping_mass = allowed_mass = 0
    pc = prefix_closure(log)
    nodes = zip(pc.parents, pc.lasts, pc.frequencies, pc.multiplicities)
    states: list[tuple] = []  # each node's replay state, by node index
    for parent, last, weight, mult in nodes:
        if parent >= 0:
            marking, produced, consumed, missing = states[parent]
            if not missing and last in allowed_labels[marking]:  # no escape
                escaping_mass -= pc.frequencies[parent]
            marking, more_produced, more_consumed, inserted = steps[marking, last]
            produced += more_produced
            consumed += more_consumed
            missing += inserted
        else:
            marking, produced, consumed, missing = initial, 1, 0, 0  # the source token
        # precision looks only at prefixes replayed as they are
        allowed = allowed_labels[marking] if not missing else frozenset()
        escaping_mass += weight * len(allowed)
        allowed_mass += weight * len(allowed)
        states.append((marking, produced, consumed, missing))
        if mult:
            more_produced, more_consumed, more_missing, remaining = ends[marking]
            counts = (
                produced + more_produced,
                consumed + more_consumed,
                missing + more_missing,
                remaining,
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

    The selection holds ceil(level * instances) indices in memory: a huge
    count total raises ``MemoryError``, reported by the CLI as one
    ``error: out of memory`` line.
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
        # draw the k-th of the pairs i < j with trace[i] != trace[j], in
        # (i, j) order, without listing them: count them, then walk to it
        later = Counter(trace)
        count = math.comb(len(trace), 2) - sum(math.comb(c, 2) for c in later.values())
        if count:
            k = rng.randrange(count)
            for i, a in enumerate(trace):
                later[a] -= 1  # occurrences of a after position i
                partners = len(trace) - 1 - i - later[a]
                if k < partners:
                    break
                k -= partners
            others = (j for j in range(i + 1, len(trace)) if trace[j] != a)
            j = next(islice(others, k, None))
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
