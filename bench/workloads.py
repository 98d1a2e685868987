"""Seeded inputs for the benchmark workloads.

Every log is produced here from the workload seed and handed to the
program as trace-log text, so the program never sees the seed. Noise is
injected by this module's own generator (the paper's head, tail, body and
swap manipulations), not by ``regionminer.quality.inject_noise``, so a
change to the library cannot change the inputs.

Model logs draw every choice from an exact-share pool (each branch, each
interleaving and each loop count occurs a fixed number of times, in a
seeded order), and the noise applies each manipulation to the same number
of instances. That keeps the size of the constraint systems, and with it
the solver's work, close between seeds.
"""

from __future__ import annotations

import itertools
import math
import random
import string
from dataclasses import dataclass
from pathlib import Path

Trace = tuple[str, ...]

MANIPULATIONS = ("head", "tail", "body", "swap")
LOOP_SHARES = ((0, 49), (1, 21), (2, 15), (3, 9), (4, 6))
FILTER_ALPHA = 0.75
NOISE_LEVEL = 0.1


@dataclass(frozen=True)
class Job:
    """One input the program mines and then scores: a log as trace-log
    text and the filter strength (None switches the filter off)."""

    name: str
    text: str
    alpha: float | None


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # string seeds hash through SHA-512, so streams are stable across runs
    return random.Random(f"{workload}:{seed}:{index}")


def _pool(rng: random.Random, size: int, shares) -> list:
    """``size`` values in proportion to their integer shares, shuffled;
    the largest remainders take the leftover slots."""
    total = sum(share for _, share in shares)
    counts = [size * share // total for _, share in shares]
    order = sorted(
        range(len(shares)), key=lambda i: (-(size * shares[i][1] % total), i)
    )
    for i in order[: size - sum(counts)]:
        counts[i] += 1
    values = [value for (value, _), count in zip(shares, counts) for _ in range(count)]
    rng.shuffle(values)
    return values


def simulate(rng: random.Random, width: int, cases: int) -> list[Trace]:
    """Cases of the model ``a; (b|c); (d1 || ... || dk); e; (f e)*; (g|h)``."""
    block = tuple(f"d{i}" for i in range(1, width + 1))
    choice = _pool(rng, cases, (("b", 1), ("c", 1)))
    interleaving = _pool(rng, cases, [(p, 1) for p in itertools.permutations(block)])
    loops = _pool(rng, cases, LOOP_SHARES)
    ending = _pool(rng, cases, (("g", 1), ("h", 1)))
    return [
        ("a", choice[i], *interleaving[i], "e", *("f", "e") * loops[i], ending[i])
        for i in range(cases)
    ]


def manipulate(rng: random.Random, trace: Trace, op: str) -> Trace:
    """Apply one manipulation to a trace of length >= 2. Removals take a
    uniform size in [1, max(1, len // 3)]; a swap exchanges two positions
    holding different activities (a constant trace loses its tail)."""
    if op == "swap":
        positions = [
            (i, j)
            for i in range(len(trace))
            for j in range(i + 1, len(trace))
            if trace[i] != trace[j]
        ]
        if positions:
            i, j = positions[rng.randrange(len(positions))]
            swapped = list(trace)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            return tuple(swapped)
        op = "tail"
    size = rng.randint(1, max(1, len(trace) // 3))
    if op == "head":
        return trace[size:]
    if op == "tail":
        return trace[:-size]
    start = rng.randint(0, len(trace) - size)
    return trace[:start] + trace[start + size :]


def add_noise(rng: random.Random, traces: list[Trace], level: float) -> list[Trace]:
    """Manipulate ceil(level * cases) instances chosen uniformly, cycling
    through the four manipulations so each is used equally often."""
    noisy = list(traces)
    chosen = rng.sample(range(len(noisy)), math.ceil(level * len(noisy)))
    for turn, index in enumerate(chosen):
        if len(noisy[index]) >= 2:
            noisy[index] = manipulate(rng, noisy[index], MANIPULATIONS[turn % 4])
    return noisy


def to_text(traces) -> str:
    """Trace-log text: one ``count;activities`` line per distinct trace."""
    bag: dict[Trace, int] = {}
    for trace in traces:
        bag[trace] = bag.get(trace, 0) + 1
    return "".join(f"{count};{' '.join(t)}\n" for t, count in sorted(bag.items()))


def random_small_text(rng: random.Random, activities: int, variants: int) -> str:
    """A log of ``variants`` random traces of length 1..6 over the first
    ``activities`` letters, with multiplicities 1..20."""
    letters = string.ascii_lowercase[:activities]
    lines = []
    for _ in range(variants):
        trace = " ".join(rng.choice(letters) for _ in range(rng.randint(1, 6)))
        lines.append(f"{rng.randint(1, 20)};{trace}\n")
    return "".join(lines)


def noisy_nofilter(seed: int, data_dir: Path) -> list[Job]:
    jobs = []
    for index in range(10):
        rng = _rng("noisy-nofilter", seed, index)
        traces = add_noise(rng, simulate(rng, 3, 60), NOISE_LEVEL)
        jobs.append(Job(f"model{index}", to_text(traces), None))
    return jobs


def busy_filtered(seed: int, data_dir: Path) -> list[Job]:
    rng = _rng("busy-filtered", seed, 0)
    traces = add_noise(rng, simulate(rng, 5, 10000), NOISE_LEVEL)
    return [Job("model", to_text(traces), FILTER_ALPHA)]


def many_small(seed: int, data_dir: Path) -> list[Job]:
    # every pairing of 2..6 activities with 2..5 variants on five logs,
    # so the share of large systems does not depend on the seed
    sizes = _pool(
        _rng("many-small", seed, -1),
        100,
        [(size, 1) for size in itertools.product(range(2, 7), range(2, 6))],
    )
    texts = [
        (
            f"random{index:03d}",
            random_small_text(_rng("many-small", seed, index), *sizes[index]),
        )
        for index in range(100)
    ]
    for name in ("l1", "l1_prime"):
        texts.append((name, (data_dir / f"{name}.log").read_text(encoding="utf-8")))
    return [
        Job(f"{name}/{'off' if alpha is None else alpha}", text, alpha)
        for name, text in texts
        for alpha in (None, FILTER_ALPHA)
    ]


WORKLOADS = {
    "noisy-nofilter": noisy_nofilter,
    "busy-filtered": busy_filtered,
    "many-small": many_small,
}
