"""Digests of what the program makes from every benchmark input.

For each input of each workload in ``bench/workloads.py`` at the pinned
seeds, one line holds the seed, the input's name and four digests: the
PNML bytes, the constraint system (alphabet, every row's vector, rendered
source prefix and weight, and the objective), every causal pair's
``Solution`` (status, assignment, objective; the ``nodes`` and ``pivots``
work counters are left out) and the ``QualityReport`` of the parsed net
on the log. ``tests/test_bench_digests.py`` compares them with the
committed file.

Rewrite the file from the root of a source checkout with
``PYTHONPATH=src python -m tests.bench_digests``, and say why it changed.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

from regionminer import (
    DiscoveryOptions,
    evaluate,
    export_pnml,
    parse_pnml,
    parse_trace_log,
    run_discovery,
    solve,
)

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
DIGESTS = DATA / "bench_digests.txt"
SEEDS = (7, 31)


def load_workloads():
    """``bench/workloads.py``, imported by path; the module is only read."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


def input_digests(text: str, alpha: float | None) -> dict[str, str]:
    """The four digests of one input, mined and scored as the benchmark
    does: library defaults with the input's filter strength."""
    solutions = []

    def solver(inst):
        solution = solve(inst)
        solutions.append(
            (inst.pair, solution.status, solution.assignment, solution.objective)
        )
        return solution

    log = parse_trace_log(text)
    result = run_discovery(log, DiscoveryOptions(alpha=alpha, solver=solver))
    pnml = export_pnml(result.net)
    report = evaluate(parse_pnml(pnml), log)
    cs = result.system
    rows = cs.inequality_rows + cs.equality_rows
    sources = result.closure.render([row.node for row in rows])
    system = (
        cs.alphabet,
        [(row.vector, sources[row.node], row.weight) for row in cs.inequality_rows],
        [(row.vector, sources[row.node], row.weight) for row in cs.equality_rows],
        cs.objective,
    )
    quality = (report.fitness, report.precision, sorted(report.counts.items()))
    return {
        "pnml": hashlib.sha256(pnml).hexdigest()[:16],
        "system": _digest(system),
        "solutions": _digest(solutions),
        "quality": _digest(quality),
    }


def digest_lines(seed: int) -> list[str]:
    """One line per input of every workload at ``seed``."""
    workloads = load_workloads()
    lines = []
    for workload, generate in workloads.WORKLOADS.items():
        for job in generate(seed, DATA):
            digests = input_digests(job.text, job.alpha)
            fields = " ".join(f"{key}={value}" for key, value in digests.items())
            lines.append(f"{seed} {workload}/{job.name} {fields}")
    return lines


def main() -> None:
    lines = [line for seed in SEEDS for line in digest_lines(seed)]
    DIGESTS.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} lines to {DIGESTS}")


if __name__ == "__main__":
    main()
