#!/usr/bin/env python3
"""Benchmark: mine and score seeded logs with regionminer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from
``src/``. One round mines every input of the workload (parse the trace-log
text, ``run_discovery``, ``export_pnml``: what ``regionminer discover``
does) and scores every mined net against the log it came from
(``parse_pnml`` + ``evaluate``: what ``regionminer evaluate`` does), with
the library defaults. Rounds repeat while another one fits into
``--seconds``, so every run attempts whole rounds of the same operations.

The first job is mined and scored once, untimed, before the rounds start.
``--trace 0`` reports the end-to-end metrics: ``mine_s`` and ``score_s``
are the sum over jobs of each job's median time over rounds.
``--trace 1`` runs each round once plain and once with spans around every
layer call, and reports the per-layer metrics plus the tracing overhead.
Outputs are checked after the timed rounds (see checker.py), and the
first input is mined once more to compare the PNML bytes; the last line
of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checker
import spans
from workloads import WORKLOADS, Job

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = ROOT / "tests" / "data"
SETUP_REPEATS = 7

END_TO_END = {"mine_s": "s", "score_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only import the program and generate the inputs, print the seconds taken",
    )
    return parser.parse_args(argv)


def import_program():
    """Import regionminer from this checkout's sources; returns the
    modules the benchmark drives."""
    if not (SRC / "regionminer" / "__init__.py").is_file():
        raise SystemExit(f"error: no regionminer sources under {SRC}")
    for name in ("l1.log", "l1_prime.log"):
        if not (DATA / name).is_file():
            raise SystemExit(f"error: missing fixture {DATA / name}")
    sys.path.insert(0, str(SRC))
    import regionminer
    from regionminer import discovery, ilp, quality

    if Path(regionminer.__file__).resolve().parent != SRC / "regionminer":
        raise SystemExit(f"error: imported regionminer from {regionminer.__file__}")
    modules = {
        "regionminer": regionminer,
        "discovery": discovery,
        "ilp": ilp,
        "quality": quality,
    }
    return modules


class Calls:
    """The program entry points one round uses, plain or traced."""

    def __init__(self, modules: dict, tracer: spans.Tracer | None = None):
        rm = modules["regionminer"]
        self.modules = modules
        self.options = rm.DiscoveryOptions
        self.parse_log = rm.parse_trace_log
        self.discover = rm.run_discovery
        self.export = rm.export_pnml
        self.parse_net = rm.parse_pnml
        self.evaluate = rm.evaluate
        self.solver = None
        if tracer is not None:
            wrap = tracer.wrap
            self.parse_log = wrap("eventlog.parse_trace_log", self.parse_log)
            self.discover = wrap(
                "discovery.run_discovery",
                self.discover,
                lambda result: {"places": len(result.regions)},
            )
            self.export = wrap("petri.export_pnml", self.export, lambda b: {"bytes": len(b)})
            self.parse_net = wrap("petri.parse_pnml", self.parse_net)
            self.evaluate = wrap("quality.evaluate", self.evaluate)
            self.solver = wrap(
                "ilp.solve", modules["ilp"].solve, lambda sol: {"status": sol.status}
            )

    def mine(self, job: Job):
        log = self.parse_log(job.text)
        result = self.discover(log, self.options(alpha=job.alpha, solver=self.solver))
        return log, result, self.export(result.net)

    def score(self, pnml: bytes, log):
        return self.evaluate(self.parse_net(pnml), log)


class Outcome:
    """Operation counts, first-round outputs kept for checking, and the
    problems found so far."""

    def __init__(self, jobs: list[Job]):
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, tuple] = {}
        self.problems: list[str] = []
        self.jobs = jobs

    def fail(self, job: Job, stage: str, failed: int) -> None:
        """A job whose mining (two failed operations: its scoring cannot
        run either) or scoring (one) raised."""
        self.attempted += 2
        self.failed += failed
        print(f"{job.name}: {stage} raised", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)

    def keep(self, job: Job, log, result, pnml: bytes, report) -> None:
        seen = self.first.setdefault(job.name, (log, result, pnml, report))
        if seen[2] != pnml:
            self.problems.append(f"{job.name}: PNML differs between two mines")
        if (seen[3].fitness, seen[3].precision, seen[3].counts) != (
            report.fitness,
            report.precision,
            report.counts,
        ):
            self.problems.append(f"{job.name}: scores differ between two rounds")


def cpu_seconds() -> float:
    """CPU time of this process (every thread) plus that of its children
    that have ended. Unlike wall time it leaves out the time the host
    takes the virtual CPUs away, which on a shared host changes by tens
    of percent within minutes."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_round(calls: Calls, outcome: Outcome) -> dict[str, tuple[float, ...]]:
    """Mine and score every job once; returns each job's (mine, score)
    CPU seconds followed by its (mine, score) wall seconds. A job that
    raised is left out (it is counted failed)."""
    gc.collect()
    times = {}
    for job in outcome.jobs:
        started_wall, started = time.perf_counter(), cpu_seconds()
        try:
            log, result, pnml = calls.mine(job)
        except Exception:  # a failed operation is counted, the run goes on
            outcome.fail(job, "mining", failed=2)
            continue
        mined_wall, mined = time.perf_counter(), cpu_seconds()
        try:
            report = calls.score(pnml, log)
        except Exception:
            outcome.fail(job, "scoring", failed=1)
            continue
        scored_wall, scored = time.perf_counter(), cpu_seconds()
        outcome.attempted += 2
        times[job.name] = (
            mined - started,
            scored - mined,
            mined_wall - started_wall,
            scored_wall - mined_wall,
        )
        outcome.keep(job, log, result, pnml, report)
    return times


def typical_round(rounds: list[dict], stage: int) -> float:
    """A round's time assembled from per-job medians: the sum over jobs of
    the median over rounds of the job's mine (stage 0) or score (stage 1)
    CPU time, or its mine (2) or score (3) wall time. A slow spell during
    one job of one round then moves the figure only as far as a median
    over rounds lets it."""
    names = {name for round_ in rounds for name in round_}
    return sum(
        statistics.median(round_[name][stage] for round_ in rounds if name in round_)
        for name in names
    )


def generate(workload: str, seed: int) -> list[Job]:
    return WORKLOADS[workload](seed, DATA)


def setup_seconds(args) -> float:
    """Median import-plus-generation CPU time over SETUP_REPEATS fresh
    interpreters, each timed from inside (interpreter start excluded)."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", "0",
        "--setup-probe",
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(command, capture_output=True, text=True, timeout=120)
        if probe.returncode != 0:
            sys.stderr.write(probe.stderr)
            raise SystemExit("error: set-up probe failed")
        times.append(float(probe.stdout.split()[-1]))
    return statistics.median(times)


def check_outputs(workload: str, outcome: Outcome, calls: Calls) -> None:
    """Correctness checks on the first-round outputs of every job."""
    problems = outcome.problems
    first = outcome.jobs[0]
    if first.name in outcome.first and calls.mine(first)[2] != outcome.first[first.name][2]:
        problems.append(f"{first.name}: PNML differs between two mines")
    for job in outcome.jobs:
        if job.name not in outcome.first:
            continue
        log, result, pnml, report = outcome.first[job.name]
        traces = dict(log.traces)
        for problem in checker.check_net(pnml, traces, job.alpha):
            problems.append(f"{job.name}: {problem}")
        counts = report.counts
        instances = sum(traces.values())
        if counts["replayed_traces"] + counts["blocked_traces"] != instances:
            problems.append(f"{job.name}: replayed + blocked != {instances} instances")
        if not 0 <= counts["escaping_mass"] <= counts["allowed_mass"]:
            problems.append(f"{job.name}: escaping mass exceeds allowed mass")
        if not (0.0 <= report.fitness <= 1.0 and 0.0 <= report.precision <= 1.0):
            problems.append(f"{job.name}: score outside [0, 1]")
        if job.alpha is None and (report.fitness != 1.0 or counts["blocked_traces"]):
            problems.append(
                f"{job.name}: fitness {report.fitness} and {counts['blocked_traces']} "
                "blocked traces without the filter"
            )
    if workload == "many-small":
        problems.extend(_oracle_problems(outcome, calls.modules))
        for name in ("l1/off", "l1/0.75"):
            if name not in outcome.first:
                continue
            pnml = outcome.first[name][2]
            if (frozenset({"a", "f"}), frozenset({"d"})) not in checker.place_arcs(pnml):
                problems.append(f"{name}: no place with inputs {{a, f}} and output {{d}}")


def _oracle_problems(outcome: Outcome, modules: dict) -> list[str]:
    """Every pair's objective must equal the brute-force oracle's.
    Identical instances (same rows and fixings) are solved once."""
    rm = modules["regionminer"]
    problems = []
    answers: dict = {}
    for job in outcome.jobs:
        if job.name not in outcome.first:
            continue
        result = outcome.first[job.name][1]
        system = result.system
        body = (
            system.alphabet,
            tuple(row.vector for row in system.inequality_rows),
            tuple(row.vector for row in system.equality_rows),
            system.objective,
        )
        for pair, candidate in sorted(result.pair_regions.items()):
            key = (body, pair)
            if key not in answers:
                oracle = rm.brute_force(rm.instantiate_causal_ilp(system, *pair))
                answers[key] = oracle.objective
            mined = None
            if candidate is not None:
                mined = sum(c * v for c, v in zip(system.objective, candidate.vector()))
            if mined != answers[key]:
                problems.append(
                    f"{job.name}: pair {pair} objective {mined}, oracle {answers[key]}"
                )
    return problems


def measure(args, calls: Calls, outcome: Outcome, tracer, traced_calls):
    """Timed rounds: another round starts only while the previous one's
    duration still fits into the run length, and the first always runs.
    Returns the per-job times of the plain rounds and of the traced
    rounds, and the per-round layer metrics."""
    plain, traced, layers = [], [], []
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        plain.append(run_round(calls, outcome))
        if tracer is not None:
            with spans.instrumented(tracer, calls.modules):
                traced.append(run_round(traced_calls, outcome))
            layers.append(spans.layer_metrics(tracer.take()))
        now = time.perf_counter()
        if now - started + (now - round_started) > args.seconds:
            return plain, traced, layers


def warm_up(calls: Calls, jobs: list[Job]) -> None:
    """Mine and score the first job once untimed, so lazy imports and
    first-call set-up inside the program are not charged to a round."""
    log, _, pnml = calls.mine(jobs[0])
    calls.score(pnml, log)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = cpu_seconds()
    modules = import_program()
    jobs = generate(args.workload, args.seed)
    if args.setup_probe:
        print(cpu_seconds() - started)
        return 0
    if generate(args.workload, args.seed) != jobs:
        raise SystemExit("error: input generation is not deterministic")
    outcome = Outcome(jobs)
    calls = Calls(modules)
    tracer = traced_calls = None
    if args.trace:
        tracer = spans.Tracer()
        traced_calls = Calls(modules, tracer)

    try:
        warm_up(calls, jobs)
    except Exception:  # the timed rounds count the failure
        traceback.print_exc(file=sys.stderr)
    plain, traced, layers = measure(args, calls, outcome, tracer, traced_calls)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    started = time.perf_counter()
    check_outputs(args.workload, outcome, calls)
    check_s = time.perf_counter() - started

    mine_s = typical_round(plain, 0)
    score_s = typical_round(plain, 1)
    if args.trace:
        metrics = {
            name: statistics.median(round_[name] for round_ in layers)
            for name in spans.LAYER_METRICS
            if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = typical_round(traced, 0) - mine_s
        units = spans.LAYER_METRICS
    else:
        metrics = {
            "mine_s": mine_s,
            "score_s": score_s,
            "setup_s": setup_seconds(args),
            "peak_rss_mib": peak_rss_mib,
        }
        units = END_TO_END
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        f"workload={args.workload} seed={args.seed} jobs={len(jobs)} "
        f"rounds={len(plain)} samples_per_metric={len(plain)} "
        f"mine_s={mine_s:.4f} score_s={score_s:.4f} "
        f"wall_mine_s={typical_round(plain, 2):.4f} "
        f"wall_score_s={typical_round(plain, 3):.4f} check_s={check_s:.2f} "
        "round_mine_s="
        + ",".join(f"{sum(t[0] for t in round_.values()):.3f}" for round_ in plain)
    )
    print(
        json.dumps(
            {
                "correct": not outcome.problems,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
