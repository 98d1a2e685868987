"""Command-line surface: discover, evaluate, noise, sweep, convert.

Exit codes: 0 on success, 1 on pipeline errors (reported as a single
machine-readable ``error: ...`` line on stderr), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from pathlib import Path

from .causal import DEFAULT_DEPENDENCY_THRESHOLD, causal_graph_dot
from .discovery import DiscoveryOptions, run_discovery
from .errors import RegionMinerError
from .eventlog import EventLog, parse_trace_log, parse_xes, serialize_trace_log
from .filtering import build_graph, seg_dot
from .petri import export_dot, export_pnml, parse_pnml
from .quality import evaluate, inject_noise
from .regions import instantiate_causal_ilp, lp_text


def _read_log(path: str, xes: bool) -> EventLog:
    data = Path(path).read_bytes()
    if xes:
        return parse_xes(data)
    return parse_trace_log(data.decode("utf-8"))


def _add_discovery_flags(parser: argparse.ArgumentParser) -> None:
    filt = parser.add_mutually_exclusive_group()
    filt.add_argument(
        "--alpha",
        type=float,
        default=0.75,
        help="frequency filter strength in [0, 1]; 1 keeps everything (default 0.75)",
    )
    filt.add_argument(
        "--no-filter",
        action="store_true",
        help="disable the frequency filter entirely",
    )
    parser.add_argument(
        "--dependency-threshold",
        type=float,
        default=DEFAULT_DEPENDENCY_THRESHOLD,
        help="minimum dependency score for a causal arc (default %(default)s)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regionminer",
        description="Mine relaxed-sound workflow nets from event logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    discover_p = sub.add_parser("discover", help="mine a workflow net from a log")
    discover_p.add_argument("--log", required=True, help="input log path")
    discover_p.add_argument(
        "--xes", action="store_true", help="read the log as XES instead of trace text"
    )
    _add_discovery_flags(discover_p)
    discover_p.add_argument("--out-pnml", required=True, help="write the net as PNML")
    discover_p.add_argument("--out-dot", help="also write the net as DOT")
    discover_p.add_argument(
        "--emit-seg-dot", help="dump the sequence-encoding graph as DOT"
    )
    discover_p.add_argument("--emit-causal-dot", help="dump the causal graph as DOT")
    discover_p.add_argument(
        "--emit-lp", help="dump one LP-format text file per causal pair into DIR"
    )

    evaluate_p = sub.add_parser("evaluate", help="score a PNML net against a log")
    evaluate_p.add_argument("--log", required=True)
    evaluate_p.add_argument(
        "--xes", action="store_true", help="read the log as XES instead of trace text"
    )
    evaluate_p.add_argument("--pnml", required=True)

    noise_p = sub.add_parser("noise", help="inject controlled noise into a log")
    noise_p.add_argument("--log", required=True)
    noise_p.add_argument("--level", type=float, required=True)
    noise_p.add_argument("--seed", type=int, required=True)
    noise_p.add_argument("--out", required=True)

    sweep_p = sub.add_parser(
        "sweep", help="grid of noise level x filter strength, CSV on stdout"
    )
    sweep_p.add_argument("--log", required=True)
    sweep_p.add_argument(
        "--alphas", required=True, help="comma-separated filter strengths"
    )
    sweep_p.add_argument(
        "--noise-levels", required=True, help="comma-separated noise levels"
    )
    sweep_p.add_argument("--seed", type=int, default=0)
    sweep_p.add_argument(
        "--dependency-threshold", type=float, default=DEFAULT_DEPENDENCY_THRESHOLD
    )

    convert_p = sub.add_parser("convert", help="convert an XES log to trace text")
    convert_p.add_argument("--xes", required=True)
    convert_p.add_argument("--out", required=True)

    return parser


def _cmd_discover(args) -> int:
    log = _read_log(args.log, args.xes)
    alpha = None if args.no_filter else args.alpha
    options = DiscoveryOptions(
        alpha=alpha,
        dependency_threshold=args.dependency_threshold,
    )
    result = run_discovery(log, options)
    Path(args.out_pnml).write_bytes(export_pnml(result.net))
    if args.out_dot:
        Path(args.out_dot).write_text(export_dot(result.net))
    if args.emit_seg_dot:
        graph = result.encoding_graph
        if graph is None:
            graph = build_graph(result.closure)
        Path(args.emit_seg_dot).write_text(seg_dot(graph, result.retained))
    if args.emit_causal_dot:
        Path(args.emit_causal_dot).write_text(causal_graph_dot(result.causal))
    if args.emit_lp:
        directory = Path(args.emit_lp)
        directory.mkdir(parents=True, exist_ok=True)
        for index, pair in enumerate(sorted(result.causal.arcs)):
            inst = instantiate_causal_ilp(result.system, *pair)
            safe = re.sub(r"[^A-Za-z0-9_.-]", "_", f"{pair[0]}__{pair[1]}")
            (directory / f"{index:03d}_{safe}.lp").write_text(lp_text(inst, result.closure))
    return 0


def _cmd_evaluate(args) -> int:
    log = _read_log(args.log, args.xes)
    wfnet = parse_pnml(Path(args.pnml).read_bytes())
    report = evaluate(wfnet, log)
    sys.stdout.write(report.as_text())
    return 0


def _cmd_noise(args) -> int:
    log = _read_log(args.log, xes=False)
    noisy = inject_noise(log, args.level, args.seed)
    Path(args.out).write_text(serialize_trace_log(noisy))
    return 0


def _cmd_sweep(args) -> int:
    log = _read_log(args.log, xes=False)
    alphas = [token.strip() for token in args.alphas.split(",") if token.strip()]
    levels = [token.strip() for token in args.noise_levels.split(",") if token.strip()]
    # check the log and build every option and noisy log first, so a bad
    # flag fails before any mining
    if log.is_empty():
        raise ValueError("cannot discover from an empty log")
    for flag, tokens in (("--alphas", alphas), ("--noise-levels", levels)):
        if not tokens:
            raise ValueError(f"{flag} names no value")
    threshold = args.dependency_threshold
    grid = [
        (token, DiscoveryOptions(alpha=float(token), dependency_threshold=threshold))
        for token in alphas
    ]
    noisy_logs = []
    for token in levels:
        level = float(token)
        noisy_logs.append((token, inject_noise(log, level, args.seed) if level else log))
    rows = ["noise,alpha,fitness,precision,wall_ms"]
    for level_token, noisy in noisy_logs:
        for alpha_token, options in grid:
            started = time.perf_counter()
            net = run_discovery(noisy, options).net
            wall_ms = int((time.perf_counter() - started) * 1000)
            report = evaluate(net, log)
            rows.append(
                f"{level_token},{alpha_token},{report.fitness:.6f},"
                f"{report.precision:.6f},{wall_ms}"
            )
    # printed only once every cell is computed, so an error leaves stdout empty
    print("\n".join(rows))
    return 0


def _cmd_convert(args) -> int:
    log = parse_xes(Path(args.xes).read_bytes())
    Path(args.out).write_text(serialize_trace_log(log))
    return 0


_COMMANDS = {
    "discover": _cmd_discover,
    "evaluate": _cmd_evaluate,
    "noise": _cmd_noise,
    "sweep": _cmd_sweep,
    "convert": _cmd_convert,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (RegionMinerError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
