"""End-to-end discovery: wrap the log, build the causal graph and the
constraint body (optionally filtered), solve one problem per causal pair
and assemble the workflow net.

One transition per activity plus two silent wrappers; every causal pair
contributes a place wired by its arc indicators; a fresh source place
feeds the start wrapper and the end wrapper feeds a fresh sink place.
Pairs are solved one after another in sorted order, and duplicate
regions collapse into one place.

Every causal pair has a region, filtered or not: the wrapper assignment
(``x_start = y_end = 1``, self-loops on both activities of the pair,
``x_a = y_b = 1``) satisfies every row of the unfiltered system, and the
filter only removes rows. A replacement solver that still reports no
region raises ``SolverError`` naming the pair.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from . import ilp
from .causal import (
    DEFAULT_DEPENDENCY_THRESHOLD,
    CausalGraph,
    build_causal_graph,
    repair_for_path_property,
)
from .errors import SolverError
from .eventlog import EventLog, PrefixClosure, prefix_closure, use_transform
from .filtering import SequenceEncodingGraph, build_graph, make_kappa_max, sef_bfs
from .petri import PetriNet, WorkflowNet
from .regions import (
    ConstraintSystem,
    RegionCandidate,
    build_constraint_system,
    instantiate_causal_ilp,
)

logger = logging.getLogger(__name__)

Pair = tuple[str, str]
Solver = Callable[[object], ilp.Solution]


@dataclass(frozen=True)
class DiscoveryOptions:
    alpha: float | None = None  # None switches the frequency filter off
    dependency_threshold: float = DEFAULT_DEPENDENCY_THRESHOLD
    solver: Solver | None = None

    def __post_init__(self):
        if self.alpha is not None and not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.dependency_threshold <= 1.0:
            raise ValueError(
                f"dependency threshold must be in [0, 1], got {self.dependency_threshold}"
            )


@dataclass(frozen=True)
class DiscoveryResult:
    """Net plus the intermediate artefacts the CLI and tests inspect."""

    net: WorkflowNet
    closure: PrefixClosure
    system: ConstraintSystem
    causal: CausalGraph
    encoding_graph: SequenceEncodingGraph | None
    retained: frozenset[int] | None  # the vertex ids the filter kept
    regions: tuple[RegionCandidate, ...]
    pair_regions: Mapping[Pair, RegionCandidate]


def dedupe_places(solutions: Iterable[RegionCandidate]) -> list[RegionCandidate]:
    """Collapse exact duplicate (marking, incoming, outgoing) triples,
    keeping the first occurrence and otherwise preserving order."""
    seen = set()
    out = []
    for candidate in solutions:
        key = candidate.vector()
        if key not in seen:
            seen.add(key)
            out.append(candidate)
    return out


def run_discovery(log: EventLog, options: DiscoveryOptions | None = None) -> DiscoveryResult:
    options = options or DiscoveryOptions()
    if log.is_empty():
        raise ValueError("cannot discover from an empty log")
    solver = options.solver or ilp.solve

    use_log, start, end = use_transform(log)
    pc = prefix_closure(use_log, start, end)
    causal = repair_for_path_property(build_causal_graph(pc, options.dependency_threshold))

    encoding_graph = None
    retained = None
    if options.alpha is None:
        system = build_constraint_system(pc)
    else:
        encoding_graph = build_graph(pc)
        retained = frozenset(
            sef_bfs(encoding_graph, make_kappa_max(encoding_graph, options.alpha))
        )
        system = build_constraint_system(pc, retained)

    logger.debug(
        "constraint system: %d inequality rows, %d equality rows",
        len(system.inequality_rows),
        len(system.equality_rows),
    )
    pair_regions: dict[Pair, RegionCandidate] = {}
    for pair in sorted(causal.arcs):
        solution = solver(instantiate_causal_ilp(system, *pair))
        logger.debug(
            "pair (%s, %s): %s, objective %s, %d nodes, %d pivots, %d LPs, %d rows added",
            *pair,
            solution.status,
            solution.objective,
            solution.nodes,
            solution.pivots,
            solution.lps,
            solution.rows,
        )
        if solution.status != "optimal":
            a, b = pair
            raise SolverError(f"pair ({a}, {b}): solver returned {solution.status}")
        pair_regions[pair] = RegionCandidate.from_vector(solution.assignment)
    regions = dedupe_places(pair_regions.values())

    net = _assemble(system, regions, start, end)
    return DiscoveryResult(
        net=net,
        closure=pc,
        system=system,
        causal=causal,
        encoding_graph=encoding_graph,
        retained=retained,
        regions=tuple(regions),
        pair_regions=pair_regions,
    )


def discover(log: EventLog, options: DiscoveryOptions | None = None) -> WorkflowNet:
    """Mine a workflow net from an event log."""
    return run_discovery(log, options).net


def _assemble(
    system: ConstraintSystem,
    regions: Sequence[RegionCandidate],
    start: str,
    end: str,
) -> WorkflowNet:
    alphabet = system.alphabet
    transition_of = {activity: f"t_{activity}" for activity in alphabet}
    labels = {
        transition_of[activity]: (None if activity in (start, end) else activity)
        for activity in alphabet
    }
    places = ["source", "sink"]
    arcs: list[tuple[str, str]] = [
        ("source", transition_of[start]),
        (transition_of[end], "sink"),
    ]
    for index, region in enumerate(regions):
        # causal fixings pin the marking bit, so no region place starts marked
        assert region.marked == 0
        place = f"p{index}"
        places.append(place)
        for activity, flag in zip(alphabet, region.incoming):
            if flag:
                arcs.append((transition_of[activity], place))
        for activity, flag in zip(alphabet, region.outgoing):
            if flag:
                arcs.append((place, transition_of[activity]))
    net = PetriNet(places, transition_of.values(), arcs, labels)
    return WorkflowNet(net=net, source="source", sink="sink")
