"""Region-based process discovery with integrated frequency filtering."""

from .errors import (
    GraphRepairError,
    ParseError,
    RegionMinerError,
    ReplayError,
    SolverError,
)

from .causal import (
    CausalGraph,
    build_causal_graph,
    dependency,
    directly_follows,
    repair_for_path_property,
    validate_path_property,
)
from .discovery import DiscoveryOptions, DiscoveryResult, discover, run_discovery
from .eventlog import (
    EventLog,
    PrefixClosure,
    parikh,
    parse_trace_log,
    parse_xes,
    prefix_closure,
    serialize_trace_log,
    use_transform,
)
from .filtering import SequenceEncodingGraph, build_graph, kappa_max, sef_bfs
from .ilp import Solution, brute_force, solve
from .petri import (
    PetriNet,
    WorkflowNet,
    explore_state_space,
    export_dot,
    export_pnml,
    is_wf_net,
    parse_pnml,
    relaxed_soundness_by_exploration,
    relaxed_soundness_witnesses,
    replay,
)
from .quality import (
    QualityReport,
    escaping_edges_precision,
    evaluate,
    inject_noise,
    token_fitness,
)
from .regions import (
    ConstraintSystem,
    ILPInstance,
    RegionCandidate,
    build_constraint_system,
    check_region,
    instantiate_causal_ilp,
    sequence_encoding,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
