import pytest
from hypothesis import given
from hypothesis import strategies as st

from regionminer.causal import (
    CausalGraph,
    build_causal_graph,
    causal_graph_dot,
    dependency,
    directly_follows,
    repair_for_path_property,
    validate_path_property,
)
from regionminer.errors import GraphRepairError
from regionminer.eventlog import EventLog, prefix_closure, use_transform

from .util import from_traces, oracle_repair


def use_closure(log):
    """The prefix tree of ``log`` wrapped in fresh start/end activities."""
    return prefix_closure(*use_transform(log))


def walked_directly_follows(log):
    """Reference: count adjacent pairs by walking every event of every trace."""
    counts = {}
    for trace, mult in log.traces.items():
        for left, right in zip(trace, trace[1:]):
            counts[(left, right)] = counts.get((left, right), 0) + mult
    return counts


def is_use_log(log, start, end):
    """Reference: the unique-start/end predicate checked trace by trace."""
    if start == end or log.is_empty():
        return False
    for trace in log.traces:
        if len(trace) < 2 or trace[0] != start or trace[-1] != end:
            return False
        body = trace[1:-1]
        if start in body or end in body:
            return False
    return True


@pytest.fixture(scope="module")
def use_l1(l1):
    return use_closure(l1)


@pytest.fixture(scope="module")
def use_l1_prime(l1_prime):
    return use_closure(l1_prime)


def test_directly_follows_counts_adjacencies():
    log = EventLog(traces={("a", "b"): 2})
    df = directly_follows(prefix_closure(log))
    assert df[("a", "b")] == 2
    assert ("b", "a") not in df


def test_directly_follows_use_l1(use_l1):
    pc = use_l1
    start, end = pc.start, pc.end
    df = directly_follows(pc)
    # every trace contributes exactly one start->a adjacency, 55 in total
    assert df[(start, "a")] == 55
    assert df[("g", end)] == 33
    assert df[("h", end)] == 22


def test_directly_follows_injected_trace(use_l1_prime):
    df = directly_follows(use_l1_prime)
    # b is adjacent-before c only in the single injected trace
    assert df[("b", "c")] == 1
    assert ("c", "b") not in df


def test_dependency_values():
    df = {("a", "b"): 55}
    assert dependency("a", "b", df) == pytest.approx(55 / 56)
    assert dependency("x", "y", {}) == 0.0
    assert dependency("a", "b", {("a", "b"): 1, ("b", "a"): 1}) == 0.0


@given(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=50))
def test_dependency_antisymmetric(forward, backward):
    df = {("a", "b"): forward, ("b", "a"): backward}
    assert dependency("a", "b", df) == -dependency("b", "a", df)
    assert -1 < dependency("a", "b", df) < 1


def test_build_causal_graph_l1(use_l1):
    start, end = use_l1.start, use_l1.end
    graph = build_causal_graph(use_l1, threshold=0.9)
    assert (start, "a") in graph.arcs
    assert ("g", end) in graph.arcs
    assert ("h", end) in graph.arcs
    # dependency(b, d) = (34 - 12) / 47, far below 0.9
    assert ("b", "d") not in graph.arcs
    assert not any(b == start for _, b in graph.arcs)
    assert not any(a == end for a, _ in graph.arcs)


def test_build_causal_graph_threshold_one_is_empty(use_l1):
    graph = build_causal_graph(use_l1, threshold=1.0)
    assert graph.arcs == frozenset()


def test_build_causal_graph_l1_prime_excludes_bc(use_l1_prime):
    graph = build_causal_graph(use_l1_prime, threshold=0.9)
    # dependency(b, c) = (1 - 0) / 2 = 0.5
    assert ("b", "c") not in graph.arcs


def test_build_causal_graph_rejects_non_use_log(l1):
    with pytest.raises(ValueError):
        build_causal_graph(prefix_closure(l1, "a", "h"), threshold=0.9)


@pytest.mark.parametrize(
    "traces",
    [
        [("s", "a", "s", "e")],  # start inside a trace
        [("s", "a", "e", "b", "e")],  # end inside a trace
        [("s", "e"), ("s", "e", "a", "e")],  # a trace extends a USE trace
        [("s", "a", "e"), ("s", "a")],  # a trace stops short of end
        [("s", "a", "e"), ()],  # the empty trace
        [("s", "a", "e"), ("s",)],  # start alone
        [("s", "a", "e"), ("a", "s", "e")],  # a second depth-1 node
        [("s", "a", "e"), ("t", "a", "e")],  # a second depth-1 node after start
    ],
)
def test_build_causal_graph_rejects_non_use_closures(traces):
    log = from_traces(traces)
    assert not is_use_log(log, "s", "e")
    with pytest.raises(ValueError, match="unique-start/end"):
        build_causal_graph(prefix_closure(log, "s", "e"))


def test_build_causal_graph_requires_start_and_end(l1):
    use, start, end = use_transform(l1)
    for pc in (prefix_closure(use), prefix_closure(use, start), prefix_closure(use, start, start)):
        with pytest.raises(ValueError, match="unique-start/end"):
            build_causal_graph(pc)
    assert build_causal_graph(prefix_closure(use, start, end)).start == start


near_use_traces = st.lists(
    st.tuples(
        st.lists(st.sampled_from(["s", "e", "a", "b"]), max_size=5).map(tuple),
        st.integers(min_value=1, max_value=4),
    ),
    min_size=1,
    max_size=5,
)


@given(near_use_traces, st.booleans())
def test_tree_use_check_matches_trace_walk(pairs, wrap):
    # half the logs are wrapped, so many of them are USE logs
    if wrap:
        pairs = [(("s",) + trace + ("e",), count) for trace, count in pairs]
    log = EventLog.from_pairs(pairs)
    pc = prefix_closure(log, "s", "e")
    if is_use_log(log, "s", "e"):
        assert build_causal_graph(pc).df == walked_directly_follows(log)
    else:
        with pytest.raises(ValueError, match="unique-start/end"):
            build_causal_graph(pc)


@given(
    st.lists(
        st.tuples(
            st.lists(st.sampled_from("abcd"), max_size=6).map(tuple),
            st.integers(min_value=1, max_value=9),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_directly_follows_on_the_tree_matches_event_walk(pairs):
    log = EventLog.from_pairs(pairs)
    assert directly_follows(prefix_closure(log)) == walked_directly_follows(log)
    use, start, end = use_transform(log)
    df = directly_follows(prefix_closure(use, start, end))
    assert df == walked_directly_follows(use)


@given(st.lists(st.lists(st.sampled_from("abc"), min_size=1, max_size=4), min_size=1, max_size=6))
def test_threshold_monotonicity(raw_traces):
    pc = use_closure(from_traces(raw_traces))
    low = build_causal_graph(pc, threshold=0.5)
    high = build_causal_graph(pc, threshold=0.8)
    assert high.arcs <= low.arcs


def _tiny_graph(arcs, df):
    return CausalGraph(
        vertices=frozenset({"s", "x", "e"}),
        arcs=frozenset(arcs),
        start="s",
        end="e",
        df=df,
    )


def test_validate_chain_is_true():
    graph = _tiny_graph({("s", "x"), ("x", "e")}, {})
    ok, violations = validate_path_property(graph)
    assert ok and violations == []


def test_validate_reports_isolated_vertex():
    graph = _tiny_graph({("s", "e")}, {})
    ok, violations = validate_path_property(graph)
    assert not ok
    assert "x" in violations


def test_validate_flags_arc_into_start():
    graph = _tiny_graph({("s", "x"), ("x", "e"), ("e", "s")}, {})
    ok, violations = validate_path_property(graph)
    assert not ok
    assert any("into start" in v or "out of end" in v for v in violations)


def test_repair_is_identity_on_valid_graph(use_l1):
    graph = build_causal_graph(use_l1, threshold=0.9)
    ok, _ = validate_path_property(graph)
    assert ok
    repaired = repair_for_path_property(graph)
    assert repaired.arcs == graph.arcs


def test_repair_attaches_disconnected_vertex():
    graph = _tiny_graph({("s", "e")}, {("s", "x"): 1, ("x", "e"): 1})
    repaired = repair_for_path_property(graph)
    assert repaired.arcs == {("s", "e"), ("s", "x"), ("x", "e")}
    ok, _ = validate_path_property(repaired)
    assert ok


def test_repair_never_removes_arcs_and_validates(use_l1):
    graph = build_causal_graph(use_l1, threshold=0.99)
    repaired = repair_for_path_property(graph)
    assert graph.arcs <= repaired.arcs
    ok, violations = validate_path_property(repaired)
    assert ok, violations


def test_repair_backward_pass_attaches_vertex_to_end():
    # the start reaches x, but x reaches the end only through an added arc
    graph = _tiny_graph({("s", "x"), ("s", "e")}, {("s", "x"): 1, ("x", "e"): 1})
    repaired = repair_for_path_property(graph)
    assert repaired.arcs == {("s", "x"), ("s", "e"), ("x", "e")}


def test_repair_backward_pass_errors_on_vertex_without_end_contact():
    graph = _tiny_graph({("s", "x"), ("s", "e")}, {("s", "x"): 1})
    with pytest.raises(GraphRepairError, match="cannot connect vertex 'x'"):
        repair_for_path_property(graph)


@given(
    st.lists(
        st.tuples(
            st.lists(st.sampled_from("abcde"), min_size=1, max_size=5),
            st.integers(min_value=1, max_value=9),
        ),
        min_size=1,
        max_size=6,
    ),
    st.sampled_from([0.0, 0.5, 0.9, 0.99, 1.0]),
)
def test_repair_matches_two_direction_oracle(pairs, threshold):
    graph = build_causal_graph(use_closure(EventLog.from_pairs(pairs)), threshold=threshold)
    repaired = repair_for_path_property(graph)
    assert (repaired.arcs, repaired.weights) == oracle_repair(graph)


def test_repair_errors_on_contactless_vertex():
    graph = _tiny_graph({("s", "e")}, {})
    with pytest.raises(GraphRepairError, match="x"):
        repair_for_path_property(graph)


def test_determinism(use_l1):
    first = build_causal_graph(use_l1, threshold=0.9)
    second = build_causal_graph(use_l1, threshold=0.9)
    assert first.arcs == second.arcs and first.weights == second.weights
    assert repair_for_path_property(first).arcs == repair_for_path_property(second).arcs


def test_causal_graph_dot_renders(use_l1):
    graph = build_causal_graph(use_l1, threshold=0.9)
    dot = causal_graph_dot(graph)
    assert dot.startswith("digraph causal {")
    assert '"g" -> "__end__"' in dot
