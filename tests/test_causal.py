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
from regionminer.eventlog import EventLog, use_transform

from .util import oracle_repair


@pytest.fixture(scope="module")
def use_l1(l1):
    return use_transform(l1)


@pytest.fixture(scope="module")
def use_l1_prime(l1_prime):
    return use_transform(l1_prime)


def test_directly_follows_counts_adjacencies():
    log = EventLog(traces={("a", "b"): 2})
    df = directly_follows(log)
    assert df[("a", "b")] == 2
    assert ("b", "a") not in df


def test_directly_follows_use_l1(use_l1):
    log, start, end = use_l1
    df = directly_follows(log)
    # every trace contributes exactly one start->a adjacency, 55 in total
    assert df[(start, "a")] == 55
    assert df[("g", end)] == 33
    assert df[("h", end)] == 22


def test_directly_follows_injected_trace(use_l1_prime):
    log, _, _ = use_l1_prime
    df = directly_follows(log)
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
    log, start, end = use_l1
    graph = build_causal_graph(log, start, end, threshold=0.9)
    assert (start, "a") in graph.arcs
    assert ("g", end) in graph.arcs
    assert ("h", end) in graph.arcs
    # dependency(b, d) = (34 - 12) / 47, far below 0.9
    assert ("b", "d") not in graph.arcs
    assert not any(b == start for _, b in graph.arcs)
    assert not any(a == end for a, _ in graph.arcs)


def test_build_causal_graph_threshold_one_is_empty(use_l1):
    log, start, end = use_l1
    graph = build_causal_graph(log, start, end, threshold=1.0)
    assert graph.arcs == frozenset()


def test_build_causal_graph_l1_prime_excludes_bc(use_l1_prime):
    log, start, end = use_l1_prime
    graph = build_causal_graph(log, start, end, threshold=0.9)
    # dependency(b, c) = (1 - 0) / 2 = 0.5
    assert ("b", "c") not in graph.arcs


def test_build_causal_graph_rejects_non_use_log(l1):
    with pytest.raises(ValueError):
        build_causal_graph(l1, "a", "h", threshold=0.9)


@given(st.lists(st.lists(st.sampled_from("abc"), min_size=1, max_size=4), min_size=1, max_size=6))
def test_threshold_monotonicity(raw_traces):
    log, start, end = use_transform(EventLog.from_traces(raw_traces))
    low = build_causal_graph(log, start, end, threshold=0.5)
    high = build_causal_graph(log, start, end, threshold=0.8)
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
    log, start, end = use_l1
    graph = build_causal_graph(log, start, end, threshold=0.9)
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
    log, start, end = use_l1
    graph = build_causal_graph(log, start, end, threshold=0.99)
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
    log, start, end = use_transform(EventLog.from_pairs(pairs))
    graph = build_causal_graph(log, start, end, threshold=threshold)
    repaired = repair_for_path_property(graph)
    assert (repaired.arcs, repaired.weights) == oracle_repair(graph)


def test_repair_errors_on_contactless_vertex():
    graph = _tiny_graph({("s", "e")}, {})
    with pytest.raises(GraphRepairError, match="x"):
        repair_for_path_property(graph)


def test_determinism(use_l1):
    log, start, end = use_l1
    first = build_causal_graph(log, start, end, threshold=0.9)
    second = build_causal_graph(log, start, end, threshold=0.9)
    assert first.arcs == second.arcs and first.weights == second.weights
    assert repair_for_path_property(first).arcs == repair_for_path_property(second).arcs


def test_causal_graph_dot_renders(use_l1):
    log, start, end = use_l1
    graph = build_causal_graph(log, start, end, threshold=0.9)
    dot = causal_graph_dot(graph)
    assert dot.startswith("digraph causal {")
    assert '"g" -> "__end__"' in dot
