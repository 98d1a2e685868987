import pytest

from regionminer.eventlog import EventLog, prefix_closure, use_transform
from regionminer.filtering import (
    build_graph,
    encoding_table,
    kappa_max,
    make_kappa_max,
    sef_bfs,
    seg_dot,
)
from regionminer.regions import (
    build_constraint_system,
    encoding_length,
    encoding_shorthand,
    sequence_encoding,
)

from .conftest import DATA
from .util import from_traces


@pytest.fixture(scope="module")
def pc_l1_prime(l1_prime):
    use, start, end = use_transform(l1_prime)
    return prefix_closure(use, start, end)


@pytest.fixture(scope="module")
def graph_l1_prime(pc_l1_prime):
    return build_graph(pc_l1_prime)


def _vertex(pc, *activities):
    # the vertex id of the prefix's row; "S"/"E" stand for the fresh
    # start/end wrappers
    trace = tuple(
        pc.start if a == "S" else pc.end if a == "E" else a for a in activities
    )
    row = sequence_encoding(trace, pc.ordered_alphabet())
    return pc.numbering.vertices.index(row)


def test_psi_root_chain(pc_l1_prime, graph_l1_prime):
    g = graph_l1_prime
    root = 0
    v_start = _vertex(pc_l1_prime, "S")
    v_a = _vertex(pc_l1_prime, "S", "a")
    assert g.children[root][v_start] == 56
    assert g.children[v_start][v_a] == 56


def test_psi_children_of_a(pc_l1_prime, graph_l1_prime):
    g = graph_l1_prime
    v_a = _vertex(pc_l1_prime, "S", "a")
    weights = {g.shorthand(child): w for child, w in g.children[v_a].items()}
    start = pc_l1_prime.start
    assert weights == {
        f"([{start},a],b)": 22,
        f"([{start},a],c)": 12,
        f"([{start},a],d)": 22,
    }


def test_psi_children_of_ab(pc_l1_prime, graph_l1_prime):
    g = graph_l1_prime
    v_ab = _vertex(pc_l1_prime, "S", "a", "b")
    weights = sorted(g.children[v_ab].values())
    assert weights == [1, 21]


def test_psi_merge_conservation(pc_l1_prime, graph_l1_prime):
    g = graph_l1_prime
    v_merge = _vertex(pc_l1_prime, "S", "a", "c", "d", "e")
    assert v_merge == _vertex(pc_l1_prime, "S", "a", "d", "c", "e")
    incoming = [arcs[v_merge] for arcs in g.children if v_merge in arcs]
    assert sorted(incoming) == [12, 22]
    assert g.vertex_weight[v_merge] == 34
    outgoing = sorted(g.children[v_merge].values())
    assert outgoing == [9, 25]


def test_psi_deep_split(pc_l1_prime, graph_l1_prime):
    g = graph_l1_prime
    v = _vertex(pc_l1_prime, "S", "a", "b", "d", "e", "f", "c", "d", "e")
    weights = sorted(g.children[v].values())
    assert weights == [13, 23]


def test_single_trace_graph_is_a_path():
    use, start, end = use_transform(EventLog(traces={("a",): 1}))
    pc = prefix_closure(use, start, end)
    g = build_graph(pc)
    assert len(g.vertex_weight) == 4
    for arcs in g.children:
        assert all(w == 1 for w in arcs.values())
        assert len(arcs) <= 1


def test_conservation_identity_everywhere(graph_l1_prime):
    g = graph_l1_prime
    incoming: dict = {}
    for arcs in g.children:
        for child, weight in arcs.items():
            incoming[child] = incoming.get(child, 0) + weight
    for vertex, weight in enumerate(g.vertex_weight):
        if vertex == 0:
            continue
        assert incoming[vertex] == weight


def test_kappa_worked_example(pc_l1_prime, graph_l1_prime):
    g = graph_l1_prime
    v_ab = _vertex(pc_l1_prime, "S", "a", "b")
    kept = kappa_max(g, v_ab, alpha=0.75)
    # (1 - 0.75) * 21 = 5.25 > 1, so only the 21-weighted child survives
    assert {g.children[v_ab][c] for c in kept} == {21}


def test_kappa_compares_weights_in_float():
    # (1.0 - 0.1) * 10 rounds to 9.0, so the weight-9 arc survives; the
    # exact product of that float with 10 lies above 9 and would drop it
    pc = prefix_closure(EventLog.from_pairs([(("a", "b"), 9), (("a", "c"), 10)]))
    g = build_graph(pc)
    kept = kappa_max(g, _vertex(pc, "a"), alpha=0.1)
    assert sorted(g.children[_vertex(pc, "a")][c] for c in kept) == [9, 10]


def test_kappa_alpha_one_keeps_all(graph_l1_prime):
    g = graph_l1_prime
    for vertex, arcs in enumerate(g.children):
        assert kappa_max(g, vertex, alpha=1.0) == set(arcs)


def test_kappa_alpha_zero_keeps_maxima(graph_l1_prime):
    g = graph_l1_prime
    for vertex, arcs in enumerate(g.children):
        if not arcs:
            assert kappa_max(g, vertex, alpha=0.0) == set()
            continue
        best = max(arcs.values())
        assert kappa_max(g, vertex, alpha=0.0) == {
            c for c, w in arcs.items() if w == best
        }


def test_kappa_childless_vertex_yields_empty(pc_l1_prime, graph_l1_prime):
    g = graph_l1_prime
    leaf = _vertex(
        pc_l1_prime, "S", "a", "b", "d", "e", "g", "E"
    )  # ([s,a,b,d,e,g],end)
    assert g.children[leaf] == {}
    assert kappa_max(g, leaf, 0.75) == set()


def test_kappa_monotone_in_alpha_concrete(graph_l1_prime):
    g = graph_l1_prime
    alphas = [0.0, 0.2, 0.5, 0.75, 0.9, 1.0]
    for vertex in range(len(g.children)):
        previous = None
        for alpha in alphas:
            current = kappa_max(g, vertex, alpha)
            if previous is not None:
                assert previous <= current
            previous = current


def test_sef_bfs_prunes_exactly_five(pc_l1_prime, graph_l1_prime):
    g = graph_l1_prime
    retained = sef_bfs(g, make_kappa_max(g, 0.75))
    removed = set(range(len(g.vertices))) - retained - {0}
    expected = {
        _vertex(pc_l1_prime, "S", "a", "b", "c"),
        _vertex(pc_l1_prime, "S", "a", "b", "c", "d"),
        _vertex(pc_l1_prime, "S", "a", "b", "c", "d", "e"),
        _vertex(pc_l1_prime, "S", "a", "b", "c", "d", "e", "g"),
        _vertex(pc_l1_prime, "S", "a", "b", "c", "d", "e", "g", "E"),
    }
    assert removed == expected
    assert 0 not in retained


def test_sef_bfs_all_children_filter(graph_l1_prime):
    g = graph_l1_prime
    retained = sef_bfs(g, lambda v: set(g.children[v]))
    assert retained == set(range(1, len(g.vertices)))


def test_sef_bfs_empty_filter(graph_l1_prime):
    assert sef_bfs(graph_l1_prime, lambda v: set()) == set()


def test_sef_bfs_retained_set_is_prefix_reachable(graph_l1_prime):
    g = graph_l1_prime
    retained = sef_bfs(g, make_kappa_max(g, 0.75))
    # walking down from the root through retained vertices reaches all of them
    reachable = set()
    frontier = [0]
    while frontier:
        vertex = frontier.pop()
        for child in g.children[vertex]:
            if child in retained and child not in reachable:
                reachable.add(child)
                frontier.append(child)
    assert retained == reachable


def test_alpha_one_equals_unfiltered_system(pc_l1_prime, graph_l1_prime):
    g = graph_l1_prime
    retained = sef_bfs(g, make_kappa_max(g, 1.0))
    assert retained == set(range(1, len(g.vertices)))
    filtered = build_constraint_system(pc_l1_prime, retained)
    unfiltered = build_constraint_system(pc_l1_prime)
    assert filtered == unfiltered


def test_filtered_system_drops_pruned_path(pc_l1_prime, graph_l1_prime):
    g = graph_l1_prime
    retained = sef_bfs(g, make_kappa_max(g, 0.75))
    cs = build_constraint_system(pc_l1_prime, retained)
    start = pc_l1_prime.start
    shorthands = {
        encoding_shorthand(row.vector, g.alphabet) for row in cs.inequality_rows
    }
    assert f"([{start},a,b],c)" not in shorthands
    assert f"([{start},a,b,c],d)" not in shorthands
    # the injected trace loses its emptiness equality, the five variants keep theirs
    assert len(cs.equality_rows) == 4  # traces 2 and 4 share a vector
    assert sum(row.weight for row in cs.equality_rows) == 55


def test_filtering_monotone_feasibility(pc_l1_prime, graph_l1_prime):
    g = graph_l1_prime
    retained = sef_bfs(g, make_kappa_max(g, 0.75))
    filtered = build_constraint_system(pc_l1_prime, retained)
    unfiltered = build_constraint_system(pc_l1_prime)
    assert {row.vector for row in filtered.inequality_rows} <= {
        row.vector for row in unfiltered.inequality_rows
    }
    assert {row.vector for row in filtered.equality_rows} <= {
        row.vector for row in unfiltered.equality_rows
    }


def test_encoding_table_matches_fixture(pc_l1_prime):
    expected = (DATA / "encoding_table_l1_prime.txt").read_text(encoding="utf-8")
    assert encoding_table(pc_l1_prime) == expected


def test_graph_acyclic_on_random_logs():
    # every arc raises the encoding length by exactly one, so no path of
    # arcs returns to its first vertex; on plain logs and on USE-wrapped ones
    import random

    rng = random.Random(11)
    for _ in range(20):
        traces = [
            tuple(rng.choice("abcd") for _ in range(rng.randint(1, 5)))
            for _ in range(rng.randint(1, 6))
        ]
        log = from_traces(traces)
        use, start, end = use_transform(log)
        for pc in (prefix_closure(log), prefix_closure(use, start, end)):
            graph = build_graph(pc)
            arcs = [(v, w) for v, out in enumerate(graph.children) for w in out]
            assert arcs
            lengths = [encoding_length(row, graph.alphabet) for row in graph.vertices]
            for vertex, child in arcs:
                assert lengths[child] == lengths[vertex] + 1


def test_seg_dot_marks_pruned(pc_l1_prime, graph_l1_prime):
    g = graph_l1_prime
    retained = sef_bfs(g, make_kappa_max(g, 0.75))
    dot = seg_dot(g, retained)
    assert dot.count("style=dashed") >= 5
    assert dot.startswith("digraph seg {")
