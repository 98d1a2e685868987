import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from regionminer.eventlog import EventLog, parikh, prefix_closure, use_transform
from regionminer.filtering import build_graph, make_kappa_max, sef_bfs
from regionminer.regions import (
    RegionCandidate,
    Row,
    _residency_from_rows,
    build_constraint_system,
    check_region,
    encoding_shorthand,
    instantiate_causal_ilp,
    lp_text,
    sequence_encoding,
)

from .util import admissible_pairs, from_traces


@pytest.fixture(scope="module")
def pc_l1(l1):
    use, start, end = use_transform(l1)
    return prefix_closure(use, start, end)


@pytest.fixture(scope="module")
def pc_l1_prime(l1_prime):
    use, start, end = use_transform(l1_prime)
    return prefix_closure(use, start, end)


def test_sequence_encoding_start_a_b(pc_l1_prime):
    alphabet = pc_l1_prime.ordered_alphabet()
    start = pc_l1_prime.start
    vec = sequence_encoding((start, "a", "b"), alphabet)
    assert vec == (1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0)


def test_sequence_encoding_empty(pc_l1_prime):
    alphabet = pc_l1_prime.ordered_alphabet()
    assert sequence_encoding((), alphabet) == (1,) + (0,) * 20


def test_sequence_encoding_repeated_activity(pc_l1_prime):
    alphabet = pc_l1_prime.ordered_alphabet()
    start = pc_l1_prime.start
    vec = sequence_encoding((start, "a", "c", "d", "e", "f", "d"), alphabet)
    d_pos = alphabet.index("d")
    assert vec[1 + len(alphabet) + d_pos] == -2
    short = encoding_shorthand(vec, alphabet)
    assert short == f"([{start},a,c,d,e,f],d)"


def test_shorthand_of_root(pc_l1_prime):
    alphabet = pc_l1_prime.ordered_alphabet()
    assert encoding_shorthand(sequence_encoding((), alphabet), alphabet) == "([],⊥)"


def test_build_system_single_trace():
    use, start, end = use_transform(EventLog(traces={("a",): 1}))
    pc = prefix_closure(use, start, end)
    cs = build_constraint_system(pc)
    assert len(cs.inequality_rows) == 3
    assert len(cs.equality_rows) == 1
    # first row stems from <start>: m - y(start) >= 0
    first = cs.inequality_rows[0]
    assert pc.render([first.node])[first.node] == (start,)
    expected = [0] * cs.n_vars
    expected[0] = 1
    expected[cs.y_index(start)] = -1
    assert first.vector == tuple(expected)


def test_build_system_merges_interleavings(pc_l1):
    cs = build_constraint_system(pc_l1)
    start = pc_l1.start
    alphabet = pc_l1.ordered_alphabet()
    target = sequence_encoding((start, "a", "c", "d", "e"), alphabet)
    assert target == sequence_encoding((start, "a", "d", "c", "e"), alphabet)
    rows = [row for row in cs.inequality_rows if row.vector == target]
    assert len(rows) == 1
    # closure frequencies 12 and 22 merge
    assert rows[0].weight == 34


def test_row_dedup_preserves_feasible_set(pc_l1):
    cs = build_constraint_system(pc_l1)
    alphabet = pc_l1.ordered_alphabet()
    import random

    rng = random.Random(3)
    for _ in range(25):
        vec = tuple(rng.randint(0, 1) for _ in range(cs.n_vars))
        by_rows = all(
            sum(r * v for r, v in zip(row.vector, vec)) >= 0
            for row in cs.inequality_rows
        )
        ok, _ = check_region(RegionCandidate.from_vector(vec), pc_l1)
        assert by_rows == ok


def _residency(cs):
    """The token-residency profile of an unfiltered system's rows."""
    return _residency_from_rows(cs.inequality_rows, cs.n_activities)


def test_residency_single_trace():
    use, start, end = use_transform(EventLog(traces={("a",): 1}))
    pc = prefix_closure(use, start, end)
    # three prefix rows of weight 1 each, plus the marking penalty
    assert _residency(build_constraint_system(pc))[0] == 4


def test_residency_y_end_counts_traces(pc_l1):
    cs = build_constraint_system(pc_l1)
    res = _residency(cs)
    assert res[cs.y_index(pc_l1.end)] == -55


def test_residency_x_nonnegative_y_nonpositive(pc_l1):
    cs = build_constraint_system(pc_l1)
    res = _residency(cs)
    n = cs.n_activities
    assert all(c >= 0 for c in res[1 : n + 1])
    assert all(c <= 0 for c in res[n + 1 :])


def test_objective_is_arc_primary_with_residency_tiebreak():
    use, start, end = use_transform(EventLog(traces={("a",): 1}))
    pc = prefix_closure(use, start, end)
    cs = build_constraint_system(pc)
    res = _residency(cs)
    # unit = 2 + sum of weight * (1 + prefix length) over the three rows
    unit = 2 + (1 * 1 + 1 * 2 + 1 * 3)
    assert cs.objective == tuple(unit + r for r in res)
    # one arc more always costs more than any residency difference
    assert unit > max(res) - min(res)


def test_instantiate_fixings(pc_l1):
    cs = build_constraint_system(pc_l1)
    inst = instantiate_causal_ilp(cs, pc_l1.start, "a")
    assert inst.fixings == {
        0: 0,
        cs.x_index(pc_l1.start): 1,
        cs.y_index("a"): 1,
    }


def test_instantiate_rejects_end_source(pc_l1):
    cs = build_constraint_system(pc_l1)
    with pytest.raises(ValueError):
        instantiate_causal_ilp(cs, pc_l1.end, "b")
    with pytest.raises(ValueError):
        instantiate_causal_ilp(cs, "a", pc_l1.start)


def test_wrap_seed_is_region(pc_l1_prime):
    # why every unfiltered pair has a place: route the pair through the
    # start and end wrappers, self-looping a and b in between
    cs = build_constraint_system(pc_l1_prime)
    start, end = cs.alphabet[0], cs.alphabet[-1]
    for a, b in admissible_pairs(pc_l1_prime):
        incoming = {start, a} | ({b} - {end})
        outgoing = {end, b} | ({a} - {start})
        candidate = RegionCandidate(
            marked=0,
            incoming=tuple(int(x in incoming) for x in cs.alphabet),
            outgoing=tuple(int(y in outgoing) for y in cs.alphabet),
        )
        ok, violated = check_region(candidate, pc_l1_prime)
        assert ok, (a, b, violated)
        vector = candidate.vector()
        for row in cs.equality_rows:
            assert sum(c * v for c, v in zip(row.vector, vector)) == 0, (a, b, row)
        fixings = instantiate_causal_ilp(cs, a, b).fixings
        assert all(vector[i] == v for i, v in fixings.items()), (a, b)


def test_check_region_known_place(pc_l1):
    cs = build_constraint_system(pc_l1)
    n = cs.n_activities
    incoming = [0] * n
    outgoing = [0] * n
    incoming[cs.alphabet.index("a")] = 1
    incoming[cs.alphabet.index("f")] = 1
    outgoing[cs.alphabet.index("d")] = 1
    ok, _ = check_region(
        RegionCandidate(marked=0, incoming=tuple(incoming), outgoing=tuple(outgoing)),
        pc_l1,
    )
    assert ok


def test_check_region_first_violation(pc_l1_prime):
    cs = build_constraint_system(pc_l1_prime)
    n = cs.n_activities
    incoming = [0] * n
    outgoing = [0] * n
    incoming[cs.alphabet.index("a")] = 1
    incoming[cs.alphabet.index("f")] = 1
    outgoing[cs.alphabet.index("b")] = 1
    outgoing[cs.alphabet.index("c")] = 1
    ok, first = check_region(
        RegionCandidate(marked=0, incoming=tuple(incoming), outgoing=tuple(outgoing)),
        pc_l1_prime,
    )
    assert not ok
    assert first == (pc_l1_prime.start, "a", "b", "c")


small_logs = st.lists(
    st.lists(st.sampled_from("abc"), min_size=1, max_size=4), min_size=1, max_size=5
)


@given(small_logs)
def test_trivial_regions_always_pass(raw):
    use, start, end = use_transform(from_traces(raw))
    pc = prefix_closure(use, start, end)
    n = len(pc.ordered_alphabet())
    zero = RegionCandidate(0, (0,) * n, (0,) * n)
    one = RegionCandidate(1, (1,) * n, (1,) * n)
    assert check_region(zero, pc) == (True, None)
    assert check_region(one, pc) == (True, None)


def test_check_region_dimension_mismatch(pc_l1):
    with pytest.raises(ValueError):
        check_region(RegionCandidate(0, (0,), (0,)), pc_l1)


@pytest.mark.parametrize("bad", ["root", "negative", "past-end"])
def test_retained_ids_must_be_non_root_vertices(pc_l1, bad):
    # the root's row occurs in the closure but never becomes a body row
    count = len(pc_l1.numbering.vertices)
    vertex = {"root": 0, "negative": -1, "past-end": count}[bad]
    # a valid id comes first: the error names the first bad one
    with pytest.raises(ValueError, match=rf"^retained id {vertex} is not a non-root"):
        build_constraint_system(pc_l1, retained=[1, vertex, count + 1])


def test_constraint_system_grows_linearly_with_a_long_trace():
    # on one a (b c)^k d trace every node is its own row; a whole source
    # prefix per row would peak at about 62 MiB for these 4,000 events,
    # one node per row at about 0.5 MiB
    trace = ("a",) + ("b", "c") * 1999 + ("d",)
    pc = prefix_closure(*use_transform(EventLog(traces={trace: 1})))
    pc.numbering  # the closure's own cached numbering is not measured here
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cs = build_constraint_system(pc)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(cs.inequality_rows) == 4002
    assert peak < 2 * 2**20


def test_lp_text_renders(pc_l1):
    cs = build_constraint_system(pc_l1)
    inst = instantiate_causal_ilp(cs, "a", "b")
    text = lp_text(inst, pc_l1)
    assert text.startswith("minimize")
    assert f" >= 0  ; <{pc_l1.start},a>\n" in text
    assert "x(a) = 1" in text
    assert ">= 1" in text


logs_with_counts = st.lists(
    st.tuples(
        st.lists(st.sampled_from("abcd"), max_size=5).map(tuple),
        st.integers(min_value=1, max_value=9),
    ),
    min_size=1,
    max_size=6,
)


@given(logs_with_counts, st.booleans())
def test_encoding_table_matches_sequence_encoding(pairs, wrapped):
    log = EventLog.from_pairs(pairs)
    pc = prefix_closure(*use_transform(log)) if wrapped else prefix_closure(log)
    alphabet = pc.ordered_alphabet()
    prefixes = list(pc.entries)
    assert prefixes == sorted(pc.entries, key=lambda t: (len(t), t))
    rows = [pc.numbering.vertices[v] for v in pc.numbering.vertex_ids]
    for trace, row in zip(prefixes, rows, strict=True):
        assert row == sequence_encoding(trace, alphabet)


@given(logs_with_counts, st.data())
def test_filtered_equalities_follow_the_per_cut_rule(pairs, data):
    # any retained subset, also one the sweep cannot produce (a row kept
    # without its parent's): a trace keeps its equality row exactly when
    # the row of every non-empty cut of it is retained
    use, start, end = use_transform(EventLog.from_pairs(pairs))
    pc = prefix_closure(use, start, end)
    alphabet = pc.ordered_alphabet()
    n = len(alphabet)
    full = build_constraint_system(pc)
    vectors = sorted({row.vector for row in full.inequality_rows})
    flags = data.draw(
        st.lists(st.booleans(), min_size=len(vectors), max_size=len(vectors))
    )
    retained = {vector for vector, flag in zip(vectors, flags) if flag}
    # an equality row's node is the first full trace of its group
    node_of = {prefix: node for node, prefix in enumerate(pc.entries)}
    groups: dict = {}
    for trace in sorted(use.traces, key=lambda t: (len(t), t)):
        cuts = range(1, len(trace) + 1)
        if all(sequence_encoding(trace[:cut], alphabet) in retained for cut in cuts):
            whole = sequence_encoding(trace, alphabet)[n + 1 :]
            vector = (1,) + tuple(-c for c in whole) + whole
            node, weight = groups.get(vector, (node_of[trace], 0))
            groups[vector] = (node, weight + use.traces[trace])
    system = build_constraint_system(pc, map(pc.numbering.vertices.index, retained))
    assert system.equality_rows == tuple(
        Row(vector, node, weight) for vector, (node, weight) in groups.items()
    )
    assert system.inequality_rows == tuple(
        row for row in full.inequality_rows if row.vector in retained
    )


# few activities and long traces, so that distinct prefixes often share a
# row (equal Parikh vector before the same last activity) and rows merge
merging_logs = st.lists(
    st.tuples(
        st.lists(st.sampled_from("abc"), max_size=6).map(tuple),
        st.integers(min_value=1, max_value=9),
    ),
    min_size=1,
    max_size=8,
)


def _closure(pairs, wrapped):
    log = EventLog.from_pairs(pairs)
    return prefix_closure(*use_transform(log)) if wrapped else prefix_closure(log)


@given(merging_logs, st.booleans(), st.data())
def test_numbering_matches_hashing_each_node_row(pairs, wrapped, data):
    # the reference hashes sequence_encoding once per node
    pc = _closure(pairs, wrapped)
    alphabet = pc.ordered_alphabet()
    prefixes = list(pc.entries)
    rows = [sequence_encoding(prefix, alphabet) for prefix in prefixes]
    numbering = pc.numbering
    # a bijection: a vertex id names exactly one row and a Parikh id
    # exactly one Parikh vector, each numbered at its first node
    assert len(set(numbering.vertices)) == len(numbering.vertices)
    assert [numbering.vertices[v] for v in numbering.vertex_ids] == rows
    assert list(numbering.first_nodes) == [
        rows.index(vertex) for vertex in numbering.vertices
    ]
    vectors = [parikh(prefix, alphabet) for prefix in prefixes]
    by_id = dict(zip(numbering.parikh_ids, vectors))
    assert [by_id[p] for p in numbering.parikh_ids] == vectors
    assert len(set(by_id.values())) == len(by_id) == max(numbering.parikh_ids) + 1

    vertex_weight, children = {}, {}
    for row, parent, freq in zip(rows, pc.parents, pc.frequencies):
        vertex_weight[row] = vertex_weight.get(row, 0) + freq
        children.setdefault(row, {})
        if parent >= 0:
            arcs = children[rows[parent]]
            arcs[row] = arcs.get(row, 0) + freq
    graph = build_graph(pc)
    assert graph.vertices == numbering.vertices and graph.vertices[0] == rows[0]
    assert list(zip(graph.vertices, graph.vertex_weight)) == list(vertex_weight.items())
    assert [
        (graph.vertices[v], [(graph.vertices[w], weight) for w, weight in arcs.items()])
        for v, arcs in enumerate(graph.children)
    ] == [(v, list(arcs.items())) for v, arcs in children.items()]

    def reference_sweep(alpha):
        # the kappa_max sweep on the row-keyed graph
        retained, queue, enqueued = set(), [rows[0]], {rows[0]}
        while queue:
            arcs = children[queue.pop(0)]
            bound = (1.0 - alpha) * max(arcs.values(), default=0)
            for child, weight in arcs.items():
                if weight >= bound:
                    retained.add(child)
                    if child not in enqueued:
                        enqueued.add(child)
                        queue.append(child)
        return retained

    # an inequality row's node is the first node with that row
    groups: dict = {}
    for node, row, freq in zip(range(1, len(rows)), rows[1:], pc.frequencies[1:]):
        first, weight = groups.get(row, (node, 0))
        groups[row] = (first, weight + freq)
    row_of = dict(zip(prefixes, rows))
    n = len(alphabet)

    def reference_rows(retained):
        # a full trace keeps its equality row when every cut's row survived;
        # the row's node is the first full trace of its group
        equalities: dict = {}
        for node, (prefix, mult) in enumerate(zip(prefixes, pc.multiplicities)):
            cuts = (prefix[:cut] for cut in range(1, len(prefix) + 1))
            if mult and (retained is None or all(row_of[c] in retained for c in cuts)):
                tail = row_of[prefix][n + 1 :]
                vector = (1,) + tuple(-c for c in tail) + tail
                first, weight = equalities.get(vector, (node, 0))
                equalities[vector] = (first, weight + mult)
        inequalities = {
            vector: value
            for vector, value in groups.items()
            if retained is None or vector in retained
        }
        return tuple(
            tuple(Row(vector, *value) for vector, value in kept.items())
            for kept in (inequalities, equalities)
        )

    distinct = sorted(set(rows[1:]))
    size = len(distinct)
    flags = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
    drawn = {vector for vector, flag in zip(distinct, flags) if flag}
    subsets = [None, {numbering.vertices.index(vector) for vector in drawn}]
    for alpha in (0.0, 0.5, 0.75, 1.0):
        retained = sef_bfs(graph, make_kappa_max(graph, alpha))
        assert {graph.vertices[v] for v in retained} == reference_sweep(alpha)
        subsets.append(retained)
    for subset in subsets:
        system = build_constraint_system(pc, subset)
        rows_kept = None if subset is None else {graph.vertices[v] for v in subset}
        expected = reference_rows(rows_kept)
        assert (system.inequality_rows, system.equality_rows) == expected


def _first_violated_prefix(pc, vector):
    alphabet = pc.ordered_alphabet()
    for prefix in list(pc.entries)[1:]:
        row = sequence_encoding(prefix, alphabet)
        if sum(r * v for r, v in zip(row, vector)) < 0:
            return False, prefix
    return True, None


@given(merging_logs, st.booleans(), st.data())
def test_check_region_matches_the_per_node_reference(pairs, wrapped, data):
    pc = _closure(pairs, wrapped)
    n = len(pc.ordered_alphabet())
    width = 2 * n + 1
    drawn = data.draw(st.lists(st.integers(0, 1), min_size=width, max_size=width))
    # consuming from every activity and producing nothing violates the
    # first non-empty prefix already
    consuming = [0] * (n + 1) + [1] * n
    for vector in (drawn, consuming):
        expected = _first_violated_prefix(pc, vector)
        assert check_region(RegionCandidate.from_vector(vector), pc) == expected
    prefixes = list(pc.entries)
    if len(prefixes) > 1:
        assert _first_violated_prefix(pc, consuming) == (False, prefixes[1])
