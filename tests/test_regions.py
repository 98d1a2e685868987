import pytest
from hypothesis import given
from hypothesis import strategies as st

from regionminer.eventlog import EventLog, prefix_closure, use_transform
from regionminer.regions import (
    residency_vector,
    RegionCandidate,
    build_constraint_system,
    check_region,
    encoding_shorthand,
    instantiate_causal_ilp,
    lp_text,
    objective_vector,
    sequence_encoding,
)


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
    assert first.source == (start,)
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


def test_residency_single_trace():
    use, start, end = use_transform(EventLog(traces={("a",): 1}))
    pc = prefix_closure(use, start, end)
    # three prefix rows of weight 1 each, plus the marking penalty
    assert residency_vector(pc)[0] == 4


def test_residency_y_end_counts_traces(pc_l1):
    cs = build_constraint_system(pc_l1)
    res = residency_vector(pc_l1)
    assert res[cs.y_index(pc_l1.end)] == -55


def test_residency_x_nonnegative_y_nonpositive(pc_l1):
    cs = build_constraint_system(pc_l1)
    res = residency_vector(pc_l1)
    n = cs.n_activities
    assert all(c >= 0 for c in res[1 : n + 1])
    assert all(c <= 0 for c in res[n + 1 :])


def test_objective_is_arc_primary_with_residency_tiebreak():
    use, start, end = use_transform(EventLog(traces={("a",): 1}))
    pc = prefix_closure(use, start, end)
    cs = build_constraint_system(pc)
    res = residency_vector(pc)
    # unit = 2 + sum of weight * (1 + prefix length) over the three rows
    unit = 2 + (1 * 1 + 1 * 2 + 1 * 3)
    assert objective_vector(pc) == cs.objective == tuple(unit + r for r in res)
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
    cs = build_constraint_system(pc_l1_prime)
    inst = instantiate_causal_ilp(cs, "a", "b")
    (seed,) = inst.seeds
    candidate = RegionCandidate.from_vector(seed)
    ok, violated = check_region(candidate, pc_l1_prime)
    assert ok, violated
    # seed honours the fixings
    assert all(seed[i] == v for i, v in inst.fixings.items())


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
    use, start, end = use_transform(EventLog.from_traces(raw))
    pc = prefix_closure(use, start, end)
    n = len(pc.ordered_alphabet())
    zero = RegionCandidate(0, (0,) * n, (0,) * n)
    one = RegionCandidate(1, (1,) * n, (1,) * n)
    assert check_region(zero, pc) == (True, None)
    assert check_region(one, pc) == (True, None)


def test_check_region_dimension_mismatch(pc_l1):
    with pytest.raises(ValueError):
        check_region(RegionCandidate(0, (0,), (0,)), pc_l1)


def test_retained_vectors_must_exist(pc_l1):
    bogus = (1,) + (9,) * 20
    with pytest.raises(ValueError):
        build_constraint_system(pc_l1, retained={bogus})


def test_lp_text_renders(pc_l1):
    cs = build_constraint_system(pc_l1)
    inst = instantiate_causal_ilp(cs, "a", "b")
    text = lp_text(inst)
    assert text.startswith("minimize")
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
    table = pc.encodings
    assert list(table) == sorted(pc.entries, key=lambda t: (len(t), t))
    for trace, row in table.items():
        assert row == sequence_encoding(trace, alphabet)
