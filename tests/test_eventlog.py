import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from regionminer import eventlog
from regionminer.causal import build_causal_graph
from regionminer.errors import ParseError
from regionminer.eventlog import (
    EventLog,
    ordered_alphabet,
    parikh,
    parse_trace_log,
    parse_xes,
    prefix_closure,
    serialize_trace_log,
    use_transform,
)

from .conftest import DATA


def test_parse_l1(l1):
    assert l1.traces[("a", "b", "d", "e", "g")] == 10
    assert l1.traces[("a", "c", "d", "e", "f", "d", "b", "e", "g")] == 12
    assert l1.traces[("a", "d", "c", "e", "h")] == 9
    assert l1.traces[("a", "b", "d", "e", "f", "c", "d", "e", "g")] == 11
    assert l1.traces[("a", "d", "c", "e", "f", "b", "d", "e", "h")] == 13
    assert l1.alphabet == frozenset("abcdefgh")
    assert l1.total_instances == 55


def test_parse_empty_input():
    log = parse_trace_log("")
    assert log.is_empty()
    assert log.alphabet == frozenset()


def test_parse_sums_duplicate_lines():
    log = parse_trace_log("2;a b\n1;a b")
    assert log.traces == {("a", "b"): 3}


@pytest.mark.parametrize("text", ["a b\n", "10;a b\n"])
def test_parse_ignores_a_leading_byte_order_mark(text):
    assert parse_trace_log("\ufeff" + text) == parse_trace_log(text)


def test_parse_count_defaults_to_one():
    log = parse_trace_log("a b c")
    assert log.traces == {("a", "b", "c"): 1}


@pytest.mark.parametrize(
    "text", ["0;a b", "-3;a b", "x;a b", "2.5;a b", "1_0;a b", "\u0663;a b", "+2;a b"]
)
def test_parse_rejects_bad_counts(text):
    with pytest.raises(ParseError) as exc:
        parse_trace_log(text)
    assert exc.value.line == 1


def test_parse_rejects_semicolon_in_activity():
    with pytest.raises(ParseError):
        parse_trace_log("2;a b;c")


def test_parse_splits_lines_at_lf_only():
    # U+2028 is whitespace inside a line, not a line break
    assert parse_trace_log("3;a\u2028b c\n").traces == {("a", "b", "c"): 3}
    # a lone CR ends no line, so "2;c" is a token of line 1
    with pytest.raises(ParseError, match="'2;c'") as exc:
        parse_trace_log("1;a b\r2;c\n")
    assert exc.value.line == 1


def test_parse_crlf_equals_lf(l1_text):
    assert "\r" not in l1_text
    assert parse_trace_log(l1_text.replace("\n", "\r\n")) == parse_trace_log(l1_text)


def test_parse_error_line_counts_lf_only():
    with pytest.raises(ParseError) as exc:
        parse_trace_log("a\x0bb\x0cc\x1cd\x85e\u2029f\nx;y\n")
    assert exc.value.line == 2


bad_tokens = st.sampled_from(["x\x01", "\x00", "\ud800", "b\ufffe", "\uffff"])
good_lines = st.lists(st.sampled_from("abcde"), min_size=1, max_size=4).map(" ".join)


@given(good_lines, good_lines, bad_tokens)
def test_parse_reports_the_first_line_of_a_repeated_bad_token(first, middle, bad):
    # line 1 accepts valid names first; the bad token sits on lines 2 and 4
    text = f"{first}\n{middle} {bad}\n{middle}\n{bad} {first}\n"
    with pytest.raises(ParseError) as exc:
        parse_trace_log(text)
    assert exc.value.line == 2
    assert repr(bad) in str(exc.value)


@given(st.lists(good_lines, min_size=1, max_size=5), bad_tokens)
def test_parse_checks_names_afresh_on_every_call(lines, bad):
    text = "\n".join(lines)
    checked = []
    for _ in range(2):
        with mock.patch.object(
            eventlog, "is_activity_name", wraps=eventlog.is_activity_name
        ) as check:
            parse_trace_log(text)
        checked.append(Counter(call.args[0] for call in check.call_args_list))
    # each call checks every distinct name twice: once where the parser
    # first meets it and once more in EventLog; the second call as well
    names = set(text.split())
    assert checked == [Counter(dict.fromkeys(names, 2))] * 2
    for _ in range(2):
        with pytest.raises(ParseError):
            parse_trace_log(f"{text} {bad}")


def test_multiplicity_must_be_positive():
    with pytest.raises(ValueError):
        EventLog(traces={("a",): 0})


def test_serialize_round_trip(l1):
    assert parse_trace_log(serialize_trace_log(l1)) == l1


traces_strategy = st.lists(
    st.tuples(
        st.lists(st.sampled_from("abcde"), max_size=6).map(tuple),
        st.integers(min_value=1, max_value=9),
    ),
    max_size=8,
)


@given(traces_strategy)
def test_serialize_round_trip_property(pairs):
    log = EventLog.from_pairs(pairs)
    assert parse_trace_log(serialize_trace_log(log)) == log


def test_parse_xes_merges_identical_traces():
    doc = (
        '<log xmlns="http://www.xes-standard.org/">'
        '<trace><event><string key="concept:name" value="a"/></event>'
        '<event><string key="concept:name" value="b"/></event></trace>'
        '<trace><event><string key="concept:name" value="a"/></event>'
        '<event><string key="concept:name" value="b"/></event></trace>'
        "</log>"
    )
    log = parse_xes(doc)
    assert log.traces == {("a", "b"): 2}


def test_parse_xes_zero_traces():
    assert parse_xes("<log></log>").is_empty()


def test_parse_xes_fixture_matches_hand_count():
    # hand-parsed: case1 = <a,b,c>, case2 = <a,b>, case3 = <a,b,c>
    log = parse_xes((DATA / "small.xes").read_bytes())
    assert log.traces == {("a", "b", "c"): 2, ("a", "b"): 1}
    assert log.alphabet == frozenset("abc")


def test_parse_xes_rejects_malformed_xml():
    with pytest.raises(ParseError):
        parse_xes("<log><trace>")


def test_parse_xes_event_without_name_names_trace():
    doc = "<log><trace><event/></trace></log>"
    with pytest.raises(ParseError, match="trace 1"):
        parse_xes(doc)


def test_parikh_counts():
    alphabet = tuple("abcdefgh")
    vec = parikh(("a", "d", "c", "e", "f", "b", "d", "e", "h"), alphabet)
    assert vec == (1, 1, 1, 2, 2, 1, 0, 1)


def test_parikh_empty_trace_is_zero():
    assert parikh((), tuple("abcd")) == (0, 0, 0, 0)


def test_parikh_random_trace_sums_to_length():
    import random

    rng = random.Random(7)
    trace = tuple(rng.choice("wxyz") for _ in range(12))
    # independent oracle: direct counting
    assert sum(parikh(trace, tuple("wxyz"))) == len(trace) == 12


def test_parikh_rejects_foreign_activity():
    with pytest.raises(ValueError):
        parikh(("a", "z"), tuple("abc"))


def test_use_transform_l1(l1):
    use, start, end = use_transform(l1)
    # 10 + 12 + 9 + 11 + 13 instances survive the wrap
    assert use.total_instances == 55
    assert start not in l1.alphabet and end not in l1.alphabet
    assert all(t[0] == start and t[-1] == end for t in use.traces)
    # the prefix tree passes the unique-start/end check
    assert build_causal_graph(prefix_closure(use, start, end)).start == start


def test_use_transform_single_trace():
    use, start, end = use_transform(EventLog(traces={("a",): 1}))
    assert use.traces == {(start, "a", end): 1}


def test_use_transform_disambiguates_reserved_names():
    log = EventLog(traces={("__start__", "__end__"): 1})
    use, start, end = use_transform(log)
    assert start not in log.alphabet and end not in log.alphabet
    assert start != end
    assert build_causal_graph(prefix_closure(use, start, end)).end == end


def test_use_transform_rejects_empty():
    with pytest.raises(ValueError):
        use_transform(EventLog(traces={}))


def test_prefix_closure_example():
    log = EventLog(traces={("a", "b"): 5, ("a", "c"): 3})
    pc = prefix_closure(log)
    assert pc.entries == {(): 8, ("a",): 8, ("a", "b"): 5, ("a", "c"): 3}


def test_prefix_closure_single_trace():
    pc = prefix_closure(EventLog(traces={("a",): 1}))
    assert pc.entries == {(): 1, ("a",): 1}


def test_prefix_closure_l1_prime_frequencies(l1_prime):
    use, start, end = use_transform(l1_prime)
    pc = prefix_closure(use, start, end)
    assert pc.entries[(start, "a")] == 56
    assert pc.entries[(start, "a", "b")] == 22
    assert pc.entries[(start, "a", "b", "c")] == 1
    assert pc.total_instances == 56


@given(traces_strategy.filter(lambda p: len(p) > 0), st.booleans(), st.data())
def test_prefix_closure_recurrence_property(pairs, wrapped, data):
    log = EventLog.from_pairs(pairs)
    if wrapped:
        log, start, end = use_transform(log)
        pc = prefix_closure(log, start, end)
    else:
        pc = prefix_closure(log)
    # recurrence: freq(t) = own multiplicity + sum of one-step extensions
    for trace, freq in pc.entries.items():
        own = log.traces.get(trace, 0)
        extensions = sum(
            pc.entries[trace + (a,)]
            for a in pc.alphabet
            if trace + (a,) in pc.entries
        )
        assert freq == own + extensions
    # closed under prefixes
    for trace in pc.entries:
        if trace:
            assert trace[:-1] in pc.entries
    assert pc.total_instances == log.total_instances
    # the tree: nodes in (length, prefix) order, each parent its prefix
    # minus the last event, each multiplicity the log's
    prefixes = list(pc.entries)
    assert prefixes == sorted(pc.entries, key=lambda t: (len(t), t))
    nodes = zip(prefixes, pc.parents, pc.frequencies, pc.multiplicities, strict=True)
    for prefix, parent, freq, mult in nodes:
        assert parent == (prefixes.index(prefix[:-1]) if prefix else -1)
        assert freq == pc.entries[prefix]
        assert mult == log.traces.get(prefix, 0)
    # rendering equals concatenating each parent's tuple with the node's
    # last activity, for any nodes in any order
    concatenated = [()]
    for parent, last in zip(pc.parents[1:], pc.lasts[1:], strict=True):
        concatenated.append(concatenated[parent] + (last,))
    assert prefixes == concatenated
    indices = st.integers(0, len(prefixes) - 1)
    for nodes in (data.draw(st.lists(indices)), range(len(prefixes) - 1, -1, -1)):
        rendered = pc.render(nodes)
        assert set(rendered) == {0, *nodes}
        assert all(rendered[node] == concatenated[node] for node in rendered)


def test_prefix_closure_grows_linearly_with_a_long_trace():
    # one prefix tuple per node would keep about 61 MiB for these 4,000
    # events; one parent and one activity per node keep about 0.24 MiB
    log = EventLog(traces={("a", "b", "c") * 1333 + ("a",): 1})
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pc = prefix_closure(log)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(pc.parents) == 4001
    assert kept < 2 * 2**20


@given(traces_strategy.filter(lambda p: len(p) > 0))
def test_prefix_closure_idempotent_on_support(pairs):
    log = EventLog.from_pairs(pairs)
    pc = prefix_closure(log)
    reclosed = prefix_closure(EventLog(traces=dict(pc.entries)))
    assert set(reclosed.entries) == set(pc.entries)


def test_ordered_alphabet_layout():
    order = ordered_alphabet({"b", "s", "a", "e"}, start="s", end="e")
    assert order == ("s", "a", "b", "e")
    assert ordered_alphabet({"b", "a"}) == ("a", "b")


def test_event_log_rejects_invalid_activity_names():
    with pytest.raises(ValueError):
        EventLog(traces={("a b",): 1})
    with pytest.raises(ValueError):
        EventLog(traces={("a;b",): 1})
    with pytest.raises(ValueError):
        EventLog(traces={("",): 1})
    # code points XML 1.0 cannot carry, which PNML export would emit
    for name in ("a\x01b", "\x1f", "\ud800", "a\ufffe", "\uffff"):
        with pytest.raises(ValueError):
            EventLog(traces={(name,): 1})
    with pytest.raises(ValueError):
        EventLog(traces={}, alphabet=frozenset({"a b"}))
    assert EventLog(traces={("<é&>\"'\x7f",): 1}).alphabet == {"<é&>\"'\x7f"}
