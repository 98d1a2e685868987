import os
import re
import subprocess
import sys
from xml.sax import saxutils

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from regionminer.errors import ParseError, ReplayError
from regionminer.eventlog import EventLog
from regionminer.petri import (
    PetriNet,
    WorkflowNet,
    enabled,
    escape,
    explore_state_space,
    export_dot,
    export_pnml,
    fire,
    is_wf_net,
    parse_pnml,
    quoteattr,
    relaxed_soundness_by_exploration,
    relaxed_soundness_witnesses,
    replay,
)
from regionminer.quality import token_fitness

from .conftest import DATA


@pytest.fixture()
def w1():
    """The running example net: a then (b|c) parallel to d, then e, then
    either reinitiate through f or finish with g or h."""
    places = ["start", "c1", "c2", "c3", "c4", "c5", "end"]
    transitions = list("abcdefgh")
    arcs = [
        ("start", "a"),
        ("a", "c1"),
        ("a", "c2"),
        ("c1", "b"),
        ("c1", "c"),
        ("b", "c3"),
        ("c", "c3"),
        ("c2", "d"),
        ("d", "c4"),
        ("c3", "e"),
        ("c4", "e"),
        ("e", "c5"),
        ("c5", "f"),
        ("c5", "g"),
        ("c5", "h"),
        ("f", "c1"),
        ("f", "c2"),
        ("g", "end"),
        ("h", "end"),
    ]
    net = PetriNet(places, transitions, arcs, {t: t for t in transitions})
    return WorkflowNet(net=net, source="start", sink="end")


def test_fire_from_start(w1):
    marking = fire(w1.net, {"start": 1}, "a")
    assert marking == {"c1": 1, "c2": 1}


def test_fire_self_loop_keeps_token():
    net = PetriNet(
        ["p"], ["t"], [("p", "t"), ("t", "p")], {"t": "t"}
    )
    assert fire(net, {"p": 1}, "t") == {"p": 1}


def test_fire_disabled_raises(w1):
    assert not enabled(w1.net, {"start": 1}, "b")
    with pytest.raises(ValueError):
        fire(w1.net, {"start": 1}, "b")


def test_replay_w1_variants(w1, l1):
    for trace in l1.traces:
        result = replay(w1, trace)
        assert result.ok, (trace, result)
        assert result.final_marking == {"end": 1}


def test_replay_blocked_reports_index(w1):
    result = replay(w1, ("a", "g"))
    assert not result.ok
    assert result.blocked_at == 1


def test_replay_unknown_label(w1):
    with pytest.raises(ReplayError):
        replay(w1, ("a", "z"))


def test_replay_ambiguous_label():
    net = PetriNet(
        ["p", "q"],
        ["t1", "t2"],
        [("p", "t1"), ("p", "t2"), ("t1", "q"), ("t2", "q")],
        {"t1": "a", "t2": "a"},
    )
    with pytest.raises(ReplayError):
        replay(WorkflowNet(net=net, source="p", sink="q"), ("a",))


def test_replay_checks_every_label_up_front(w1):
    # the trace blocks at index 1, before the unknown label is reached
    with pytest.raises(ReplayError, match="z"):
        replay(w1, ("a", "g", "z"))


def test_replay_rejects_a_duplicated_label_it_does_not_use(w1):
    net = PetriNet(
        w1.net.places,
        w1.net.transitions | {"g2"},
        w1.net.arcs | {("c5", "g2"), ("g2", "end")},
        {**w1.net.labels, "g2": "g"},
    )
    wf = WorkflowNet(net=net, source="start", sink="end")
    with pytest.raises(ReplayError, match="ambiguous"):
        replay(wf, ("a", "b", "d", "e", "h"))


def test_silent_walk_fires_at_most_one_more_than_the_transitions(silent_cycle):
    result = replay(silent_cycle, ("a",))
    assert not result.ok and result.blocked_at == 0
    # |T| + 1 = 5 firings, and fired lists only those that happened
    assert result.fired == ("ts", "tl", "tl", "tl", "tl")
    assert result.final_marking == {"p": 1}
    assert replay(silent_cycle, ("f", "a")).fired == ("ts", "tf", "ta")


def test_fitness_uses_the_same_hop_bound(silent_cycle):
    log = EventLog(traces={("a",): 1, ("f", "a"): 1})
    # <a>: ts and four tl, q inserted, ta, then five tl before the walk
    # gives up: 12 produced, 12 consumed, 1 missing, 1 remaining on p.
    # <f, a>: 4 produced and consumed. Together 1 - 1/16.
    assert token_fitness(silent_cycle, log) == 0.9375


def test_replay_fires_silents_implicitly():
    net = PetriNet(
        ["pi", "p1", "p2", "po"],
        ["ts", "ta", "tf"],
        [("pi", "ts"), ("ts", "p1"), ("p1", "ta"), ("ta", "p2"), ("p2", "tf"), ("tf", "po")],
        {"ts": None, "ta": "a", "tf": None},
    )
    wf = WorkflowNet(net=net, source="pi", sink="po")
    result = replay(wf, ("a",))
    assert result.ok and result.final_marking == {"po": 1}
    assert result.fired == ("ts", "ta", "tf")


def test_replay_empty_trace_blocked_when_chain_cannot_complete():
    net = PetriNet(
        ["pi", "p1", "p2", "po"],
        ["ts", "ta", "tf"],
        [("pi", "ts"), ("ts", "p1"), ("p1", "ta"), ("ta", "p2"), ("p2", "tf"), ("tf", "po")],
        {"ts": None, "ta": "a", "tf": None},
    )
    wf = WorkflowNet(net=net, source="pi", sink="po")
    result = replay(wf, ())
    assert not result.ok
    assert result.blocked_at == 0


def test_is_wf_net_w1(w1):
    ok, violations = is_wf_net(w1.net, "start", "end")
    assert ok, violations


def test_is_wf_net_rejects_second_sink(w1):
    net = PetriNet(
        w1.net.places | {"end2"},
        w1.net.transitions,
        w1.net.arcs | {("g", "end2")},
        w1.net.labels,
    )
    ok, violations = is_wf_net(net, "start", "end")
    assert not ok
    assert "end2" in violations


def test_is_wf_net_reports_isolated_transition(w1):
    net = PetriNet(
        w1.net.places,
        w1.net.transitions | {"t_iso"},
        w1.net.arcs,
        {**w1.net.labels, "t_iso": "iso"},
    )
    ok, violations = is_wf_net(net, "start", "end")
    assert not ok
    assert "t_iso" in violations


def _with_arcs(wfnet, *arcs):
    net = wfnet.net
    return PetriNet(net.places, net.transitions, net.arcs | set(arcs), net.labels)


def test_is_wf_net_rejects_arc_into_source(w1):
    ok, violations = is_wf_net(_with_arcs(w1, ("h", "start")), "start", "end")
    assert not ok
    assert "source has incoming arcs: ['h']" in violations


def test_is_wf_net_rejects_arc_out_of_sink(w1):
    ok, violations = is_wf_net(_with_arcs(w1, ("end", "a")), "start", "end")
    assert not ok
    assert "sink has outgoing arcs: ['a']" in violations


def test_is_wf_net_rejects_missing_boundary_place(w1):
    assert is_wf_net(w1.net, "start", "nowhere") == (
        False,
        ["missing boundary place start/nowhere"],
    )
    assert is_wf_net(w1.net, "nowhere", "end") == (
        False,
        ["missing boundary place nowhere/end"],
    )


def test_is_wf_net_rejects_source_equal_to_sink(w1):
    assert is_wf_net(w1.net, "start", "start") == (False, ["source equals sink"])


def test_witnesses_cover_w1(w1, l1):
    witnesses = relaxed_soundness_witnesses(w1, l1)
    assert all(witnesses[t] is not None for t in w1.net.transitions)


def test_witness_missing_for_unreplayable_transition(w1, l1):
    # x is reachable structurally but never appears in the log
    net = PetriNet(
        w1.net.places,
        w1.net.transitions | {"x"},
        w1.net.arcs | {("c5", "x"), ("x", "end")},
        {**w1.net.labels, "x": "x"},
    )
    wf = WorkflowNet(net=net, source="start", sink="end")
    witnesses = relaxed_soundness_witnesses(wf, l1)
    assert witnesses["x"] is None
    assert witnesses["a"] is not None


def test_explore_state_space_w1(w1):
    graph = explore_state_space(w1.net, {"start": 1})
    assert graph.complete
    assert len(graph.markings) >= 6
    assert relaxed_soundness_by_exploration(w1) == "sound"


def test_explore_single_place():
    net = PetriNet(["p"], [], [], {})
    graph = explore_state_space(net, {"p": 1})
    assert graph.complete and len(graph.markings) == 1


def test_explore_unbounded_net_is_undecided():
    net = PetriNet(["p", "q"], ["t"], [("t", "p"), ("p", "t"), ("t", "q")], {"t": "t"})
    graph = explore_state_space(net, {"p": 1}, bound=20)
    assert not graph.complete


def test_exploration_flags_unsound_net(w1):
    # a transition whose input place can never be marked
    net = PetriNet(
        w1.net.places | {"dead"},
        w1.net.transitions | {"x"},
        w1.net.arcs | {("dead", "x"), ("x", "end")},
        {**w1.net.labels, "x": "x"},
    )
    wf = WorkflowNet(net=net, source="start", sink="end")
    assert relaxed_soundness_by_exploration(wf) == "unsound"
    witnesses = relaxed_soundness_witnesses(wf, EventLog(traces={("a", "b", "d", "e", "g"): 1}))
    assert witnesses["x"] is None


def test_pnml_round_trip(w1):
    data = export_pnml(w1)
    back = parse_pnml(data)
    assert back.net == w1.net
    assert (back.source, back.sink) == (w1.source, w1.sink)


def test_pnml_round_trip_with_silents():
    net = PetriNet(
        ["pi", "p1", "po"],
        ["ts", "ta"],
        [("pi", "ts"), ("ts", "p1"), ("p1", "ta"), ("ta", "po")],
        {"ts": None, "ta": "a"},
    )
    wf = WorkflowNet(net=net, source="pi", sink="po")
    back = parse_pnml(export_pnml(wf))
    assert back.net.labels == {"ts": None, "ta": "a"}


def test_pnml_export_is_byte_stable(w1):
    assert export_pnml(w1) == export_pnml(w1)


def test_pnml_rejects_non_wfnet():
    doc = (
        "<pnml><net><page>"
        '<place id="p1"/><place id="p2"/>'
        '<transition id="t"><name><text>a</text></name></transition>'
        '<arc id="a1" source="t" target="p1"/>'
        '<arc id="a2" source="t" target="p2"/>'
        "</page></net></pnml>"
    )
    with pytest.raises(ParseError):
        parse_pnml(doc)


def test_pnml_rejects_garbage():
    with pytest.raises(ParseError):
        parse_pnml(b"<pnml><net>")


def test_dot_output_shape(w1):
    dot = export_dot(w1)
    assert dot.startswith("digraph wfnet {")
    assert dot.rstrip().endswith("}")
    assert dot.count("&bull;") == 1  # one token on the source place
    # every body line is a node or edge statement ending in a semicolon
    body = dot.splitlines()[1:-1]
    for line in body:
        assert re.fullmatch(r"\s+(rankdir=LR;|\S.*;)", line), line
    assert dot.count("{") == dot.count("}")


_XML_TEXT = st.text(
    alphabet=st.sampled_from(list("&<>\"'\n\r\tab ") + ["é", "ß", "λ", "中", "😀"]),
    max_size=12,
)


# one example per quote character quoteattr can choose
@example("a'b")
@example('a"b')
@example("\"'<&>\n\r\t中😀")
@given(_XML_TEXT)
def test_escapes_match_saxutils(text):
    assert escape(text) == saxutils.escape(text)
    assert quoteattr(text) == saxutils.quoteattr(text)


def test_import_leaves_sax_and_urllib_unloaded():
    # the PNML escapes are local: xml.sax.saxutils would load urllib.request,
    # http.client, email and ssl on every start
    script = "\n".join(
        [
            "import sys",
            "import regionminer",
            "from regionminer.petri import export_pnml, parse_pnml",
            f"export_pnml(parse_pnml(open({str(DATA / 'l1_unfiltered.pnml')!r}, 'rb').read()))",
            "print(*sorted({'xml.sax', 'urllib.request'} & set(sys.modules)))",
        ]
    )
    path = [str(DATA.parent.parent / "src"), os.environ.get("PYTHONPATH")]
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
