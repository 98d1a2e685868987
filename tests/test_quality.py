import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regionminer.discovery import DiscoveryOptions, discover
from regionminer.errors import ReplayError
from regionminer.eventlog import EventLog
from regionminer.petri import PetriNet, WorkflowNet, replay
from regionminer import quality
from regionminer.quality import (
    QualityReport,
    escaping_edges_precision,
    evaluate,
    inject_noise,
    token_fitness,
)

from .util import oracle_evaluate, visible_labels


@pytest.fixture(scope="module")
def l1_net(l1):
    return discover(l1, DiscoveryOptions(alpha=None))


def test_fitness_of_discovery_is_perfect(l1, l1_net):
    assert token_fitness(l1_net, l1) == 1.0


def test_fitness_degenerate_empty_net():
    net = PetriNet(["source", "sink"], [], [], {})
    wf = WorkflowNet(net=net, source="source", sink="sink")
    log = EventLog.from_pairs([((), 1)])
    # nothing is ever consumed; both terms degrade to zero contribution
    assert token_fitness(wf, log) == 0.0


@pytest.fixture()
def missing_token_net():
    """g's input place is never fed, so every <.., g, ..> inserts a token."""
    net = PetriNet(
        ["source", "p1", "pg", "sink"],
        ["ta", "tg"],
        [("source", "ta"), ("ta", "p1"), ("pg", "tg"), ("tg", "sink")],
        {"ta": "a", "tg": "g"},
    )
    return WorkflowNet(net=net, source="source", sink="sink")


def test_fitness_detects_missing_tokens(missing_token_net):
    log = EventLog(traces={("a", "g"): 1})
    # hand count: produced = 1 initial + 1 (ta) + 1 (tg) = 3, consumed =
    # 1 (ta) + 1 (tg) + 1 final = 3, missing = 1 (pg), remaining = 1 (p1)
    assert token_fitness(missing_token_net, log) == pytest.approx(2 / 3)
    assert token_fitness(missing_token_net, log) < 1


@pytest.fixture(scope="module")
def empty_trace_net():
    return discover(EventLog(traces={(): 1, ("a", "b"): 3, ("a", "c", "b"): 1}))


@pytest.fixture()
def silent_after_sink_net():
    """A silent transition drains the sink, so a walk can pass the final
    marking."""
    net = PetriNet(
        ["source", "sink", "px"],
        ["ta", "tx"],
        [("source", "ta"), ("ta", "sink"), ("sink", "tx"), ("tx", "px")],
        {"ta": "a", "tx": None},
    )
    return WorkflowNet(net=net, source="source", sink="sink")


def _report(fitness, precision, replayed, blocked, escaping, allowed):
    counts = {
        "replayed_traces": replayed,
        "blocked_traces": blocked,
        "escaping_mass": escaping,
        "allowed_mass": allowed,
    }
    return QualityReport(fitness=fitness, precision=precision, counts=counts)


@pytest.mark.parametrize(
    "net, traces, expected",
    [
        # <a> fires without insertion but leaves p1 marked, <a, g> inserts
        # after the shared prefix <a>, <g, a> inserts first and goes on
        (
            "missing_token_net",
            {("a",): 2, ("a", "g"): 1, ("g", "a"): 1},
            _report(0.55, 1.0, 0, 4, 0, 4),
        ),
        # <a> inserts after a walk cut by the hop bound
        ("silent_cycle", {("a",): 1, ("f", "a"): 1}, _report(0.9375, 1.0, 1, 1, 0, 3)),
        # the root of the prefix tree is itself a full trace
        (
            "empty_trace_net",
            {(): 2, ("a", "b"): 3, ("b",): 1},
            _report(0.9567226890756302, 0.6, 5, 1, 6, 15),
        ),
        # the end step stops at the first marking equal to the final one
        ("silent_after_sink_net", {("a",): 1}, _report(1.0, 1.0, 1, 0, 0, 1)),
    ],
)
def test_evaluate_pins_the_full_report(net, traces, expected, request):
    assert evaluate(request.getfixturevalue(net), EventLog(traces=traces)) == expected


def test_evaluate_inserts_into_an_empty_self_loop_place():
    # tb reads s and puts its token back; nothing ever marks s, so every
    # tb fires on an inserted token, which then stays on s to the end
    net = PetriNet(
        ["i", "p", "s", "o"],
        ["ta", "tb"],
        [("i", "ta"), ("ta", "p"), ("p", "tb"), ("s", "tb"), ("tb", "s"), ("tb", "o")],
        {"ta": "a", "tb": "b"},
    )
    wfnet = WorkflowNet(net=net, source="i", sink="o")
    log = EventLog(traces={("a", "b"): 2, ("a",): 1, ("b",): 1})
    # <a, b>: 4 produced, 4 consumed, s inserted and left over. <a>: p
    # left over, no sink token. <b>: p and s inserted, i and s left over.
    # Totals 13 produced, 12 consumed, 5 missing, 5 remaining; only the
    # root replays as it is, and allows just a.
    expected = _report(0.5 * (1 - 5 / 12) + 0.5 * (1 - 5 / 13), 1.0, 0, 4, 0, 4)
    assert evaluate(wfnet, log) == expected


def test_evaluate_runs_on_the_compiled_net(l1_prime, l1_net, monkeypatch):
    def refuse(*args):
        raise AssertionError("evaluate tested a dict marking")

    monkeypatch.setattr("regionminer.petri.enabled", refuse)
    counts = evaluate(l1_net, l1_prime).counts
    keys = ("replayed_traces", "blocked_traces", "escaping_mass", "allowed_mass")
    assert tuple(counts[key] for key in keys) == _EVALUATE_COUNTS["l1_prime"]


@pytest.mark.parametrize("score", [evaluate, token_fitness, escaping_edges_precision])
def test_scoring_an_empty_log_is_an_error(score, l1_net):
    with pytest.raises(ValueError, match="^cannot score an empty log$"):
        score(l1_net, EventLog(traces={}))


def test_fitness_errors_on_missing_labels(l1_net):
    log = EventLog(traces={("a", "zzz"): 1})
    with pytest.raises(ReplayError, match="zzz"):
        token_fitness(l1_net, log)


def test_precision_of_exact_sequence_net():
    log = EventLog(traces={("a", "b"): 1})
    net = discover(log)
    assert escaping_edges_precision(net, log) == 1.0


def _flower_net(labels):
    places = ["source", "pc", "sink"]
    transitions = {f"t_{a}": a for a in labels}
    arcs = [("source", "t_in"), ("t_in", "pc"), ("pc", "t_out"), ("t_out", "sink")]
    all_transitions = dict(transitions)
    all_transitions["t_in"] = None
    all_transitions["t_out"] = None
    for a in labels:
        arcs.append(("pc", f"t_{a}"))
        arcs.append((f"t_{a}", "pc"))
    net = PetriNet(places, all_transitions.keys(), arcs, all_transitions)
    return WorkflowNet(net=net, source="source", sink="sink")


def test_flower_net_is_less_precise(l1, l1_net):
    flower = _flower_net(sorted(l1.alphabet))
    assert escaping_edges_precision(flower, l1) < escaping_edges_precision(l1_net, l1)


def test_filtered_discovery_is_at_least_as_precise(l1, l1_prime):
    unfiltered = discover(l1_prime, DiscoveryOptions(alpha=None))
    filtered = discover(l1_prime, DiscoveryOptions(alpha=0.75))
    assert escaping_edges_precision(filtered, l1) >= escaping_edges_precision(
        unfiltered, l1
    )


def test_scale_invariance(l1, l1_net):
    tripled = EventLog(traces={t: 3 * c for t, c in l1.traces.items()})
    assert token_fitness(l1_net, tripled) == token_fitness(l1_net, l1)
    assert escaping_edges_precision(l1_net, tripled) == escaping_edges_precision(
        l1_net, l1
    )


def test_evaluate_report(l1, l1_net):
    report = evaluate(l1_net, l1)
    assert report.fitness == 1.0
    assert 0.0 <= report.precision <= 1.0
    assert report.counts["replayed_traces"] == 55
    assert report.counts["blocked_traces"] == 0
    text = report.as_text()
    assert text.startswith("fitness=1.000000\n")
    assert "precision=" in text


# replayed and blocked instances, escaping and allowed mass
_EVALUATE_COUNTS = {
    "l1": (55, 0, 245, 817),
    "l1_prime": (55, 1, 245, 822),
    "l1_noisy": (39, 16, 206, 747),
}


@pytest.mark.parametrize("name", ["l1", "l1_prime", "l1_noisy"])
def test_evaluate_matches_the_public_metrics(name, l1, l1_net, request):
    if name == "l1_noisy":
        log = inject_noise(l1, 0.3, seed=5)
    else:
        log = request.getfixturevalue(name)
    report = evaluate(l1_net, log)
    # exact: evaluate derives both from the same integer totals
    assert report.fitness == token_fitness(l1_net, log)
    assert report.precision == escaping_edges_precision(l1_net, log)
    keys = ("replayed_traces", "blocked_traces", "escaping_mass", "allowed_mass")
    assert tuple(report.counts[key] for key in keys) == _EVALUATE_COUNTS[name]
    assert report.counts["replayed_traces"] == sum(
        mult for trace, mult in log.traces.items() if replay(l1_net, trace).ok
    )


@st.composite
def _logs_and_seeds(draw):
    alphabet = draw(st.lists(st.sampled_from("abcde"), min_size=2, max_size=4, unique=True))
    trace = st.lists(st.sampled_from(alphabet), min_size=1, max_size=5)
    pairs = draw(st.lists(st.tuples(trace, st.integers(1, 5)), min_size=1, max_size=5))
    return EventLog.from_pairs(pairs), draw(st.integers(0, 2**16))


@settings(max_examples=25, deadline=None)
@given(_logs_and_seeds())
def test_evaluate_agrees_with_replay_on_noisy_logs(log_and_seed):
    log, seed = log_and_seed
    net = discover(log, DiscoveryOptions(alpha=0.75))
    noisy = inject_noise(log, 0.5, seed)
    counts = evaluate(net, noisy).counts
    # replay shares no state with evaluate's prefix-tree pass
    assert counts["replayed_traces"] == sum(
        mult for trace, mult in noisy.traces.items() if replay(net, trace).ok
    )
    assert counts["replayed_traces"] + counts["blocked_traces"] == noisy.total_instances
    assert 0 <= counts["escaping_mass"] <= counts["allowed_mass"]


@st.composite
def _nets_and_logs(draw):
    """A random net of up to six transitions on five places, each with
    any preset and postset (the empty preset too) and a silent or a
    unique visible label, sometimes with a two-silent cycle added; and a
    log over its visible labels."""
    places = ["i", "o", "p", "q", "r"]
    arcs, labels = [], {}
    for index in range(draw(st.integers(1, 6))):
        t = f"t{index}"
        arcs += [(p, t) for p in draw(st.sets(st.sampled_from(places), max_size=3))]
        arcs += [(t, p) for p in draw(st.sets(st.sampled_from(places), max_size=3))]
        labels[t] = draw(st.sampled_from([None, "abcdef"[index]]))
    if draw(st.booleans()):
        first, second = draw(st.lists(st.sampled_from(places), min_size=2, max_size=2))
        arcs += [(first, "s0"), ("s0", second), (second, "s1"), ("s1", first)]
        labels.update(s0=None, s1=None)
    net = PetriNet(places, labels, arcs, labels)
    visible = sorted(visible_labels(net))
    trace = st.lists(st.sampled_from(visible), max_size=6) if visible else st.just([])
    pairs = draw(st.lists(st.tuples(trace, st.integers(1, 4)), min_size=1, max_size=5))
    return WorkflowNet(net=net, source="i", sink="o"), EventLog.from_pairs(pairs)


@settings(max_examples=200, deadline=None)
@given(_nets_and_logs())
def test_evaluate_equals_the_reference_scorer(net_and_log):
    wfnet, log = net_and_log
    assert evaluate(wfnet, log) == oracle_evaluate(wfnet, log)


def test_inject_noise_level_zero_is_identity(l1):
    assert inject_noise(l1, 0.0, seed=42) == l1


def test_inject_noise_is_deterministic(l1):
    first = inject_noise(l1, 0.3, seed=7)
    second = inject_noise(l1, 0.3, seed=7)
    assert first == second
    different = inject_noise(l1, 0.3, seed=8)
    assert first != different  # overwhelmingly likely for this log


def _instances_changed(original: EventLog, noisy: EventLog) -> int:
    changed = 0
    for trace, count in original.traces.items():
        changed += count - min(count, noisy.traces.get(trace, 0))
    return changed


def test_inject_noise_l1_level_005(l1):
    noisy = inject_noise(l1, 0.05, seed=42)
    # ceil(0.05 * 55) = 3 instances are manipulated, and every
    # manipulation changes its trace
    assert noisy.total_instances == 55
    assert _instances_changed(l1, noisy) == 3
    assert noisy.alphabet <= l1.alphabet


def test_inject_noise_level_one_changes_everything(l1):
    noisy = inject_noise(l1, 1.0, seed=1)
    assert noisy.total_instances == 55
    assert _instances_changed(l1, noisy) == 55


def test_inject_noise_exempts_short_traces():
    log = EventLog(traces={("a",): 4})
    assert inject_noise(log, 1.0, seed=3) == log


def test_inject_noise_rejects_bad_level(l1):
    with pytest.raises(ValueError):
        inject_noise(l1, 1.5, seed=0)
    with pytest.raises(ValueError):
        inject_noise(l1, -0.1, seed=0)


def _manipulate_by_listing(rng, trace):
    """``quality._manipulate`` with the swap drawn from a list of every
    pair of differing positions: the reference for the counting walk."""
    op = rng.choice(quality._MANIPULATIONS)
    size_bound = max(1, len(trace) // 3)
    if op == "swap":
        pairs = [
            (i, j)
            for i in range(len(trace))
            for j in range(i + 1, len(trace))
            if trace[i] != trace[j]
        ]
        if pairs:
            i, j = pairs[rng.randrange(len(pairs))]
            swapped = list(trace)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            return tuple(swapped)
        op = "tail"
    size = rng.randint(1, size_bound)
    if op == "head":
        return trace[size:]
    if op == "tail":
        return trace[:-size]
    start = rng.randint(0, len(trace) - size)
    return trace[:start] + trace[start + size :]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from("abc"), min_size=2, max_size=24).map(tuple),
    st.integers(0, 2**32),
)
def test_manipulate_matches_listing_every_swap(trace, seed):
    # same trace out and the same random state left behind, so every
    # noisy log stays as it was
    rng, reference = random.Random(seed), random.Random(seed)
    assert quality._manipulate(rng, trace) == _manipulate_by_listing(reference, trace)
    assert rng.getstate() == reference.getstate()


def test_noise_swap_is_linear_in_the_trace():
    # seed 0 swaps two events of this 20,002-event trace; listing every
    # pair of differing positions would keep about 10**8 tuples
    trace = ("a",) + ("b", "c") * 10000 + ("d",)
    log = EventLog(traces={trace: 1})
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        noisy = inject_noise(log, 1.0, seed=0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    ((swapped, count),) = noisy.traces.items()
    assert count == 1 and swapped != trace and sorted(swapped) == sorted(trace)
    assert peak < 2 * 2**20
