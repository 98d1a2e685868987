import pytest

from regionminer.discovery import DiscoveryOptions, discover
from regionminer.errors import ReplayError
from regionminer.eventlog import EventLog
from regionminer.petri import PetriNet, WorkflowNet, replay
from regionminer.quality import (
    escaping_edges_precision,
    evaluate,
    inject_noise,
    token_fitness,
)


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


def test_fitness_detects_missing_tokens():
    # g's input place is never fed: replay of <a, g> inserts one token
    net = PetriNet(
        ["source", "p1", "pg", "sink"],
        ["ta", "tg"],
        [("source", "ta"), ("ta", "p1"), ("pg", "tg"), ("tg", "sink")],
        {"ta": "a", "tg": "g"},
    )
    wf = WorkflowNet(net=net, source="source", sink="sink")
    log = EventLog(traces={("a", "g"): 1})
    # hand count: produced = 1 initial + 1 (ta) + 1 (tg) = 3, consumed =
    # 1 (ta) + 1 (tg) + 1 final = 3, missing = 1 (pg), remaining = 1 (p1)
    assert token_fitness(wf, log) == pytest.approx(2 / 3)
    assert token_fitness(wf, log) < 1


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
