import logging
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regionminer.discovery import (
    DiscoveryOptions,
    dedupe_places,
    discover,
    run_discovery,
)
from regionminer.errors import SolverError
from regionminer.eventlog import EventLog
from regionminer.ilp import Solution
from regionminer.petri import (
    export_pnml,
    is_wf_net,
    parse_pnml,
    relaxed_soundness_by_exploration,
    relaxed_soundness_witnesses,
    replay,
)
from regionminer.regions import RegionCandidate

from .conftest import DATA
from .util import random_log


@pytest.fixture(scope="module")
def l1_result(l1):
    return run_discovery(l1, DiscoveryOptions(alpha=None))


def _place_signature(result):
    """Set of (preset labels, postset labels) pairs over visible labels."""
    net = result.net.net
    signature = set()
    for place in net.places:
        if place in (result.net.source, result.net.sink):
            continue
        ins = frozenset(
            net.labels[t] or "tau" for t in net.preset[place]
        )
        outs = frozenset(
            net.labels[t] or "tau" for t in net.postset[place]
        )
        signature.add((ins, outs))
    return signature


def test_l1_is_wf_net(l1_result):
    ok, violations = is_wf_net(l1_result.net.net, "source", "sink")
    assert ok, violations


def test_l1_contains_expected_place(l1_result):
    assert (frozenset({"a", "f"}), frozenset({"d"})) in _place_signature(l1_result)


def test_l1_replays_every_trace(l1, l1_result):
    for trace in l1.traces:
        result = replay(l1_result.net, trace)
        assert result.ok and result.final_marking == {"sink": 1}


def test_l1_full_witness_coverage(l1, l1_result):
    witnesses = relaxed_soundness_witnesses(l1_result.net, l1)
    assert all(w is not None for w in witnesses.values())


def test_l1_duplicate_regions_merge(l1_result):
    # pairs (a, d) and (f, d) solve to the identical region; one place
    signatures = [
        sig for sig in _place_signature(l1_result) if sig[1] == frozenset({"d"})
    ]
    assert signatures == [(frozenset({"a", "f"}), frozenset({"d"}))]


def test_filtered_l1_prime_matches_l1(l1, l1_prime):
    unfiltered = run_discovery(l1, DiscoveryOptions(alpha=None))
    filtered = run_discovery(l1_prime, DiscoveryOptions(alpha=0.75))
    assert {r.vector() for r in unfiltered.regions} == {
        r.vector() for r in filtered.regions
    }


def test_single_trace_log():
    net = discover(EventLog(traces={("a",): 1}))
    ok, violations = is_wf_net(net.net, "source", "sink")
    assert ok, violations
    result = replay(net, ("a",))
    assert result.ok


def test_dedupe_places():
    r = RegionCandidate(0, (1, 0), (0, 1))
    assert dedupe_places([r, r]) == [r]
    assert dedupe_places([]) == []
    other = RegionCandidate(0, (0, 1), (1, 0))
    assert dedupe_places([r, other, r]) == [r, other]


def test_infeasible_pair_is_skipped(l1):
    from regionminer import ilp

    def flaky_solver(inst):
        if inst.pair == ("d", "e"):
            return Solution(status="infeasible", assignment=None, objective=None)
        return ilp.solve(inst)

    result = run_discovery(l1, DiscoveryOptions(solver=flaky_solver))
    assert result.skipped == (("d", "e"),)
    assert result.pair_regions[("d", "e")] is None
    assert (frozenset({"d"}), frozenset({"e"})) not in _place_signature(result)


def test_solver_error_names_the_pair(l1, monkeypatch):
    from regionminer import ilp

    def stuck(self):
        raise SolverError("simplex failed to terminate")

    monkeypatch.setattr(ilp._Simplex, "_primal", stuck)
    with pytest.raises(SolverError) as exc:
        run_discovery(l1)
    match = re.fullmatch(
        r"pair \((\w+), (\w+)\): simplex failed to terminate", str(exc.value)
    )
    assert match is not None
    monkeypatch.undo()
    assert match.groups() == min(run_discovery(l1).pair_regions)


def test_prefixes_are_encoded_only_by_the_closure_table(l1_prime, monkeypatch):
    from regionminer import regions

    def refuse(*args):
        raise AssertionError("prefix encoded outside PrefixClosure.encodings")

    package = [
        module
        for name, module in list(sys.modules.items())
        if name == "regionminer" or name.startswith("regionminer.")
    ]
    for module in package:
        for name in ("sequence_encoding", "parikh"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    result = run_discovery(l1_prime, DiscoveryOptions(alpha=0.75))
    for region in result.regions:
        # a filtered region may violate only rows the filter removed
        ok, source = regions.check_region(region, result.closure)
        assert ok or result.closure.encodings[source] not in result.retained
    assert export_pnml(result.net) == (DATA / "l1_prime_alpha_0.75.pnml").read_bytes()


def test_debug_log_reports_rows_and_pairs(l1, caplog):
    with caplog.at_level(logging.DEBUG, logger="regionminer.discovery"):
        result = run_discovery(l1)
    messages = [record.getMessage() for record in caplog.records]
    cs = result.system
    assert (
        f"constraint system: {len(cs.inequality_rows)} inequality rows, "
        f"{len(cs.equality_rows)} equality rows, "
        f"{len(cs.independent_equality_rows)} kept by presolve"
    ) in messages
    pair_lines = [m for m in messages if m.startswith("pair ")]
    assert len(pair_lines) == len(result.pair_regions)
    assert any(m.startswith("pair (a, b): optimal, objective ") for m in pair_lines)


def test_debug_log_reports_solver_counters(l1, caplog):
    from regionminer import ilp

    solutions = {}

    def recording_solver(inst):
        solutions[inst.pair] = ilp.solve(inst)
        return solutions[inst.pair]

    with caplog.at_level(logging.DEBUG, logger="regionminer.discovery"):
        run_discovery(l1, DiscoveryOptions(solver=recording_solver))
    messages = {record.getMessage() for record in caplog.records}
    for (a, b), solution in solutions.items():
        assert (
            f"pair ({a}, {b}): optimal, objective {solution.objective}, "
            f"{solution.nodes} nodes, {solution.pivots} pivots"
        ) in messages
        assert solution.nodes >= 1


def test_options_validate_ranges():
    with pytest.raises(ValueError):
        DiscoveryOptions(alpha=1.5)
    with pytest.raises(ValueError):
        DiscoveryOptions(dependency_threshold=-0.1)


def test_empty_log_rejected():
    with pytest.raises(ValueError):
        discover(EventLog(traces={}))


def test_random_logs_yield_wf_nets_with_witnesses():
    rng = random.Random(77)
    for _ in range(8):
        log = random_log(rng, max_alphabet=4, max_variants=5, max_length=5)
        result = run_discovery(log, DiscoveryOptions(alpha=None))
        ok, violations = is_wf_net(result.net.net, "source", "sink")
        assert ok, violations
        witnesses = relaxed_soundness_witnesses(result.net, log)
        assert all(w is not None for w in witnesses.values())
        for trace in log.traces:
            assert replay(result.net, trace).ok


def test_witness_coverage_agrees_with_exploration():
    # full coverage certifies relaxed soundness, so the explorer may only
    # fail to decide, never disagree
    rng = random.Random(4242)
    verdicts = []
    for _ in range(40):
        log = random_log(
            rng, max_alphabet=5, max_variants=6, max_length=5, max_multiplicity=9
        )
        net = discover(log, DiscoveryOptions(alpha=rng.choice([None, 0.75])))
        witnesses = relaxed_soundness_witnesses(net, log)
        if all(w is not None for w in witnesses.values()):
            verdicts.append(relaxed_soundness_by_exploration(net, bound=20000))
    assert set(verdicts) <= {"sound", "undecided"}
    assert verdicts.count("sound") >= 20


_NAMES = st.text(
    alphabet=st.sampled_from(list("<>&\"'ab") + ["é", "ß", "λ", "中", "😀"]),
    min_size=1,
    max_size=3,
)


@st.composite
def _xml_hostile_logs(draw):
    alphabet = draw(st.lists(_NAMES, min_size=2, max_size=4, unique=True))
    trace = st.lists(st.sampled_from(alphabet), min_size=1, max_size=4)
    pairs = draw(
        st.lists(st.tuples(trace, st.integers(1, 5)), min_size=1, max_size=4)
    )
    return EventLog.from_pairs(pairs)


@settings(max_examples=30, deadline=None)
@given(_xml_hostile_logs())
def test_pnml_round_trip_of_discovered_nets(log):
    for alpha in (None, 0.75):
        net = discover(log, DiscoveryOptions(alpha=alpha))
        data = export_pnml(net)
        back = parse_pnml(data)
        assert back == net
        assert export_pnml(back) == data
        if alpha is None:
            assert all(replay(back, trace).ok for trace in log.traces)
            witnesses = relaxed_soundness_witnesses(back, log)
            assert all(w is not None for w in witnesses.values())


def test_discovery_dot_is_wellformed(l1_result):
    from regionminer.petri import export_dot

    dot = export_dot(l1_result.net)
    # minimal grammar check: digraph wrapper, one statement per line
    lines = dot.strip().splitlines()
    assert lines[0] == "digraph wfnet {" and lines[-1] == "}"
    import re

    for line in lines[1:-1]:
        assert re.fullmatch(
            r'\s+("[^"]*"|\w+)( \[[^\]]*\]| -> ("[^"]*"|\w+)( \[[^\]]*\])?)?;', line
        ) or line.strip() == "rankdir=LR;", line
    assert dot.count("{") == dot.count("}")
