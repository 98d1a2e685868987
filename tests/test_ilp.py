import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regionminer import DiscoveryOptions, ilp, run_discovery
from regionminer.errors import SolverError
from regionminer.eventlog import EventLog, prefix_closure, use_transform
from regionminer.ilp import _solve_lp, brute_force, lp_relax, solve
from regionminer.regions import (
    ConstraintSystem,
    ILPInstance,
    Row,
    build_constraint_system,
    instantiate_causal_ilp,
)

from .util import admissible_pairs, random_instance, random_use_system


def _lp(rows, costs, upper):
    """The one LP entry on rows in any order, with 0 <= v <= upper: rows
    the origin satisfies start the simplex, the others are added to it."""
    start = [row for row in rows if row[1] <= 0]
    return _solve_lp(start, [row for row in rows if row[1] > 0], costs, upper)


def test_simplex_box_corner():
    # min -x - y st x <= 2, y <= 2 -> optimum -4 at (2, 2)
    rows = [((-1, 0), -2), ((0, -1), -2)]
    status, point = _lp(rows, [-1, -1], [3, 3])
    assert status == "optimal"
    assert point == [Fraction(2), Fraction(2)]


def test_simplex_balances_constraints():
    # min -x - y st x + y <= 3, x <= 2, y <= 2
    rows = [((-1, -1), -3), ((-1, 0), -2), ((0, -1), -2)]
    status, point = _lp(rows, [-1, -1], [3, 3])
    assert status == "optimal"
    assert sum(point) == 3


def test_simplex_needs_phase_one():
    # min x st x >= 2, x <= 5
    rows = [((1,), 2), ((-1,), -5)]
    status, point = _lp(rows, [1], [6])
    assert status == "optimal"
    assert point == [Fraction(2)]
    # a start row the origin violates is one more row for the dual simplex
    assert _solve_lp(rows, [], [1], [6]) == ("optimal", [Fraction(2)])


def test_simplex_detects_infeasible():
    rows = [((1,), 2), ((-1,), -1)]
    status, _ = _lp(rows, [1], [3])
    assert status == "infeasible"


def test_simplex_fractional_optimum():
    # min -x st 2x <= 1
    rows = [((-2,), -1)]
    status, point = _lp(rows, [-1], [1])
    assert status == "optimal"
    assert point == [Fraction(1, 2)]


def test_simplex_matches_scipy_on_random_lps():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = rng.randint(1, 6)
        rows = [
            (tuple(rng.randint(-4, 4) for _ in range(n)), rng.randint(-6, 2))
            for _ in range(m)
        ]
        rows += [
            (tuple(-1 if k == j else 0 for k in range(n)), -3) for j in range(n)
        ]
        costs = [rng.randint(-5, 5) for _ in range(n)]
        status, point = _lp(rows, costs, [3] * n)
        result = scipy_opt.linprog(
            c=costs,
            A_ub=[[-c for c in coefs] for coefs, _ in rows],
            b_ub=[-rhs for _, rhs in rows],
            bounds=[(0, None)] * n,
            method="highs",
        )
        if result.status == 2:
            assert status == "infeasible"
        else:
            assert result.status == 0 and status == "optimal"
            value = sum(c * p for c, p in zip(costs, point))
            assert abs(float(value) - result.fun) < 1e-7


def _tiny_use_instance():
    use, start, end = use_transform(EventLog(traces={("a",): 1}))
    pc = prefix_closure(use, start, end)
    cs = build_constraint_system(pc)
    return pc, cs


def test_solve_self_loop_forces_start_arc():
    # fixing m=0, x(a)=1, y(a)=1 on the single-trace log: the row for
    # <start, a> reads m + x(start) - y(start) - y(a) >= 0, so x(start)
    # must be 1 in every feasible assignment
    pc, cs = _tiny_use_instance()
    inst = ILPInstance(
        system=cs, fixings={0: 0, cs.x_index("a"): 1, cs.y_index("a"): 1}
    )
    oracle = brute_force(inst)
    result = solve(inst)
    assert oracle.status == result.status == "optimal"
    assert result.assignment == oracle.assignment
    assert result.assignment[cs.x_index(pc.start)] == 1


def _contradicted_instance():
    _, cs = _tiny_use_instance()
    forcing = [0] * cs.n_vars
    forcing[cs.x_index("a")] = -1  # -x(a) >= 0 forces x(a) = 0
    contradicted = replace(
        cs,
        inequality_rows=cs.inequality_rows
        + (Row(vector=tuple(forcing), source=("a",), weight=1),),
    )
    return ILPInstance(system=contradicted, fixings={cs.x_index("a"): 1})


def test_solve_infeasible_on_contradictory_row():
    inst = _contradicted_instance()
    assert solve(inst).status == "infeasible"
    assert brute_force(inst).status == "infeasible"


def test_solve_feasible_for_causal_pairs_on_use_logs():
    rng = random.Random(17)
    for _ in range(15):
        pc, cs = random_use_system(rng, max_alphabet=4, max_variants=4, max_length=4)
        for a, b in admissible_pairs(pc)[:6]:
            result = solve(instantiate_causal_ilp(cs, a, b))
            assert result.status == "optimal"


def test_solve_agrees_with_brute_force():
    rng = random.Random(23)
    for _ in range(40):
        inst = random_instance(rng)
        fast = solve(inst)
        oracle = brute_force(inst)
        assert fast.status == oracle.status
        if fast.status == "optimal":
            assert fast.objective == oracle.objective
            assert fast.assignment == oracle.assignment


def test_lexicographic_tie_break():
    # objective all zeros: every feasible assignment is optimal, so the
    # reported one must be the lexicographically smallest
    _, cs = _tiny_use_instance()
    flat = replace(cs, objective=(0,) * cs.n_vars)
    inst = ILPInstance(system=flat, fixings={})
    result = solve(inst)
    oracle = brute_force(inst)
    assert result.assignment == oracle.assignment


def test_all_variables_fixed():
    _, cs = _tiny_use_instance()
    n = cs.n_vars
    zero = {i: 0 for i in range(n)}
    inst = ILPInstance(system=cs, fixings=zero)
    # all-zero violates the minimum-arc row
    assert brute_force(inst).status == "infeasible"
    assert solve(inst).status == "infeasible"


def test_lp_relax_equals_ilp_when_integral():
    pc, cs = _tiny_use_instance()
    inst = instantiate_causal_ilp(cs, pc.start, "a")
    relax = lp_relax(inst)
    exact = solve(inst)
    assert relax.status == "optimal"
    assert relax.value <= exact.objective
    if all(p.denominator == 1 for p in relax.point):
        assert relax.value == exact.objective


def test_lp_relax_bounds_ilp_on_random_instances():
    rng = random.Random(31)
    for _ in range(50):
        inst = random_instance(rng)
        relax = lp_relax(inst)
        exact = brute_force(inst)
        if exact.status == "optimal":
            assert relax.status == "optimal"
            assert relax.value <= exact.objective
        # relaxation may stay feasible when the binary problem is not


def test_lp_relax_matches_scipy_on_random_instances():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = random.Random(19)
    instances = [_contradicted_instance()]
    for k in range(80):
        inst = random_instance(rng)
        if k % 2:  # signed objectives put variables at their upper bound
            signed = tuple(rng.randint(-9, 9) for _ in inst.system.objective)
            inst = replace(inst, system=replace(inst.system, objective=signed))
        instances.append(inst)
    for inst in instances:
        cs = inst.system
        rows = [row.vector for row in cs.inequality_rows] + [cs.min_arc_row()]
        rhs = [0] * len(cs.inequality_rows) + [1]
        equalities = [row.vector for row in cs.equality_rows]
        relax = lp_relax(inst)
        result = scipy_opt.linprog(
            c=cs.objective,
            A_ub=[[-c for c in coefs] for coefs in rows],
            b_ub=[-r for r in rhs],
            A_eq=equalities or None,
            b_eq=[0] * len(equalities) or None,
            bounds=[
                (inst.fixings[i],) * 2 if i in inst.fixings else (0, 1)
                for i in range(cs.n_vars)
            ],
            method="highs",
        )
        if result.status == 2:
            assert relax.status == "infeasible"
        else:
            assert result.status == 0 and relax.status == "optimal"
            assert abs(float(relax.value) - result.fun) < 1e-7


def test_lp_relax_min_arc_only():
    cs = ConstraintSystem(
        alphabet=("a", "b"),
        inequality_rows=(),
        equality_rows=(),
        objective=(5, 3, 4, 2, 7),
    )
    relax = lp_relax(ILPInstance(system=cs, fixings={}))
    # cheapest arc indicator takes the whole minimum-arc unit
    assert relax.value == 2


def test_brute_force_budget():
    cs = ConstraintSystem(
        alphabet=tuple(f"a{i}" for i in range(13)),  # 27 variables
        inequality_rows=(),
        equality_rows=(),
        objective=(0,) * 27,
    )
    with pytest.raises(SolverError):
        brute_force(ILPInstance(system=cs, fixings={}))


def test_dimension_mismatch_raises():
    _, cs = _tiny_use_instance()
    broken = replace(
        cs,
        inequality_rows=cs.inequality_rows + (Row(vector=(1, 0), source=(), weight=1),),
    )
    with pytest.raises(SolverError):
        solve(ILPInstance(system=broken, fixings={}))


def test_solution_satisfies_every_row():
    rng = random.Random(41)
    for _ in range(20):
        inst = random_instance(rng)
        result = solve(inst)
        if result.status != "optimal":
            continue
        v = result.assignment
        cs = inst.system
        for row in cs.inequality_rows:
            assert sum(c * x for c, x in zip(row.vector, v)) >= 0
        for row in cs.equality_rows:
            assert sum(c * x for c, x in zip(row.vector, v)) == 0
        assert sum(v[1:]) >= 1
        assert all(v[i] == val for i, val in inst.fixings.items())


def test_filtered_instances_stay_feasible():
    # filtering only removes rows, so the wrapper solution survives and
    # every admissible pair stays solvable
    rng = random.Random(59)
    for _ in range(10):
        pc, filtered = random_use_system(
            rng, alpha=0.3, max_alphabet=4, max_variants=5, max_length=5
        )
        unfiltered = build_constraint_system(pc)
        filtered_vectors = {row.vector for row in filtered.inequality_rows}
        unfiltered_vectors = {row.vector for row in unfiltered.inequality_rows}
        assert filtered_vectors <= unfiltered_vectors
        for a, b in admissible_pairs(pc)[:5]:
            assert solve(instantiate_causal_ilp(unfiltered, a, b)).status == "optimal"
            assert solve(instantiate_causal_ilp(filtered, a, b)).status == "optimal"


def _rank(vectors):
    """Rank over the rationals by plain Fraction Gaussian elimination."""
    rows = [[Fraction(c) for c in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("name", ["l1", "l1_prime"])
def test_presolve_keeps_spanning_independent_rows(name, request):
    use, start, end = use_transform(request.getfixturevalue(name))
    cs = build_constraint_system(prefix_closure(use, start, end))
    kept = cs.independent_equality_rows
    assert kept is cs.independent_equality_rows  # built once per system
    assert len(kept) <= cs.n_activities + 1
    # the original rows, in their original order
    positions = [cs.equality_rows.index(row) for row in kept]
    assert positions == sorted(positions)
    basis = [row.vector for row in kept]
    assert _rank(basis) == len(basis)
    for row in cs.equality_rows:
        assert _rank(basis + [row.vector]) == len(basis)


def _padded(cs, rng):
    """The system with redundant equality rows mixed in: duplicates, sums
    and nonzero integer multiples of its own rows."""
    rows = list(cs.equality_rows)
    vectors = [row.vector for row in rows]
    for _ in range(rng.randint(1, 6)):
        kind = rng.choice(["duplicate", "sum", "multiple"])
        first = rng.choice(vectors)
        if kind == "duplicate":
            vector = first
        elif kind == "sum":
            second = rng.choice(vectors)
            vector = tuple(a + b for a, b in zip(first, second))
        else:
            factor = rng.choice([-3, -2, -1, 2, 3])
            vector = tuple(factor * a for a in first)
        rows.insert(rng.randint(0, len(rows)), Row(vector=vector, source=(), weight=1))
    return replace(cs, equality_rows=tuple(rows))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_presolve_drops_redundant_equalities(seed):
    rng = random.Random(seed)
    pc, cs = random_use_system(
        rng, max_alphabet=4, max_variants=5, max_length=5, max_multiplicity=9
    )
    padded = _padded(cs, rng)
    basis = [row.vector for row in padded.independent_equality_rows]
    assert _rank(basis) == len(basis) == len(cs.independent_equality_rows)
    assert all(_rank(basis + [row.vector]) == len(basis) for row in padded.equality_rows)
    a, b = rng.choice(admissible_pairs(pc))
    inst = instantiate_causal_ilp(padded, a, b)
    fast = solve(inst)
    oracle = brute_force(inst)
    assert fast == oracle
    plain = lp_relax(instantiate_causal_ilp(cs, a, b))
    relaxed = lp_relax(inst)
    assert relaxed.status == plain.status
    assert relaxed.value == plain.value


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_python_int_fallback_takes_the_same_pivots(seed):
    # every pivot runs on Python ints; a second compile of the same system
    # takes the same pivots and nodes, and both agree with the oracle
    inst = random_instance(random.Random(seed))
    fast, fast_relaxed = solve(inst), lp_relax(inst)
    slow, slow_relaxed = _fresh_result(solve, inst), _fresh_result(lp_relax, inst)
    assert (slow.pivots, slow.nodes) == (fast.pivots, fast.nodes)
    assert slow_relaxed == fast_relaxed
    oracle = brute_force(inst)
    assert slow == fast == oracle
    if oracle.status == "optimal":
        assert fast_relaxed.value <= oracle.objective


def test_coefficients_beyond_int64_pivot_exactly():
    big = 2**33
    cs = ConstraintSystem(
        alphabet=("a", "b"),
        inequality_rows=(
            # x(b) = 1 forces x(a) = 1
            Row(vector=(0, big + 1, -big, 0, 0), source=(), weight=1),
            # y(a) = 1 forces m = 1 or y(b) = 1
            Row(vector=(3 * big, 0, 0, -(3 * big) + 7, 3 * big), source=(), weight=1),
        ),
        equality_rows=(),
        objective=(5, 3, 4, 2, 7),
    )
    inst = ILPInstance(system=cs, fixings={2: 1, 3: 1})
    result = solve(inst)
    assert result == brute_force(inst)
    assert result.status == "optimal"
    # entries beyond 64 bits
    assert _lp([((2**70,), 2**69), ((-1,), -1)], [1], [1]) == (
        "optimal",
        [Fraction(1, 2)],
    )


def test_start_row_at_the_int64_minimum_solves_exactly():
    # -2**63 fits int64 but its negation does not; the optimum's
    # denominator, 2**63, does not fit either
    big = 1 << 63
    assert _lp([((-big,), -big)], [-1], [2]) == ("optimal", [Fraction(1)])
    assert _lp([((-big, 0), -big), ((0, -1), -1), ((1, 1), 1)], [-1, 1], [2, 2]) == (
        "optimal",
        [Fraction(1), Fraction(0)],
    )


def test_solution_counts_nodes_and_pivots(l1):
    use, start, end = use_transform(l1)
    cs = build_constraint_system(prefix_closure(use, start, end))
    result = solve(instantiate_causal_ilp(cs, "a", "b"))
    assert result.nodes >= 1
    assert result.pivots >= 1
    oracle = brute_force(instantiate_causal_ilp(cs, "a", "b"))
    assert (oracle.nodes, oracle.pivots) == (0, 0)
    assert result == oracle  # the counters describe the search only


def test_search_path_is_pinned(request):
    # every pivot and branching rule is deterministic, so a change to one
    # of them, or to the bound or the integrality test, moves these sums
    seeded = [solve(random_instance(random.Random(seed))) for seed in range(40)]
    assert (sum(s.pivots for s in seeded), sum(s.nodes for s in seeded)) == (119, 44)
    for fixture, alpha, work in [
        ("l1", None, (58, 15)),
        ("l1_prime", 0.75, (58, 15)),
        ("l1_prime", None, (73, 15)),
    ]:
        solutions = []

        def counting_solve(inst):
            solutions.append(solve(inst))
            return solutions[-1]

        log = request.getfixturevalue(fixture)
        run_discovery(log, DiscoveryOptions(alpha=alpha, solver=counting_solve))
        assert (
            sum(s.pivots for s in solutions),
            sum(s.nodes for s in solutions),
        ) == work, (fixture, alpha)


def test_branching_takes_the_value_nearest_one_half():
    # the integer rule |2 num - den| must pick what |p - 1/2| picks on
    # the Fractions, ties to the lower index, at every branching node
    branched, last = [], []
    optimum, fix = ilp._Pending.optimum, ilp._Simplex.fix

    def spy_optimum(self, simplex):
        result = optimum(self, simplex)
        last[:] = [result[1]]
        return result

    def spy_fix(self, index, value):
        # fixings come before the first optimum; solve then branches on
        # the one-branch child first
        if last and value == 1:
            branched.append((index, last[0]))
        fix(self, index, value)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ilp._Pending, "optimum", spy_optimum)
        patch.setattr(ilp._Simplex, "fix", spy_fix)
        for seed in range(150):
            last.clear()
            solve(random_instance(random.Random(seed)))
    half = Fraction(1, 2)
    for index, (num, den) in branched:
        point = [Fraction(v, den) for v in num]
        fractional = [i for i, p in enumerate(point) if p.denominator != 1]
        assert index == min(fractional, key=lambda i: (abs(point[i] - half), i))
    # the rule has a choice to make on at least one of these nodes
    assert any(
        len({Fraction(v, den) for v in num if v % den}) > 1 for _, (num, den) in branched
    )


def test_bound_rounds_the_relaxation_up():
    # over (m, x(a), x(b), y(a), y(b)) with a zero objective the costs are
    # the tie-break weights 16, 8, 4, 2, 1. The root LP is x(b) = 1/7,
    # y(a) = 4/7, y(b) = 2/7 at 2 and branches on y(a); its zero branch
    # finds the optimum x(b) = 1 at 4. The one branch's LP is x(b) = 1/4,
    # y(a) = 1, y(b) = 1/2 at 7/2, pruned only because ceil(7/2) = 4; its
    # floor, 3, would branch on (5 nodes in all)
    cs = ConstraintSystem(
        alphabet=("a", "b"),
        inequality_rows=(
            Row(vector=(-2, 0, 0, 1, -2), source=(), weight=1),
            Row(vector=(0, 0, 2, -1, 1), source=(), weight=1),
        ),
        equality_rows=(),
        objective=(0,) * 5,
    )
    inst = ILPInstance(system=cs, fixings={})
    result = solve(inst)
    assert result == brute_force(inst)
    assert result.assignment == (0, 0, 1, 0, 0) and result.nodes == 3


def _warm_and_cold(inst):
    """solve and lp_relax with every row generated one at a time, the
    dual-simplex results seen, and lp_relax with all violated rows added
    in one batch."""
    outcomes = []
    reoptimise = ilp._Simplex.reoptimise

    def spy(self):
        result = reoptimise(self)
        outcomes.append(result[0])
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ilp._Simplex, "reoptimise", spy)
        patch.setattr(ilp, "_ROW_BATCH", 1)
        warm, warm_relaxed = solve(inst), lp_relax(inst)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ilp, "_ROW_BATCH", 10**9)
        cold_relaxed = lp_relax(inst)
    return warm, warm_relaxed, cold_relaxed, outcomes


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
@example(11)  # a branch-and-bound node turns infeasible after rows are added
def test_warm_started_rows_match_brute_force_and_cold_lps(seed):
    inst = random_instance(random.Random(seed))
    warm, warm_relaxed, cold_relaxed, _ = _warm_and_cold(inst)
    assert warm == brute_force(inst)
    assert warm_relaxed.status == cold_relaxed.status
    assert warm_relaxed.value == cold_relaxed.value


def test_dual_simplex_reports_infeasible_nodes_and_lps():
    # the example above does reach an infeasible dual re-optimisation
    assert "infeasible" in _warm_and_cold(random_instance(random.Random(11)))[3]
    # a body row that contradicts a fixing row
    warm, warm_relaxed, cold_relaxed, outcomes = _warm_and_cold(_contradicted_instance())
    assert warm_relaxed.status == cold_relaxed.status == "infeasible"
    assert warm.status == "infeasible" and outcomes[-1] == "infeasible"


def _causal_instances(cs):
    """The causal instance of every pair that may seed a place."""
    start, end = cs.alphabet[0], cs.alphabet[-1]
    return [
        instantiate_causal_ilp(cs, a, b)
        for a in cs.alphabet
        if a != end
        for b in cs.alphabet
        if b != start
    ]


def test_row_generated_node_builds_one_simplex(l1):
    # solve builds one _Simplex per system, across every pair and set of
    # fixings; every solve node, the pair's root included, works on a
    # copy, and only copies take rows or re-optimise. lp_relax builds one
    # simplex of its own per call, for the plain objective.
    use, start, end = use_transform(l1)
    cs = build_constraint_system(prefix_closure(use, start, end))
    branching = random_instance(random.Random(0))
    pinned = (instantiate_causal_ilp(cs, "a", "b"), branching)
    built, copies, added, reoptimised = [], [], [], []
    init, copy, add_rows, reoptimise = (
        ilp._Simplex.__init__,
        ilp._Simplex.copy,
        ilp._Simplex.add_rows,
        ilp._Simplex.reoptimise,
    )

    def counting_init(self, rows, costs, upper, slack_upper):
        built.append(self)
        init(self, rows, costs, upper, slack_upper)

    def counting_copy(self):
        twin = copy(self)
        copies.append(twin)
        return twin

    def counting_add_rows(self, rows):
        added.append((self, len(rows)))
        add_rows(self, rows)

    def counting_reoptimise(self):
        reoptimised.append(self)
        return reoptimise(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ilp._Simplex, "__init__", counting_init)
        patch.setattr(ilp._Simplex, "copy", counting_copy)
        patch.setattr(ilp._Simplex, "add_rows", counting_add_rows)
        patch.setattr(ilp._Simplex, "reoptimise", counting_reoptimise)
        patch.setattr(ilp, "_ROW_BATCH", 1)
        relaxations = 0
        for inst in _causal_instances(cs) + list(pinned):
            for call in (lp_relax, solve):
                for seen in (copies, added, reoptimised):
                    seen.clear()
                before = len(built)
                result = call(inst)
                if call is solve:
                    assert len(built) == before
                    assert len(copies) == result.nodes
                    ids = {id(twin) for twin in copies}
                    assert {id(s) for s, _ in added} <= ids
                    assert {id(s) for s in reoptimised} == ids
                else:
                    relaxations += 1
                    assert not copies
                if any(inst is p for p in pinned):
                    assert result.status == "optimal"
                    assert added and {count for _, count in added} == {1}
                # five rows are violated at once here: one per round
                if inst is pinned[0]:
                    assert len(added) > 1
    # one root each for cs and branching.system
    assert len(built) == relaxations + 2
    assert solve(branching).nodes > 1
    assert [list(s.solver_state) for s in (cs, branching.system)] == [["compiled"]] * 2


def _is_unit(row):
    coefs, _ = row
    return [abs(c) for c in coefs if c] == [1]


def test_no_bound_becomes_a_row(l1):
    # fixings and branching bounds are bound changes: every row that
    # reaches add_rows is a body row, never a unit bound row, and the
    # compiled system does not depend on which variables are fixed
    use, start, end = use_transform(l1)
    cs = build_constraint_system(prefix_closure(use, start, end))
    branching = random_instance(random.Random(0))
    a, b = cs.x_index("a"), cs.y_index("b")
    others = [
        ILPInstance(system=cs, fixings={a: 1, b: 1}),
        ILPInstance(system=cs, fixings={0: 0, a: 1, b: 0, cs.y_index("c"): 1}),
    ]
    added = []
    add_rows = ilp._Simplex.add_rows

    def spy(self, rows):
        added.extend(rows)
        add_rows(self, rows)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ilp._Simplex, "add_rows", spy)
        assert solve(branching).nodes > 1
        for inst in _causal_instances(cs) + others:
            solve(inst)
    assert added and not any(_is_unit(row) for row in added)
    for system in (cs, branching.system):
        assert list(system.solver_state) == ["compiled"]
    body = set(cs.solver_state["compiled"].body.rows)
    body |= set(branching.system.solver_state["compiled"].body.rows)
    assert set(added) <= body


def test_no_row_reaches_add_rows_twice_on_one_path(l1, l1_prime):
    # a row in a node's tableau has a slack >= 0, so it holds at every
    # optimum and is never violated again: along one branch-and-bound
    # path, from the pair's root down, no row reaches add_rows twice
    branching = random_instance(random.Random(0))
    instances = [branching]
    for log in (l1, l1_prime):
        use, start, end = use_transform(log)
        cs = build_constraint_system(prefix_closure(use, start, end))
        instances += _causal_instances(cs)
    repeated, inherited = [], []
    copy, add_rows = ilp._Simplex.copy, ilp._Simplex.add_rows

    def tracking_copy(self):
        # a copy starts from every row its original's path has added
        twin = copy(self)
        twin.path_rows = set(getattr(self, "path_rows", ()))
        twin.from_ancestors = bool(twin.path_rows)
        return twin

    def tracking_add_rows(self, rows):
        if self.from_ancestors:
            inherited.append(rows)
        for row in rows:
            if row in self.path_rows:
                repeated.append(row)
            self.path_rows.add(row)
        add_rows(self, rows)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ilp._Simplex, "copy", tracking_copy)
        patch.setattr(ilp._Simplex, "add_rows", tracking_add_rows)
        assert solve(branching).nodes > 1
        for inst in instances:
            solve(inst)
    assert not repeated
    # children do take rows on top of the rows their ancestors added
    assert inherited


def _fresh_result(call, inst):
    """The call on a copy of the instance's system with nothing compiled."""
    return call(replace(inst, system=replace(inst.system)))


def _work(result):
    if isinstance(result, ilp.LPRelaxation):
        return result
    return result, result.nodes, result.pivots


def test_shared_root_does_not_leak_between_pairs(l1, l1_prime):
    systems = []
    for log in (l1, l1_prime):
        use, start, end = use_transform(log)
        systems.append(build_constraint_system(prefix_closure(use, start, end)))
    # signed objectives start the root with variables at their upper bound
    rng = random.Random(213)
    signed = random_instance(rng).system
    objective = tuple(rng.randint(-9, 9) for _ in signed.objective)
    signed = replace(signed, objective=objective)
    systems.append(signed)
    calls = [
        (call, inst)
        for cs in systems
        for inst in _causal_instances(cs)
        for call in (solve, lp_relax)
    ]
    # the l1 system under two more sets of zero fixings
    cs = systems[0]
    a, b = cs.x_index("a"), cs.y_index("b")
    for fixings in ({a: 1, b: 1}, {0: 0, a: 1, b: 0, cs.y_index("c"): 1}):
        inst = ILPInstance(system=cs, fixings=fixings)
        calls += [(solve, inst), (lp_relax, inst)]
    random.Random(7).shuffle(calls)
    roots = []
    for call, inst in calls:
        assert _work(call(inst)) == _work(_fresh_result(call, inst)), (call, inst)
        root = inst.system.solver_state["compiled"].root
        if not any(root is seen for seen, _ in roots):
            roots.append((root, _root_state(root)))
    # the roots are never changed, and there is one per system
    assert len(roots) == len(systems)
    assert all(_root_state(root) == state for root, state in roots)
    assert signed.solver_state["compiled"].root.raised
    assert all(list(s.solver_state) == ["compiled"] for s in systems)


def _root_state(simplex):
    return (
        [list(line) for line in simplex.tableau],
        list(simplex.basis),
        list(simplex.nonbasic),
        list(simplex.cost),
        list(simplex.lower),
        list(simplex.upper),
        dict(simplex.raised),
        simplex.den,
    )


def test_failed_compile_leaves_nothing_cached(l1):
    use, start, end = use_transform(l1)
    cs = build_constraint_system(prefix_closure(use, start, end))
    inst = instantiate_causal_ilp(cs, "a", "b")

    def stuck(self, rows, costs, upper, slack_upper):
        raise SolverError("simplex failed to build")

    with pytest.MonkeyPatch.context() as patch:
        # the root simplex is the last part of the compiled system built
        patch.setattr(ilp._Simplex, "__init__", stuck)
        with pytest.raises(SolverError, match=r"^pair \(a, b\): simplex failed"):
            solve(inst)
    assert cs.solver_state == {}
    assert _work(solve(inst)) == _work(_fresh_result(solve, inst))
    assert list(cs.solver_state) == ["compiled"]


def test_dual_simplex_that_cannot_finish_names_the_pair(l1):
    use, start, end = use_transform(l1)
    cs = build_constraint_system(prefix_closure(use, start, end))
    add_rows = ilp._Simplex.add_rows

    def stalling_add_rows(self, rows):
        add_rows(self, rows)
        self._pivot = lambda row, col: None  # the dual loop never progresses

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ilp._Simplex, "add_rows", stalling_add_rows)
        patch.setattr(ilp, "_PIVOT_LIMIT", 50)
        with pytest.raises(SolverError, match=r"^pair \(a, b\): dual simplex"):
            solve(instantiate_causal_ilp(cs, "a", "b"))


@pytest.mark.parametrize("big", [2**33, 2**61, 2**70])
def test_rows_with_huge_coefficients_warm_start_exactly(big):
    box = [((-1, 0), -1), ((0, -1), -1)]
    optional = [((big, 1), big // 2), ((1, big + 1), big // 3), ((-big, big), -big)]
    costs = [3, 5]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ilp, "_ROW_BATCH", 1)
        status, point = _solve_lp(box, optional, costs, [1, 1])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ilp, "_ROW_BATCH", 10**9)
        cold_status, cold_point = _solve_lp(box, optional, costs, [1, 1])
    assert status == cold_status == "optimal"
    value = sum(c * p for c, p in zip(costs, point))
    assert value == sum(c * p for c, p in zip(costs, cold_point))
    for coefs, rhs in box + optional:
        assert sum(c * p for c, p in zip(coefs, point)) >= rhs


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
@example(213)  # sibling nodes add different rows to copies of one tableau
def test_signed_objectives_match_brute_force(seed):
    # negative costs start their variables at the upper bound, so the
    # dual simplex moves variables off both bounds and out at both bounds
    rng = random.Random(seed)
    inst = random_instance(rng)
    signed = tuple(rng.randint(-9, 9) for _ in inst.system.objective)
    inst = replace(inst, system=replace(inst.system, objective=signed))
    # whether each optimum row generation returns satisfies every row
    complete = []
    optimum = ilp._Pending.optimum

    def spy(self, simplex):
        status, point = optimum(self, simplex)
        if status == "optimal":
            num, den = point
            values = [sum(c * v for c, v in zip(coefs, num)) for coefs, _ in self.rows]
            complete.append(all(v >= rhs * den for v, (_, rhs) in zip(values, self.rows)))
        return status, point

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ilp._Pending, "optimum", spy)
        result, relaxed = solve(inst), lp_relax(inst)
    assert all(complete)
    oracle = brute_force(inst)
    assert result == oracle
    if oracle.status == "optimal":
        assert relaxed.status == "optimal"
        assert relaxed.value <= oracle.objective
