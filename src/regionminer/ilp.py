"""Exact solver for binary programs of the region form.

Solves: minimise an integer objective over the binary variables
(m, x, y) subject to the region inequality rows, the trace-emptiness
equality rows, the minimum-arc row, binary bounds and variable fixings.

The algorithm is branch-and-bound with bounding by the continuous
relaxation. Every relaxation is solved by one dense simplex over all
variables using fraction-free integer pivoting, which is exact rational
arithmetic with the denominators cleared, so no tolerance enters anywhere.

One tableau, rows added to it: a simplex starts from rows that hold at
the origin, so their slacks form a feasible basis and no phase 1 or
artificial column is needed. Those start rows are the box rows
``v_i <= 1``, the presolved equality pairs (below) and ``v_i <= 0`` for
each variable fixed to zero. A primal simplex runs from that slack basis;
on discovery instances it takes no pivot, because every objective
coefficient is positive. Every other row is written into the optimal
tableau by ``_Simplex.add_rows``, each with a fresh basic slack, which
keeps every reduced cost non-negative, and a dual simplex
(``_Simplex.reoptimise``) restores a non-negative right-hand side: the
leaving row has the most negative rhs (ties: lower basis index), the
entering column is the ``j`` with a negative entry in that row minimising
``cost[j] / -T[row, j]`` (compared by cross-multiplying; ties: lower
column index), and a row without such a column proves the relaxation
infeasible. Rows enter this way in two cases:

- row generation: the minimum-arc row, the rows fixing variables to one
  and the body's inequality rows wait in a pending set; after each
  optimum the most violated of them, up to ``_ROW_BATCH`` per round, are
  added, until the optimum satisfies every row and so is the optimum of
  the full body (at the origin only the fixings and the minimum-arc row
  are violated, so they join in the first round);
- branching: a branch-and-bound child copies its parent's optimal
  tableau and pending-row mask and adds one bound row, ``v_j <= 0`` or
  ``v_j >= 1``, so every node is a warm start.

One root per system: the start rows, the pending body and the costs
depend only on the constraint system and its zero fixings, never on the
fixings to one, so ``_Compiled`` validates the rows, stacks them and
builds the root simplex with its primal once per system and set of zero
fixings, and keeps it on the system (``ConstraintSystem.solver_state``).
Each pair copies the root, appends its fixings to one to the shared
pending rows and runs branch-and-bound from the copy; the root itself is
never changed, and ``Solution.pivots`` counts its primal pivots for
every pair. ``lp_relax`` minimises the plain objective, not the
lexicographic one, so it builds one simplex of its own on the system's
shared start rows and pending rows.

Fixings and bounds are rows and are never substituted, so every node
keeps all variables and the same cost vector. The primal loop enters the
column with the most negative reduced cost (ties: lower column index)
and its ratio test breaks ties on the lower basis index. Both loops fall
back to Bland's rule after ``bland_after`` pivots and raise
``SolverError`` after ``_PIVOT_LIMIT`` pivots.

Tableau: the constraint rows of a simplex live in one 2-D numpy ``int64``
array, and each fraction-free pivot is the single array expression
``(piv * T - outer(T[:, col], T[row])) // den`` with the pivot row put
back afterwards. Fraction-free pivoting keeps every entry an integer, so
the floor division is exact. Before each pivot a guard checks that every
entry is below 2**31 in magnitude; then every product stays below 2**62
and every difference below 2**63, so nothing wraps. When the check fails
the tableau becomes an ``object`` array of Python ints for the rest of
that simplex and its copies, and the same expression runs on it, so any
input is solved exactly. A start row that does not fit ``int64`` builds
the tableau as ``object`` from the beginning. Added rows are built in
``int64`` only while ``max(den, |T|)`` times a row's absolute
coefficient sum stays below 2**62, and otherwise turn the tableau into
``object`` the same way. The pending rows' slacks and the re-verification
of an optimum are matrix products, in ``int64`` when a bound on every
partial sum allows it and in Python ints otherwise. The cost row stays a
list of Python ints, because the lexicographic objective below scales it
by 2**n. The pivot rules see the same integers either way, so the pivot
sequence does not depend on the representation.

LP points: every value is ``rhs_i / den`` over the one tableau
denominator, so an LP point is its integer numerators with ``den``.
Row slacks (times ``den``), the node bound, integrality (``den`` divides
the numerator) and the branching choice are all read from those
integers; ``Fraction`` appears only in the public ``LPRelaxation``.

Presolve: the trace-emptiness equalities all read
``m + sum_a c_a (x_a - y_a) = 0``, so they have rank at most |A|+1 while
a log can contribute hundreds of them. Before an equality becomes the
two ``>=`` start rows every relaxation carries, the rows are reduced to
their first linearly independent subset
(``ConstraintSystem.independent_equality_rows``, found by exact integer
elimination and cached on the system, so all pairs share one
computation). The subset keeps the original integer rows and spans the
same affine set, so every relaxation has exactly the same feasible
region. Re-verification of an optimum still checks every original row.

Determinism: among equal-objective optima the solver returns the
lexicographically smallest assignment in (m, x, y) order. Over n
variables, ``solve`` minimises ``objective[i] * 2**n + 2**(n-1-i)`` per
variable: a lexicographic product of the objective with the assignment
itself, which makes the optimum unique, so results cannot depend on
exploration order. Fixed variables add only a constant, so the one cost
vector serves every node.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import SolverError
from .regions import ConstraintSystem, ILPInstance

_ROW_BATCH = 24
# Bound on every tableau entry before an int64 pivot: each product of two
# entries then stays below 2**62 and each difference of two below 2**63.
_INT64_SAFE = 1 << 31
# pivots one primal simplex or one dual re-optimisation may take
_PIVOT_LIMIT = 100000

Rows = list[tuple[tuple[int, ...], int]]
# an LP point: integer numerators over one positive denominator
Point = tuple[list[int], int]


@dataclass(frozen=True)
class Solution:
    status: str  # "optimal" | "infeasible"
    assignment: tuple[int, ...] | None
    objective: int | None
    # work counters: they describe the search, not the optimum
    nodes: int = field(default=0, compare=False)  # branch-and-bound nodes
    pivots: int = field(default=0, compare=False)  # simplex pivots


@dataclass(frozen=True)
class LPRelaxation:
    status: str  # "optimal" | "infeasible"
    value: Fraction | None
    point: tuple[Fraction, ...] | None


def _system_rows(cs: ConstraintSystem) -> tuple[Rows, Rows]:
    """All constraint rows of a system over the full variable vector.

    Returns (inequalities, equalities); an inequality (coefs, rhs) means
    coefs . v >= rhs, an equality means coefs . v == rhs. The minimum-arc
    row is the last inequality.
    """
    n = cs.n_vars
    for row in cs.inequality_rows:
        if len(row.vector) != n:
            raise SolverError("inequality row dimension does not match the alphabet")
    for row in cs.equality_rows:
        if len(row.vector) != n:
            raise SolverError("equality row dimension does not match the alphabet")
    if len(cs.objective) != n:
        raise SolverError("objective dimension does not match the alphabet")
    inequalities: Rows = [(row.vector, 0) for row in cs.inequality_rows]
    inequalities.append((cs.min_arc_row(), 1))
    equalities: Rows = [(row.vector, 0) for row in cs.equality_rows]
    return inequalities, equalities


def _check_fixings(inst: ILPInstance) -> None:
    n = inst.system.n_vars
    for index, value in inst.fixings.items():
        if not 0 <= index < n:
            raise SolverError(f"fixing index {index} out of range")
        if value not in (0, 1):
            raise SolverError(f"fixing value must be binary, got {value}")


def _names_pair(func):
    """Prefix every SolverError raised for an instance with its pair."""

    @functools.wraps(func)
    def wrapper(inst: ILPInstance):
        try:
            return func(inst)
        except SolverError as exc:
            if inst.pair is None:
                raise
            a, b = inst.pair
            raise SolverError(f"pair ({a}, {b}): {exc}") from exc

    return wrapper


class _Simplex:
    """Dense simplex over the rationals, fraction-free, always optimal.

    Constraints are ``coefs . v >= rhs`` with v >= 0. The tableau holds
    integers with one shared positive denominator (the previous pivot);
    a negative pivot (dual simplex) is followed by a global sign flip, so
    the denominator stays positive. Construction takes start rows, which
    must hold at the origin, and runs the primal simplex from their slack
    basis; ``add_rows`` and ``reoptimise`` then bring in every other row
    (see the module docstring).
    """

    def __init__(self, rows: Rows, costs: Sequence[int]):
        if any(rhs > 0 for _, rhs in rows):
            raise SolverError("a start row does not hold at the origin")
        n, m = len(costs), len(rows)
        self.n = n
        self.den = 1
        self.pivots = 0
        self.width = n + m + 1
        # row i reads slack_i - coefs . v = -rhs, with slack_i basic
        matrix, rhs, _ = _stack(rows, n)
        self.tableau = np.zeros((m, self.width), dtype=matrix.dtype)
        self.tableau[:, :n] = -matrix
        self.tableau[np.arange(m), n + np.arange(m)] = 1
        self.tableau[:, -1] = -rhs
        self.basis = list(range(n, n + m))
        # reduced cost of each column (the initial basics all cost zero)
        self.cost = list(costs) + [0] * m
        self._primal()

    def copy(self) -> "_Simplex":
        """An independent copy of the tableau with its pivot count at 0."""
        twin = copy.copy(self)
        twin.tableau = self.tableau.copy()
        twin.basis = list(self.basis)
        twin.cost = list(self.cost)
        twin.pivots = 0
        return twin

    def _pivot(self, row: int, col: int) -> None:
        tableau = self.tableau
        if tableau.dtype != object and np.abs(tableau).max() >= _INT64_SAFE:
            # this pivot might wrap around: go on in Python ints
            tableau = self.tableau = tableau.astype(object)
        pivot_row = tableau[row].copy()
        piv = int(pivot_row[col])
        den = self.den
        updated = piv * tableau
        updated -= tableau[:, col, None] * pivot_row  # outer product
        updated //= den
        updated[row] = pivot_row
        self.tableau = updated
        factor = self.cost[col]
        if factor:
            self.cost = [
                (piv * a - factor * b) // den
                for a, b in zip(self.cost, pivot_row.tolist())
            ]
        elif piv != den:
            self.cost = [(piv * a) // den for a in self.cost]
        self.den = piv
        self.basis[row] = col
        self.pivots += 1
        if self.den < 0:
            # global sign flip keeps the shared denominator positive
            self.den = -self.den
            np.negative(self.tableau, out=self.tableau)
            self.cost = [-a for a in self.cost]

    def _ratio_row(self, col: int) -> int | None:
        best: int | None = None
        best_rhs = best_coef = 0
        rhs_column = self.tableau[:, -1].tolist()
        for i, coef in enumerate(self.tableau[:, col].tolist()):
            if coef <= 0:
                continue
            rhs = rhs_column[i]
            if best is None:
                best, best_rhs, best_coef = i, rhs, coef
                continue
            left = rhs * best_coef
            right = best_rhs * coef
            if left < right or (left == right and self.basis[i] < self.basis[best]):
                best, best_rhs, best_coef = i, rhs, coef
        return best

    def _primal(self) -> None:
        """Primal simplex: pivots until no reduced cost is negative."""
        pivots = 0
        bland_after = 200 + 40 * len(self.tableau)
        while True:
            cost = self.cost
            negative = [j for j in range(self.width - 1) if cost[j] < 0]
            if not negative:
                return
            if pivots <= bland_after:
                entering = min(negative, key=cost.__getitem__)
            else:  # Bland's rule, guarantees termination under degeneracy
                entering = negative[0]
            row = self._ratio_row(entering)
            if row is None:
                raise SolverError("relaxation unbounded; box rows missing")
            self._pivot(row, entering)
            pivots += 1
            if pivots > _PIVOT_LIMIT:
                raise SolverError("simplex failed to terminate")

    def add_rows(self, rows: Rows) -> None:
        """Append rows ``coefs . v >= rhs`` to the optimal tableau.

        Each row gets a fresh slack column (inserted before the rhs column)
        and is written in the current basis in fraction-free form,
        ``den * line - sum_i line[basis_i] * T_i``, so its slack is basic
        with coefficient ``den``. Reduced costs do not change: the new
        slacks cost zero. Call ``reoptimise`` afterwards.
        """
        n, width, count = self.n, self.width, len(rows)
        lines = []
        for t, (coefs, rhs) in enumerate(rows):
            line = [-c for c in coefs] + [0] * (width + count - n)
            line[width - 1 + t] = 1
            line[-1] = -rhs
            lines.append(line)
        tableau = np.insert(self.tableau, [width - 1] * count, 0, axis=1)
        # only rows with a structural basic variable meet a nonzero line entry
        structural = [i for i, var in enumerate(self.basis) if var < n]
        largest = max(self.den, _magnitude(tableau))
        spread = max(sum(map(abs, coefs)) + abs(rhs) + 1 for coefs, rhs in rows)
        if tableau.dtype != object and largest * spread >= 1 << 62:
            tableau = tableau.astype(object)
        block = np.array(lines, dtype=tableau.dtype)
        basic = block[:, [self.basis[i] for i in structural]]
        block = self.den * block - basic @ tableau[structural]
        self.tableau = np.vstack([tableau, block])
        self.basis.extend(range(width - 1, width - 1 + count))
        self.width += count
        self.cost += [0] * count

    def reoptimise(self) -> tuple[str, Point | None]:
        """Dual simplex after ``add_rows``: the reduced costs stay
        non-negative while pivots restore a non-negative rhs."""
        basis = self.basis
        pivots = 0
        bland_after = 200 + 40 * len(self.tableau)
        while True:
            rhs = self.tableau[:, -1].tolist()
            row = None
            for i, value in enumerate(rhs):
                if value >= 0:
                    continue
                if row is None or (
                    basis[i] < basis[row]
                    if pivots > bland_after  # Bland's rule, as in _primal
                    else value < rhs[row] or (value == rhs[row] and basis[i] < basis[row])
                ):
                    row = i
            if row is None:
                return "optimal", self._values()
            line = self.tableau[row].tolist()
            cost = self.cost
            entering = None
            for j in range(self.width - 1):
                coef = line[j]
                # smallest cost[j] / -coef, compared by cross-multiplying
                if coef < 0 and (
                    entering is None or cost[j] * -line[entering] < cost[entering] * -coef
                ):
                    entering = j
            if entering is None:
                return "infeasible", None
            self._pivot(row, entering)
            pivots += 1
            if pivots > _PIVOT_LIMIT:
                raise SolverError("dual simplex failed to terminate")

    def _values(self) -> Point:
        rhs = self.tableau[:, -1].tolist()
        num = [0] * self.n
        for i, var in enumerate(self.basis):
            if var < self.n:
                num[var] = rhs[i]
        return num, self.den


def _magnitude(array: np.ndarray) -> int:
    """Largest absolute entry of an integer array, exactly (0 if empty)."""
    if not array.size:
        return 0
    return max(abs(int(array.max())), abs(int(array.min())))


def _stack(rows: Rows, width: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The rows as a coefficient matrix and an rhs vector, ``int64`` when
    every entry and its negation fit and ``object`` otherwise, plus their
    largest absolute entry."""
    coefs = [c for c, _ in rows]
    rhs = [r for _, r in rows]
    try:
        matrix = np.array(coefs, dtype=np.int64).reshape(len(rows), width)
        vector = np.array(rhs, dtype=np.int64)
    except OverflowError:
        matrix = np.array(coefs, dtype=object).reshape(len(rows), width)
        vector = np.array(rhs, dtype=object)
    magnitude = max(_magnitude(matrix), _magnitude(vector))
    if magnitude == 1 << 63:  # -2**63 has no int64 negation
        matrix, vector = matrix.astype(object), vector.astype(object)
    return matrix, vector, magnitude


class _Pending:
    """Rows that enter a relaxation by row generation, deduplicated and
    stacked once: a system's body is shared by all its pairs, and a pair's
    ``extended`` stack by every node of that pair; each node keeps a mask
    of the rows it has not added yet."""

    def __init__(self, rows: Rows, width: int):
        self.rows = list(dict.fromkeys(rows))
        self.known = set(self.rows)
        self.width = width
        self.matrix, self.rhs, self.magnitude = _stack(self.rows, width)

    def extended(self, rows: Rows) -> "_Pending":
        """These rows followed by those of ``rows`` not among them, as a
        new stack; ``self`` stays as it is."""
        extra = [row for row in dict.fromkeys(rows) if row not in self.known]
        if not extra:
            return self
        matrix, rhs, magnitude = _stack(extra, self.width)
        twin = copy.copy(self)
        twin.rows = self.rows + extra
        twin.known = self.known.union(extra)
        twin.matrix = np.vstack([self.matrix, matrix])
        twin.rhs = np.concatenate([self.rhs, rhs])
        twin.magnitude = max(self.magnitude, magnitude)
        return twin

    def mask(self) -> np.ndarray:
        """A mask with every row still pending."""
        return np.ones(len(self.rows), dtype=bool)

    def optimum(self, simplex: _Simplex, live: np.ndarray) -> tuple[str, Point | None]:
        """Re-optimise ``simplex``, then add the most violated rows of
        ``live`` (clearing them there) and re-optimise again until the
        optimum satisfies every row; an optimum over a subset of the rows
        that is feasible for all of them is optimal for all of them."""
        status, point = simplex.reoptimise()
        while status == "optimal":
            num, den = point
            # |den * slack| <= magnitude * (width + 1) * max(den, |num|); the
            # max(.., 1) keeps den and num within int64 when every row is zero
            scale = max([den] + [abs(v) for v in num])
            if (
                self.matrix.dtype != object
                and max(self.magnitude, 1) * (len(num) + 1) * scale < 1 << 63
            ):
                slack = self.matrix @ np.array(num, dtype=np.int64) - self.rhs * den
            else:
                rhs = self.rhs.astype(object) * den
                slack = self.matrix.astype(object) @ np.array(num, dtype=object) - rhs
            violated = np.flatnonzero(live & (slack < 0)).tolist()
            if not violated:
                break
            violated.sort(key=lambda i: (slack[i], self.rows[i][0]))
            chosen = violated[:_ROW_BATCH]
            live[chosen] = False
            simplex.add_rows(sorted(self.rows[i] for i in chosen))
            status, point = simplex.reoptimise()
        return status, point


def _unit(index: int, count: int, sign: int) -> tuple[int, ...]:
    return (0,) * index + (sign,) + (0,) * (count - index - 1)


def _bound_row(index: int, value: int, count: int) -> tuple[tuple[int, ...], int]:
    """``v_index <= 0`` (value 0) or ``v_index >= 1`` (value 1) as a row."""
    return (_unit(index, count, 1), 1) if value else (_unit(index, count, -1), 0)


def _start_rows(cs: ConstraintSystem, zeros: Sequence[int]) -> Rows:
    """The start rows of every relaxation of the system under these zero
    fixings: box rows, presolved equality pairs, zero fixings; all hold
    at the origin."""
    n = cs.n_vars
    start: Rows = [(_unit(i, n, -1), -1) for i in range(n)]
    for row in cs.independent_equality_rows:
        start.append((row.vector, 0))
        start.append((tuple(-c for c in row.vector), 0))
    return start + [_bound_row(i, 0, n) for i in zeros]


class _Compiled:
    """A constraint system as the solver sees it under one set of zero
    fixings: the pending body (inequalities and the minimum-arc row),
    deduplicated and stacked; the rows ``verify`` reads, stacked; the
    lexicographic costs; and the root simplex on the start rows after its
    primal, with that primal's pivots in ``root.pivots``. ``_prepare``
    builds it on first use and keeps it on the system; it is never
    changed afterwards, and every node works on a copy of the root."""

    def __init__(self, cs: ConstraintSystem, zeros: Sequence[int]):
        n = cs.n_vars
        inequalities, equalities = _system_rows(cs)
        # lexicographic product objective; see module docstring
        self.costs = [
            c * (1 << n) + (1 << (n - 1 - i)) for i, c in enumerate(cs.objective)
        ]
        self.body = _Pending(inequalities, n)
        # a binary assignment keeps each row value within n * magnitude
        eq_matrix, eq_rhs, eq_magnitude = _stack(equalities, n)
        self.checks = (self.body.matrix, self.body.rhs, eq_matrix, eq_rhs)
        if max(self.body.magnitude, eq_magnitude) * (n + 1) >= 1 << 63:
            self.checks = tuple(a.astype(object) for a in self.checks)
        self.zeros = zeros
        self.root = _Simplex(_start_rows(cs, zeros), self.costs)

    def satisfies(self, assignment: Sequence[int]) -> bool:
        """Whether the assignment satisfies every original row (the
        presolve does not apply here)."""
        ineq_matrix, ineq_rhs, eq_matrix, eq_rhs = self.checks
        vector = np.array(assignment, dtype=ineq_matrix.dtype)
        return bool((ineq_matrix @ vector >= ineq_rhs).all()) and bool(
            (eq_matrix @ vector == eq_rhs).all()
        )


def _prepare(inst: ILPInstance) -> tuple[_Compiled, _Pending]:
    """The compiled system for the instance's zero fixings, built on first
    use and kept on the system, and the instance's pending rows: the body
    followed by the fixings to one."""
    _check_fixings(inst)
    cs = inst.system
    fixings = sorted(inst.fixings.items())
    zeros = tuple(i for i, v in fixings if v == 0)
    compiled = cs.solver_state.get(zeros)
    if compiled is None:
        # stored only once built, so a failed build leaves nothing behind
        compiled = cs.solver_state[zeros] = _Compiled(cs, zeros)
    ones = [_bound_row(i, 1, cs.n_vars) for i, v in fixings if v == 1]
    return compiled, compiled.body.extended(ones)


def _solve_lp(
    start: Rows, rows: Rows, costs: Sequence[int]
) -> tuple[str, list[Fraction]]:
    """Exact minimum of ``costs . v`` over ``start + rows``, v >= 0: one
    simplex on the start rows, which must hold at the origin, and the
    other rows by row generation."""
    pending = _Pending(rows, len(costs))
    status, point = pending.optimum(_Simplex(start, costs), pending.mask())
    num, den = point or ([], 1)
    return status, [Fraction(v, den) for v in num]


@_names_pair
def lp_relax(inst: ILPInstance) -> LPRelaxation:
    """Continuous relaxation: variables in [0, 1], fixings as rows.

    The value is an exact rational lower bound on the binary optimum; it
    cannot be unbounded because every variable is boxed.
    """
    compiled, pending = _prepare(inst)
    costs = inst.system.objective
    start = _start_rows(inst.system, compiled.zeros)
    status, point = _solve_lp(start, pending.rows, costs)
    if status != "optimal":
        return LPRelaxation(status="infeasible", value=None, point=None)
    value = sum(c * p for c, p in zip(costs, point))
    return LPRelaxation(status="optimal", value=Fraction(value), point=tuple(point))


@_names_pair
def solve(inst: ILPInstance) -> Solution:
    """Globally optimal binary assignment, or infeasible.

    Branch-and-bound, depth-first on the most fractional relaxation
    variable, children explored zero-branch first, each warm-started from
    its parent's tableau; every returned assignment is re-verified by
    integer row evaluation.
    """
    cs = inst.system
    n = cs.n_vars
    compiled, pending = _prepare(inst)
    costs = compiled.costs
    fixed = dict(inst.fixings)

    def combined_value(assignment: Sequence[int]) -> int:
        return sum(c * v for c, v in zip(costs, assignment))

    def verify(assignment: Sequence[int]) -> bool:
        if any(assignment[i] != v for i, v in fixed.items()):
            return False
        if any(v not in (0, 1) for v in assignment):
            return False
        return compiled.satisfies(assignment)

    best_assignment: list[int] | None = None
    best_combined: int | None = None
    for seed in inst.seeds:
        if len(seed) == n and verify(seed):
            value = combined_value(seed)
            if best_combined is None or value < best_combined:
                best_combined = value
                best_assignment = list(seed)

    nodes = 0
    pivots = compiled.root.pivots
    # each entry: the parent's solved simplex (the root's for the root) and
    # pending mask, plus the branching row the child adds (None for the root)
    stack: list[tuple[_Simplex, np.ndarray, tuple | None]] = [
        (compiled.root, pending.mask(), None)
    ]
    while stack:
        simplex, live, branch_row = stack.pop()
        nodes += 1
        simplex, live = simplex.copy(), live.copy()
        if branch_row is not None:
            simplex.add_rows([branch_row])
        status, point = pending.optimum(simplex, live)
        pivots += simplex.pivots
        if status != "optimal":
            continue
        num, den = point
        bound = -(-combined_value(num) // den)
        if best_combined is not None and bound >= best_combined:
            continue
        fractional = [i for i, v in enumerate(num) if v % den]
        if not fractional:
            candidate = [v // den for v in num]
            if verify(candidate):
                best_combined = combined_value(candidate)
                best_assignment = candidate
            continue
        branch = min(fractional, key=lambda i: (abs(2 * num[i] - den), i))
        stack.append((simplex, live, _bound_row(branch, 1, n)))
        stack.append((simplex, live, _bound_row(branch, 0, n)))

    if best_assignment is None:
        return Solution(
            status="infeasible", assignment=None, objective=None, nodes=nodes, pivots=pivots
        )
    if not verify(best_assignment):
        raise SolverError("internal error: optimum failed re-verification")
    return Solution(
        status="optimal",
        assignment=tuple(best_assignment),
        objective=sum(c * v for c, v in zip(cs.objective, best_assignment)),
        nodes=nodes,
        pivots=pivots,
    )


@_names_pair
def brute_force(inst: ILPInstance) -> Solution:
    """Exhaustive oracle over all binary assignments honouring the fixings.

    Same tie-break as solve: objective first, then lexicographically
    smallest assignment. Guarded by the enumeration budget.
    """
    cs = inst.system
    n = cs.n_vars
    if n > 25:
        raise SolverError(f"enumeration budget exceeded: {n} variables > 25")
    _check_fixings(inst)
    inequalities, equalities = _system_rows(cs)
    fixed = dict(inst.fixings)
    free = [i for i in range(n) if i not in fixed]
    depth = len(free)

    ineq_matrix = np.array([coefs for coefs, _ in inequalities], dtype=np.int64)
    ineq_rhs = np.array([rhs for _, rhs in inequalities], dtype=np.int64)
    eq_matrix = (
        np.array([coefs for coefs, _ in equalities], dtype=np.int64)
        if equalities
        else np.zeros((0, n), dtype=np.int64)
    )
    eq_rhs = np.array([rhs for _, rhs in equalities], dtype=np.int64)
    objective = np.array(cs.objective, dtype=np.int64)

    template = np.zeros(n, dtype=np.int64)
    for i, v in fixed.items():
        template[i] = v

    best_index: int | None = None
    best_value: int | None = None
    total = 1 << depth
    chunk = 1 << 18
    shifts = np.array([depth - 1 - j for j in range(depth)], dtype=np.int64)
    free_idx = np.array(free, dtype=np.int64)
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        codes = np.arange(start, stop, dtype=np.int64)
        X = np.tile(template, (stop - start, 1))
        if depth:
            X[:, free_idx] = (codes[:, None] >> shifts[None, :]) & 1
        feasible = np.all(X @ ineq_matrix.T >= ineq_rhs, axis=1)
        if eq_matrix.shape[0]:
            feasible &= np.all(X @ eq_matrix.T == eq_rhs, axis=1)
        if not feasible.any():
            continue
        values = np.where(feasible, X @ objective, np.iinfo(np.int64).max)
        pos = int(values.argmin())
        value = int(values[pos])
        if best_value is None or value < best_value:
            best_value = value
            best_index = start + pos
    if best_index is None:
        return Solution(status="infeasible", assignment=None, objective=None)
    assignment = list(int(v) for v in template)
    for j, i in enumerate(free):
        assignment[i] = (best_index >> (depth - 1 - j)) & 1
    return Solution(
        status="optimal", assignment=tuple(assignment), objective=best_value
    )
