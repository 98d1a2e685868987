"""Exact solver for binary programs of the region form.

Solves: minimise an integer objective over the binary variables
(m, x, y) subject to the region inequality rows, the trace-emptiness
equality rows, the minimum-arc row, binary bounds and variable fixings.

The algorithm is branch-and-bound with bounding by the continuous
relaxation. Every relaxation is solved by one simplex over all
variables using fraction-free integer pivoting, which is exact rational
arithmetic with the denominators cleared, so no tolerance enters anywhere.

Bounds, not rows: every variable keeps a lower and an upper bound, so a
nonbasic variable sits at one of its two bounds. A structural variable
has ``0 <= v <= 1``, and a fixing or a branch-and-bound bound is a bound
change that sets both bounds to one value. Only constraint rows live in
the tableau, each with a slack variable: ``>= 0`` for an inequality,
fixed at 0 for an equality. A simplex starts from the slack basis with
every variable of negative cost at its upper bound and every other one
at zero, which is dual feasible: a nonbasic reduced cost is non-negative
at a lower bound and non-positive at an upper one, and a fixed variable
needs no sign. A fixing keeps that, so the one pivot loop is a bounded
dual simplex (``_Simplex.reoptimise``) that brings every basic value
within its bounds. Its leaving row has the basic variable furthest
outside its bounds (ties: lower variable id); that variable leaves at
the bound it broke. The entering column is a nonbasic, non-fixed ``j``
whose move away from its bound takes the leaving variable toward that
bound, minimising ``|cost[j] / T[row][j]|`` (compared by
cross-multiplying; ties: lower variable id), and a row without such a
column proves the relaxation infeasible; a fixed variable never enters.
The start rows are the equalities (below); every other row is written
into the optimal tableau by ``_Simplex.add_rows``, each with a fresh
basic slack, which keeps the reduced costs as they are, and the dual
simplex runs again. Rows enter this way by row generation: the
minimum-arc row and the body's inequality rows wait in a pending set;
after each optimum the most violated of them, up to ``_ROW_BATCH`` per
round, are added, until the optimum satisfies every row and so is the
optimum of the full body.

One root per system: the start rows, the pending body and the costs
depend only on the constraint system, never on the fixings, so
``_Compiled`` validates the rows, stores them and builds the root
simplex once per system, and keeps it on the system
(``ConstraintSystem.solver_state``). The start rows are the trace
equalities, each ``m + sum_a c_a (x_a - y_a) = 0``: hundreds in a log,
of rank at most |A|+1. ``_Simplex.drop_start_slacks`` pivots each one's
slack out of the root's basis once, in row order, and deletes its
column; a row whose slack finds no column to enter is all zeros, a
combination of the rows before it, and is deleted too. So the root
keeps the first independent equalities, which cut out the same affine
set, and no pair repeats those pivots; ``verify`` still checks every
original row. Each pair copies the root and fixes ``m = 0``, ``x_a = 1``
and ``y_b = 1`` on the copy; a branch-and-bound child copies its
parent's optimal tableau and fixes the branching variable, so every node
is a warm start. No node records which pending rows its path has added:
a row in the tableau keeps its slack ``>= 0``, so it holds at every
optimum and is never violated again. The root itself is never changed,
and ``Solution.pivots`` sums the dual pivots of the pair's nodes, none
of the root's.

The dual loop falls back to Bland's rule (the lowest variable id
leaves) after ``_BLAND_BASE + _BLAND_PER_ROW * rows`` pivots and raises
``SolverError`` after ``_PIVOT_LIMIT`` pivots.

Tableau: a simplex keeps a condensed tableau of Python-int rows with one
column per nonbasic variable plus the right-hand side, so its width
stays ``n - e + 1`` (``e`` independent equalities) for a whole solve however
many rows join it. Row ``i`` reads ``den * basic_i + sum_j T[i][j] *
nonbasic_j = T[i][-1]``; ``basis`` names each row's variable and
``nonbasic`` each column's (structural variables are ``0 .. n-1``,
slacks follow in the order their rows joined). The last column is the right-hand side with every nonbasic
variable at zero; the basic values subtract the columns of the nonbasic
variables that sit away from zero (``raised``), which is where a bound
change shows. A pivot is the fraction-free Jordan exchange (Bareiss) of
the leaving and the entering variable: with ``sign`` the sign of the
pivot, the pivot row is multiplied by ``sign`` and takes ``sign * den``
in the pivot column, and every other row, the reduced costs included,
becomes ``(|piv| * a - sign * f * b) // den`` with ``-sign * f`` in the
pivot column (``f`` its pivot-column entry, ``b`` the pivot row's).
Every entry stays an integer, so the floor division is exact, and
``|piv|`` is the new positive ``den``. When ``|piv| == den``, a row with
``f == 0`` is kept as it is and any other row changes only where the
pivot row is nonzero. No row is changed in place, so a copy of a simplex
shares its rows. Python ints do not overflow, so any input is solved
exactly, and the lexicographic costs below, scaled by ``2**n``, need no
other care. The pending body and the equalities are stored column-wise,
so the slacks at an LP point add up only the columns of its nonzero
entries. numpy serves only ``brute_force``.

LP points: every value is an integer numerator over the one tableau
denominator ``den``, so an LP point is its numerators with ``den``.
Row slacks (times ``den``), the node bound, integrality (``den`` divides
the numerator) and the branching choice are all read from those
integers, so no ``Fraction`` is ever built.

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
from typing import Sequence

from .errors import SolverError
from .regions import ConstraintSystem, ILPInstance

_ROW_BATCH = 24
# pivots one dual re-optimisation may take
_PIVOT_LIMIT = 100000
# pivots before a re-optimisation switches to Bland's rule, per call
# and per tableau row
_BLAND_BASE = 200
_BLAND_PER_ROW = 40

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
    pivots: int = field(default=0, compare=False)  # dual pivots over all nodes


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
    """Bounded dual simplex over the rationals on a condensed,
    fraction-free tableau (see the module docstring).

    Constraints are ``coefs . v >= rhs``, each with the slack
    ``coefs . v - rhs`` as a variable like the others: a start row is an
    equality, its slack fixed at 0, and an added row's slack is in
    ``[0, None]``. The structural variables start in ``[0, upper]``.
    Construction builds the slack basis on the start rows without
    pivoting; ``drop_start_slacks`` pivots them out (or drops them) once,
    on the root, and ``fix``, ``add_rows`` and ``reoptimise`` do the rest.
    """

    def __init__(self, rows: Rows, costs: Sequence[int], upper: Sequence[int]):
        n = len(costs)
        self.n = n
        self.den = 1
        self.pivots = 0
        # row i reads slack_i - coefs . v = -rhs, with slack_i basic
        self.tableau = [[-c for c in coefs] + [-rhs] for coefs, rhs in rows]
        self.basis = list(range(n, n + len(rows)))
        self.nonbasic = list(range(n))
        # reduced cost of each column (the initial basics all cost zero);
        # the last entry takes the same updates and is never read
        self.cost = list(costs) + [0]
        self.lower = [0] * (n + len(rows))
        self.upper = list(upper) + [0] * len(rows)
        # dual feasible: each variable of negative cost sits at its upper
        # bound; keys are columns
        self.raised = {j: upper[j] for j, c in enumerate(costs) if c < 0 and upper[j]}

    def copy(self) -> "_Simplex":
        """An independent copy with its pivot count at 0. Rows and the cost
        row are never changed in place, so the copy shares them."""
        twin = copy.copy(self)
        twin.tableau = list(self.tableau)
        twin.basis = list(self.basis)
        twin.nonbasic = list(self.nonbasic)
        twin.lower = list(self.lower)
        twin.upper = list(self.upper)
        twin.raised = dict(self.raised)
        twin.pivots = 0
        return twin

    def fix(self, index: int, value: int) -> None:
        """Set both bounds of variable ``index`` to ``value``. A nonbasic
        variable moves there; a basic one outside it leaves the basis in
        the next ``reoptimise``. A fixed variable needs no reduced-cost
        sign, so the tableau stays dual feasible."""
        self.lower[index] = self.upper[index] = value
        if index in self.nonbasic:
            col = self.nonbasic.index(index)
            self.raised.pop(col, None)
            if value:
                self.raised[col] = value

    def _pivot(self, row: int, col: int) -> None:
        """Fraction-free Jordan exchange of the basic variable of ``row``
        with the nonbasic variable of ``col``."""
        den, line = self.den, self.tableau[row]
        sign = 1 if line[col] > 0 else -1
        size = sign * line[col]
        nonzero = [j for j, b in enumerate(line) if b]

        def exchange(other: list[int]) -> list[int]:
            factor = sign * other[col]
            if size != den:
                new = [(size * a - factor * b) // den for a, b in zip(other, line)]
            elif not factor:
                return other
            else:
                new = list(other)
                for j in nonzero:
                    new[j] -= factor * line[j] // den
            new[col] = -factor
            return new

        pivot_row = [sign * b for b in line]
        pivot_row[col] = sign * den
        self.tableau = [
            pivot_row if i == row else exchange(other)
            for i, other in enumerate(self.tableau)
        ]
        self.cost = exchange(self.cost)
        self.den = size
        self.basis[row], self.nonbasic[col] = self.nonbasic[col], self.basis[row]
        self.pivots += 1

    def add_rows(self, rows: Rows) -> None:
        """Append rows ``coefs . v >= rhs`` to the optimal tableau.

        Each row gets a fresh basic slack in ``[0, None]`` and is written
        in the current basis in fraction-free form, ``den * line - sum_i
        line[basis_i] * T_i`` over the rows of structural basic variables,
        where ``line`` is ``-coefs`` on the nonbasic columns and ``-rhs``
        in the last one; its slack's coefficient is then ``den``. Neither
        the reduced costs nor the width change. Call ``reoptimise``
        afterwards.
        """
        n, den = self.n, self.den
        structural = [(var, T) for var, T in zip(self.basis, self.tableau) if var < n]
        for coefs, rhs in rows:
            new = [-den * coefs[var] if var < n else 0 for var in self.nonbasic]
            new.append(-den * rhs)
            for var, T in structural:
                if coefs[var]:
                    new = [a + coefs[var] * b for a, b in zip(new, T)]
            self.tableau.append(new)
            self.basis.append(len(self.lower))
            self.lower.append(0)
            self.upper.append(None)

    def _basic_values(self) -> list[int]:
        """``den`` times the value of each basic variable: the rhs column
        less the raised columns times their values."""
        tableau = self.tableau
        values = [line[-1] for line in tableau]
        for j, v in self.raised.items():
            values = [a - v * line[j] for a, line in zip(values, tableau)]
        return values

    def reoptimise(self) -> tuple[str, Point | None]:
        """Bounded dual simplex: the reduced costs stay dual feasible while
        pivots bring every basic value within its bounds."""
        basis, raised, lower, upper = self.basis, self.raised, self.lower, self.upper
        pivots = 0
        bland_after = _BLAND_BASE + _BLAND_PER_ROW * len(self.tableau)
        while True:
            values = self._basic_values()
            den = self.den
            row, gap, target = None, 0, 0
            for i, (var, value) in enumerate(zip(basis, values)):
                low, high = lower[var], upper[var]
                if value < low * den:
                    miss, bound = low * den - value, low
                elif high is not None and value > high * den:
                    miss, bound = value - high * den, high
                else:
                    continue
                if row is None or (
                    var < basis[row]
                    if pivots > bland_after  # Bland's rule, guarantees termination
                    else miss > gap or (miss == gap and var < basis[row])
                ):
                    row, gap, target = i, miss, bound
            if row is None:
                return "optimal", self._point(values)
            entering = self._entering(row, values[row] > target * den)
            if entering is None:
                return "infeasible", None
            self._pivot(row, entering)
            # the column now holds the leaving variable, at its target
            raised.pop(entering, None)
            if target:
                raised[entering] = target
            pivots += 1
            if pivots > _PIVOT_LIMIT:
                raise SolverError("dual simplex failed to terminate")

    def drop_start_slacks(self) -> None:
        """Pivot every start row's slack out of the basis on a fresh
        simplex, then delete its column, which as a fixed 0 adds nothing.
        The origin satisfies the start rows, so ``reoptimise`` ends at
        their optimum; a slack still basic there sits at 0, both its
        bounds, so a degenerate pivot either way keeps dual feasibility.
        A slack with no column to enter either way is a combination of
        the rows pivoted before it, all zeros, so its row is deleted."""
        self.reoptimise()
        row = 0
        while row < len(self.basis):
            if self.basis[row] >= self.n:
                col = self._entering(row, True)
                if col is None:
                    col = self._entering(row, False)
                if col is None:  # a combination of the rows pivoted before it
                    del self.tableau[row], self.basis[row]
                    continue
                self._pivot(row, col)
                self.raised.pop(col, None)  # the column now holds the slack, at 0
            row += 1
        del self.lower[self.n :], self.upper[self.n :]  # added slacks count from n
        keep = [j for j, var in enumerate(self.nonbasic) if var < self.n]
        position = {j: k for k, j in enumerate(keep)}
        keep.append(len(self.nonbasic))  # the right-hand side
        self.tableau = [[line[j] for j in keep] for line in self.tableau]
        self.cost = [self.cost[j] for j in keep]
        self.nonbasic = [self.nonbasic[j] for j in keep[:-1]]
        self.raised = {position[j]: value for j, value in self.raised.items()}
        self.pivots = 0

    def _entering(self, row: int, falls: bool) -> int | None:
        """The ratio test: the entering column for the basic variable of
        ``row`` when it must fall (``falls``) or rise, or None."""
        line, cost, nonbasic = self.tableau[row], self.cost, self.nonbasic
        lower, upper, raised = self.lower, self.upper, self.raised
        entering = None
        for j, var in enumerate(nonbasic):
            coef = line[j]
            if not coef or lower[var] == upper[var]:
                continue  # a fixed variable never enters
            # moving j off its bound must move the leaving variable to target
            if (coef > 0) != (falls != (raised.get(j, 0) == upper[var])):
                continue
            if entering is None:
                entering = j
                continue
            # smallest |cost[j] / coef|, compared by cross-multiplying
            left, right = abs(cost[j] * line[entering]), abs(cost[entering] * coef)
            if left < right or (left == right and var < nonbasic[entering]):
                entering = j
        return entering

    def _point(self, values: list[int]) -> Point:
        num = [0] * self.n
        for var, value in zip(self.basis, values):
            if var < self.n:
                num[var] = value
        for j, value in self.raised.items():
            num[self.nonbasic[j]] = value * self.den
        return num, self.den


class _Pending:
    """Rows ``coefs . v >= rhs``, deduplicated and stored column-wise: a
    system's body, which enters a relaxation by row generation and is
    shared by all its pairs and nodes, or its equalities for
    verification."""

    def __init__(self, rows: Rows, width: int):
        self.rows = list(dict.fromkeys(rows))
        self.columns = [[coefs[j] for coefs, _ in self.rows] for j in range(width)]
        self.rhs = [rhs for _, rhs in self.rows]

    def slacks(self, num: Sequence[int], den: int) -> list[int]:
        """``den`` times each row's slack at the point ``num / den``; only
        the point's nonzero entries add a column."""
        slack = [-rhs * den for rhs in self.rhs]
        for value, column in zip(num, self.columns):
            if value:
                slack = [s + value * c for s, c in zip(slack, column)]
        return slack

    def optimum(self, simplex: _Simplex) -> tuple[str, Point | None]:
        """Re-optimise ``simplex``, then add the most violated rows and
        re-optimise again until the optimum satisfies every row; an
        optimum over a subset of the rows that is feasible for all of them
        is optimal for all of them."""
        status, point = simplex.reoptimise()
        while status == "optimal":
            slack = self.slacks(*point)
            violated = [i for i, s in enumerate(slack) if s < 0]
            if not violated:
                break
            violated.sort(key=lambda i: (slack[i], self.rows[i][0]))
            simplex.add_rows(sorted(self.rows[i] for i in violated[:_ROW_BATCH]))
            status, point = simplex.reoptimise()
        return status, point


class _Compiled:
    """A constraint system as the solver sees it: the pending body
    (inequalities and the minimum-arc row); all equality rows, for
    ``verify``; the lexicographic costs; and the root simplex, optimal on
    the start rows (those equalities) in the box [0, 1], with their
    slacks and the dependent rows dropped. ``_prepare`` builds it on first
    use and keeps it on the system; it is never changed afterwards, and
    every node works on a copy of the root."""

    def __init__(self, cs: ConstraintSystem):
        n = cs.n_vars
        inequalities, equalities = _system_rows(cs)
        # lexicographic product objective; see module docstring
        self.costs = [
            c * (1 << n) + (1 << (n - 1 - i)) for i, c in enumerate(cs.objective)
        ]
        self.body = _Pending(inequalities, n)
        self.equalities = _Pending(equalities, n)
        self.root = _Simplex(self.equalities.rows, self.costs, [1] * n)
        self.root.drop_start_slacks()

    def satisfies(self, assignment: Sequence[int]) -> bool:
        """Whether the assignment satisfies every original row, the
        equalities the root dropped included."""
        return all(s >= 0 for s in self.body.slacks(assignment, 1)) and not any(
            self.equalities.slacks(assignment, 1)
        )


def _prepare(inst: ILPInstance) -> _Compiled:
    """The instance's compiled system, built on first use and kept on the
    system."""
    _check_fixings(inst)
    state = inst.system.solver_state
    if "compiled" not in state:
        # stored only once built, so a failed build leaves nothing behind
        state["compiled"] = _Compiled(inst.system)
    return state["compiled"]


@_names_pair
def solve(inst: ILPInstance) -> Solution:
    """Globally optimal binary assignment, or infeasible.

    Branch-and-bound, depth-first on the most fractional relaxation
    variable, children explored zero-branch first; the pair's root is a
    copy of the system's root with the fixings as bounds, and each child
    a copy of its parent's optimal tableau with the branching variable
    fixed. Every returned assignment is re-verified by integer row
    evaluation.
    """
    cs = inst.system
    compiled = _prepare(inst)
    pending = compiled.body
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
    nodes = pivots = 0
    root = compiled.root.copy()
    for index, value in fixed.items():
        root.fix(index, value)
    # the simplex of every node still to visit, not yet optimised
    stack = [root]
    while stack:
        simplex = stack.pop()
        nodes += 1
        status, point = pending.optimum(simplex)
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
        for value in (1, 0):  # the zero branch is popped first
            child = simplex.copy()
            child.fix(branch, value)
            stack.append(child)

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
    smallest assignment. Guarded by the enumeration budget. It needs
    numpy, which the package installs only with its ``test`` extra.
    """
    cs = inst.system
    n = cs.n_vars
    if n > 25:
        raise SolverError(f"enumeration budget exceeded: {n} variables > 25")
    _check_fixings(inst)
    # the oracle enumerates assignments in array batches; solve needs no numpy
    import numpy as np

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
