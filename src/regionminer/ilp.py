"""Exact solver for binary programs of the region form.

Solves: minimise an integer objective over the binary variables
(m, x, y) subject to the region inequality rows, the trace-emptiness
equality rows, the minimum-arc row, binary bounds and variable fixings.

The algorithm is branch-and-bound with bounding by the continuous
relaxation. Every relaxation is solved by one dense simplex over all
variables using fraction-free integer pivoting, which is exact rational
arithmetic with the denominators cleared, so no tolerance enters anywhere.

Bounds, not rows: every variable keeps ``0 <= v <= 1`` as a bound, so a
nonbasic variable sits at one of its two bounds, and a fixing or a
branch-and-bound bound is a bound change that sets both bounds to one
value. Only constraint rows live in the tableau, each with a slack
``>= 0``. A simplex starts from the slack basis with every variable of
negative cost at its upper bound and every other one at zero, which is
dual feasible: a nonbasic reduced cost is non-negative at a lower bound
and non-positive at an upper one, and a fixed variable needs no sign. A
fixing keeps that, so the one pivot loop is a bounded dual simplex
(``_Simplex.reoptimise``) that brings every basic value within its
bounds. Its leaving row has the basic variable furthest outside its
bounds (ties: lower basis index); that variable leaves at the bound it
broke. The entering column is a nonbasic, non-fixed ``j`` whose move
away from its bound takes the leaving variable toward that bound,
minimising ``|cost[j] / T[row, j]|`` (compared by cross-multiplying;
ties: lower column index), and a row without such a column proves the
relaxation infeasible. The start rows are the presolved equality pairs
(below); every other row is written into the optimal tableau by
``_Simplex.add_rows``, each with a fresh basic slack, which keeps the
reduced costs as they are, and the dual simplex runs again. Rows enter
this way by row generation: the minimum-arc row and the body's
inequality rows wait in a pending set; after each optimum the most
violated of them, up to ``_ROW_BATCH`` per round, are added, until the
optimum satisfies every row and so is the optimum of the full body.

One root per system: the start rows, the pending body and the costs
depend only on the constraint system, never on the fixings, so
``_Compiled`` validates the rows, stacks them and builds the root
simplex once per system, and keeps it on the system
(``ConstraintSystem.solver_state``). Each pair copies the root and
fixes ``m = 0``, ``x_a = 1`` and ``y_b = 1`` on the copy; a
branch-and-bound child copies its parent's optimal tableau and fixes the
branching variable, so every node is a warm start. No node records
which pending rows its path has added: a row in the tableau has a slack
``>= 0``, so it holds at every optimum and is never violated again. The
root itself is never changed, and ``Solution.pivots`` sums the dual
pivots of every node. ``lp_relax`` minimises the plain objective, not
the lexicographic one, so it builds one simplex of its own on the same
start rows and pending rows.

The dual loop falls back to Bland's rule (the lowest basis index
leaves) after ``bland_after`` pivots and raises ``SolverError`` after
``_PIVOT_LIMIT`` pivots.

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
``object`` the same way. The last tableau column is the right-hand side
with every nonbasic variable at zero; the basic values subtract the
columns of the variables that sit away from zero, which is where a bound
change shows. That product, the pending rows' slacks and the
re-verification of an optimum are matrix products, and ``_dot`` is the
one place where such a row product chooses between ``int64`` and Python
ints: ``int64`` when the largest matrix entry times the vector's
absolute sum, a bound on every partial sum, is below 2**63. The cost
row stays a list of Python ints, because the lexicographic objective
below scales it by 2**n. The pivot rules see the same integers either
way, so the pivot sequence does not depend on the representation.

LP points: every value is an integer numerator over the one tableau
denominator ``den``, so an LP point is its numerators with ``den``.
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
# pivots one dual re-optimisation may take
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
    pivots: int = field(default=0, compare=False)  # dual pivots over all nodes


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
    """Dense bounded dual simplex over the rationals, fraction-free.

    Constraints are ``coefs . v >= rhs`` with ``lower <= v <= upper`` per
    variable, initially 0 and a finite upper bound. The tableau holds
    integers with one shared positive denominator (the previous pivot);
    a negative pivot is followed by a global sign flip, so the
    denominator stays positive. Its last column is the right-hand side
    with every nonbasic variable at zero; ``raised`` maps each nonbasic
    variable away from zero to its value. Construction builds the slack
    basis on the start rows without pivoting; ``fix``, ``add_rows`` and
    ``reoptimise`` do the rest (see the module docstring).
    """

    def __init__(self, rows: Rows, costs: Sequence[int], upper: Sequence[int]):
        n, m = len(costs), len(rows)
        self.n = n
        self.den = 1
        self.pivots = 0
        self.width = n + m + 1
        # row i reads slack_i - coefs . v = -rhs, with slack_i basic
        matrix, _ = _stack(rows, n)
        self.tableau = np.zeros((m, self.width), dtype=matrix.dtype)
        self.tableau[:, :n] = -matrix[:, :n]
        self.tableau[np.arange(m), n + np.arange(m)] = 1
        self.tableau[:, -1] = matrix[:, n]
        self.basis = list(range(n, n + m))
        # reduced cost of each column (the initial basics all cost zero)
        self.cost = list(costs) + [0] * m
        self.lower = [0] * n
        self.upper = list(upper)
        # dual feasible: each variable of negative cost sits at its upper bound
        self.raised = {j: upper[j] for j, c in enumerate(costs) if c < 0 and upper[j]}

    def copy(self) -> "_Simplex":
        """An independent copy of the tableau with its pivot count at 0."""
        twin = copy.copy(self)
        twin.tableau = self.tableau.copy()
        twin.basis = list(self.basis)
        twin.cost = list(self.cost)
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
        self.raised.pop(index, None)
        if value and index not in self.basis:
            self.raised[index] = value

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

    def _basic_values(self) -> list[int]:
        """``den`` times the value of each basic variable: the rhs column
        less the raised columns times their values."""
        if not self.raised:
            return self.tableau[:, -1].tolist()
        block = self.tableau[:, list(self.raised) + [-1]]
        weights = [-v for v in self.raised.values()] + [1]
        return _dot(block, weights, _magnitude(block)).tolist()

    def reoptimise(self) -> tuple[str, Point | None]:
        """Bounded dual simplex: the reduced costs stay dual feasible while
        pivots bring every basic value within its bounds."""
        n, basis, lower, upper = self.n, self.basis, self.lower, self.upper
        pivots = 0
        bland_after = 200 + 40 * len(self.tableau)
        while True:
            values = self._basic_values()
            den = self.den
            row, gap, target = None, 0, 0
            for i, (var, value) in enumerate(zip(basis, values)):
                low, high = (lower[var], upper[var]) if var < n else (0, None)
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
            leaving, falls = basis[row], values[row] > target * den
            line = self.tableau[row].tolist()
            cost = self.cost
            entering = None
            for j in range(self.width - 1):
                coef = line[j]
                if not coef or j == leaving:
                    continue
                at_upper = False
                if j < n:
                    if lower[j] == upper[j]:
                        continue  # a fixed variable never enters
                    at_upper = self.raised.get(j, 0) == upper[j]
                # moving j off its bound must move the leaving variable to target
                if (coef > 0) != (falls != at_upper):
                    continue
                # smallest |cost[j] / coef|, compared by cross-multiplying
                if entering is None or abs(cost[j] * line[entering]) < abs(
                    cost[entering] * coef
                ):
                    entering = j
            if entering is None:
                return "infeasible", None
            self._pivot(row, entering)
            self.raised.pop(entering, None)
            if leaving < n and target:
                self.raised[leaving] = target
            pivots += 1
            if pivots > _PIVOT_LIMIT:
                raise SolverError("dual simplex failed to terminate")

    def _point(self, values: list[int]) -> Point:
        num = [0] * self.n
        for var, value in zip(self.basis, values):
            if var < self.n:
                num[var] = value
        for var, value in self.raised.items():
            num[var] = value * self.den
        return num, self.den


def _magnitude(array: np.ndarray) -> int:
    """Largest absolute entry of an integer array, exactly (0 if empty)."""
    if not array.size:
        return 0
    return max(abs(int(array.max())), abs(int(array.min())))


def _dot(matrix: np.ndarray, vector: Sequence[int], magnitude: int) -> np.ndarray:
    """``matrix @ vector`` exactly, given ``magnitude`` >= every absolute
    entry of the matrix. ``max(magnitude, 1) * sum(|vector|)`` bounds
    every partial sum and every vector entry: below 2**63 the product runs
    in ``int64``, otherwise in Python ints."""
    if matrix.dtype != object and max(magnitude, 1) * sum(map(abs, vector)) < 1 << 63:
        return matrix @ np.array(vector, dtype=np.int64)
    return matrix.astype(object, copy=False) @ np.array(vector, dtype=object)


def _stack(rows: Rows, width: int) -> tuple[np.ndarray, int]:
    """The rows as one matrix, each line a row's coefficients followed by
    its negated rhs, so ``matrix @ (v + [1])`` is every row's slack at
    ``v``; ``int64`` when every entry and its negation fit and ``object``
    otherwise, plus the largest absolute entry."""
    lines = [(*coefs, -rhs) for coefs, rhs in rows]
    try:
        matrix = np.array(lines, dtype=np.int64).reshape(len(rows), width + 1)
    except OverflowError:
        matrix = np.array(lines, dtype=object).reshape(len(rows), width + 1)
    magnitude = _magnitude(matrix)
    if magnitude == 1 << 63:  # -2**63 has no int64 negation
        matrix = matrix.astype(object)
    return matrix, magnitude


class _Pending:
    """Rows that enter a relaxation by row generation, deduplicated and
    stacked once: a system's body is shared by all its pairs and nodes."""

    def __init__(self, rows: Rows, width: int):
        self.rows = list(dict.fromkeys(rows))
        self.matrix, self.magnitude = _stack(self.rows, width)

    def optimum(self, simplex: _Simplex) -> tuple[str, Point | None]:
        """Re-optimise ``simplex``, then add the most violated rows and
        re-optimise again until the optimum satisfies every row; an
        optimum over a subset of the rows that is feasible for all of them
        is optimal for all of them."""
        status, point = simplex.reoptimise()
        while status == "optimal":
            num, den = point
            slack = _dot(self.matrix, num + [den], self.magnitude)  # den * slack
            violated = np.flatnonzero(slack < 0).tolist()
            if not violated:
                break
            violated.sort(key=lambda i: (slack[i], self.rows[i][0]))
            chosen = violated[:_ROW_BATCH]
            simplex.add_rows(sorted(self.rows[i] for i in chosen))
            status, point = simplex.reoptimise()
        return status, point


class _Compiled:
    """A constraint system as the solver sees it: the start rows (the
    presolved equality pairs); the pending body (inequalities and the
    minimum-arc row), deduplicated and stacked; all equality rows,
    stacked for ``verify``; the lexicographic costs; and the root simplex
    on the start rows with every variable boxed in [0, 1]. ``_prepare``
    builds it on first use and keeps it on the system; it is never
    changed afterwards, and every node works on a copy of the root."""

    def __init__(self, cs: ConstraintSystem):
        n = cs.n_vars
        inequalities, equalities = _system_rows(cs)
        # lexicographic product objective; see module docstring
        self.costs = [
            c * (1 << n) + (1 << (n - 1 - i)) for i, c in enumerate(cs.objective)
        ]
        self.body = _Pending(inequalities, n)
        self.equalities, self.equality_magnitude = _stack(equalities, n)
        self.start: Rows = []
        for row in cs.independent_equality_rows:
            self.start.append((row.vector, 0))
            self.start.append((tuple(-c for c in row.vector), 0))
        self.root = _Simplex(self.start, self.costs, [1] * n)

    def satisfies(self, assignment: Sequence[int]) -> bool:
        """Whether the assignment satisfies every original row (the
        presolve does not apply here)."""
        point = list(assignment) + [1]
        body = self.body
        return bool((_dot(body.matrix, point, body.magnitude) >= 0).all()) and bool(
            (_dot(self.equalities, point, self.equality_magnitude) == 0).all()
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


def _solve_lp(
    start: Rows,
    rows: Rows,
    costs: Sequence[int],
    upper: Sequence[int],
    fixings: dict[int, int] | None = None,
) -> tuple[str, list[Fraction]]:
    """Exact minimum of ``costs . v`` over ``start + rows`` with
    ``0 <= v <= upper`` and the fixings: one simplex on the start rows,
    and the other rows by row generation."""
    simplex = _Simplex(start, costs, upper)
    for index, value in (fixings or {}).items():
        simplex.fix(index, value)
    pending = _Pending(rows, len(costs))
    status, point = pending.optimum(simplex)
    num, den = point or ([], 1)
    return status, [Fraction(v, den) for v in num]


@_names_pair
def lp_relax(inst: ILPInstance) -> LPRelaxation:
    """Continuous relaxation: variables bounded in [0, 1], fixings as
    bounds, the plain objective as costs.

    The value is an exact rational lower bound on the binary optimum; it
    cannot be unbounded because every variable is bounded.
    """
    compiled = _prepare(inst)
    costs = inst.system.objective
    status, point = _solve_lp(
        compiled.start, compiled.body.rows, costs, [1] * len(costs), inst.fixings
    )
    if status != "optimal":
        return LPRelaxation(status="infeasible", value=None, point=None)
    value = sum(c * p for c, p in zip(costs, point))
    return LPRelaxation(status="optimal", value=Fraction(value), point=tuple(point))


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
