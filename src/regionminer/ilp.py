"""Exact solver for binary programs of the region form.

Solves: minimise an integer objective over the binary variables
(m, x, y) subject to the region inequality rows, the trace-emptiness
equality rows, the minimum-arc row, binary bounds and variable fixings.

The algorithm is branch-and-bound with bounding by the continuous
relaxation. The relaxation is solved by a dense two-phase simplex using
fraction-free integer pivoting, which is exact rational arithmetic with
the denominators cleared, so no tolerance enters anywhere.

Row generation: a large constraint body (more than
``_ROW_GENERATION_THRESHOLD`` rows) is solved on an active subset, the
mandatory box and equality rows, and the most violated other rows, up to
``_ROW_BATCH`` per round, are added until the relaxed optimum satisfies
everything; it is then the optimum of the full body. All rounds share one
simplex. The added rows are written into the optimal tableau, each with a
fresh basic slack, which keeps every reduced cost non-negative, and a dual
simplex restores a non-negative right-hand side: the leaving row has the
most negative rhs (ties: lower basis index), the entering column is the
non-artificial ``j`` with a negative entry in that row minimising
``cost[j] / -T[row, j]`` (compared by cross-multiplying; ties: lower
column index), and a row without such a column proves the body
infeasible. Like the primal phases, the dual loop falls back to Bland's
rule (leaving row: lowest basis index) after ``bland_after`` pivots and
raises ``SolverError`` after ``_PIVOT_LIMIT``. Smaller bodies are solved
in one LP.

Tableau: the constraint rows of a simplex live in one 2-D numpy ``int64``
array, and each fraction-free pivot is the single array expression
``(piv * T - outer(T[:, col], T[row])) // den`` with the pivot row put
back afterwards. Fraction-free pivoting keeps every entry an integer, so
the floor division is exact. Before each pivot a guard checks that every
entry is below 2**31 in magnitude; then every product stays below 2**62
and every difference below 2**63, so nothing wraps. When the check fails
the tableau becomes an ``object`` array of Python ints for the rest of
that simplex and the same expression runs on it, so any input is solved
exactly. Rows added by row generation are built in ``int64`` only while
``max(den, |T|)`` times a row's absolute coefficient sum stays below
2**62, and otherwise turn the tableau into ``object`` the same way. The
pending rows' slacks and the re-verification of an optimum are matrix
products, in ``int64`` when a bound on every partial sum allows it and in
Python ints otherwise. The cost rows stay lists of Python ints, because the
lexicographic objective below scales them by 2**depth. The pivot rules
(entering column, ratio test with its tie-break on the basis index,
Bland's rule) see the same integers either way, so the pivot sequence
does not depend on the representation.

Presolve: the trace-emptiness equalities all read
``m + sum_a c_a (x_a - y_a) = 0``, so they have rank at most |A|+1 while
a log can contribute hundreds of them. Before an equality becomes the
two mandatory ``>=`` rows every relaxation carries, the rows are reduced
to their first linearly independent subset
(``ConstraintSystem.independent_equality_rows``, found by exact integer
elimination and cached on the system, so all pairs and nodes share one
computation). The subset keeps the original integer rows and spans the
same affine set, so every relaxation has exactly the same feasible
region. Re-verification of an optimum still checks every original row.

Determinism: among equal-objective optima the solver returns the
lexicographically smallest assignment in (m, x, y) order. The objective
is minimised in a lexicographic product with the assignment itself, which
makes the optimum unique, so results cannot depend on exploration order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import SolverError
from .regions import ILPInstance

_ROW_GENERATION_THRESHOLD = 48
_ROW_BATCH = 24
# Bound on every tableau entry before an int64 pivot: each product of two
# entries then stays below 2**62 and each difference of two below 2**63.
_INT64_SAFE = 1 << 31
# pivots one simplex phase or one dual re-optimisation may take
_PIVOT_LIMIT = 100000

Rows = list[tuple[tuple[int, ...], int]]


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


def _instance_rows(inst: ILPInstance) -> tuple[Rows, Rows]:
    """All constraint rows over the full variable vector.

    Returns (inequalities, equalities); an inequality (coefs, rhs) means
    coefs . v >= rhs, an equality means coefs . v == rhs.
    """
    cs = inst.system
    n = cs.n_vars
    for row in cs.inequality_rows:
        if len(row.vector) != n:
            raise SolverError("inequality row dimension does not match the alphabet")
    for row in cs.equality_rows:
        if len(row.vector) != n:
            raise SolverError("equality row dimension does not match the alphabet")
    if len(cs.objective) != n:
        raise SolverError("objective dimension does not match the alphabet")
    for index, value in inst.fixings.items():
        if not 0 <= index < n:
            raise SolverError(f"fixing index {index} out of range")
        if value not in (0, 1):
            raise SolverError(f"fixing value must be binary, got {value}")
    inequalities: Rows = [(row.vector, 0) for row in cs.inequality_rows]
    inequalities.append((cs.min_arc_row(), 1))
    equalities: Rows = [(row.vector, 0) for row in cs.equality_rows]
    return inequalities, equalities


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


def _substitute(rows: Rows, free: Sequence[int], assigned: dict[int, int]) -> Rows:
    out: Rows = []
    for coefs, rhs in rows:
        shifted = rhs - sum(coefs[i] * v for i, v in assigned.items() if coefs[i])
        out.append((tuple(coefs[i] for i in free), shifted))
    return out


class _Simplex:
    """Two-phase dense simplex over the rationals, fraction-free.

    Constraints are ``coefs . v >= rhs`` with v >= 0. The tableau holds
    integers with one shared positive denominator (the previous pivot).
    Pivots chosen by the ratio test are positive; the only negative pivots
    occur when driving a degenerate artificial out of the basis, and the
    tableau is renormalised afterwards so the denominator stays positive.

    The constraint rows form one array (see the module docstring); a
    dropped row is zeroed, so later pivots leave it zero.
    """

    def __init__(self, rows: Rows, costs: Sequence[int]):
        self.n = len(costs)
        self.den = 1
        self.pivots = 0
        self.basis: list[int] = []
        self.dropped: set[int] = set()
        n = self.n
        m = len(rows)
        art_rows = [i for i, (_, rhs) in enumerate(rows) if rhs > 0]
        art_index = {row: k for k, row in enumerate(art_rows)}
        self.width = n + m + len(art_rows) + 1
        self.art_cols = frozenset(n + m + k for k in range(len(art_rows)))
        lines: list[list[int]] = []
        for i, (coefs, rhs) in enumerate(rows):
            line = [0] * self.width
            if rhs > 0:
                line[: n] = list(coefs)
                line[n + i] = -1
                line[n + m + art_index[i]] = 1
                line[-1] = rhs
                self.basis.append(n + m + art_index[i])
            else:
                line[: n] = [-c for c in coefs]
                line[n + i] = 1
                line[-1] = -rhs
                self.basis.append(n + i)
            lines.append(line)
        try:
            self.tableau = np.array(lines, dtype=np.int64).reshape(m, self.width)
        except OverflowError:
            self.tableau = np.array(lines, dtype=object).reshape(m, self.width)
        # phase 2 reduced costs (initial basics all cost zero)
        self.cost2 = list(costs) + [0] * (self.width - n)
        # phase 1 reduced costs: unit cost on artificials, basics eliminated
        cost1 = [0] * self.width
        for col in self.art_cols:
            cost1[col] = 1
        for i in art_rows:
            row = lines[i]
            for j in range(self.width):
                cost1[j] -= row[j]
        self.cost1 = cost1
        # the rows each pivot updates; phase 1 costs only while they are read
        self.cost_rows = [cost1, self.cost2] if art_rows else [self.cost2]

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
        pivot_values = pivot_row.tolist()
        for cost in self.cost_rows:
            factor = cost[col]
            if factor:
                cost[:] = [
                    (piv * a - factor * b) // den for a, b in zip(cost, pivot_values)
                ]
            elif piv != den:
                cost[:] = [(piv * a) // den for a in cost]
        self.den = piv
        self.basis[row] = col
        self.pivots += 1
        if self.den < 0:
            # global sign flip keeps the shared denominator positive
            self.den = -self.den
            np.negative(self.tableau, out=self.tableau)
            for cost in self.cost_rows:
                cost[:] = [-a for a in cost]

    def _ratio_row(self, col: int) -> int | None:
        best: int | None = None
        best_rhs = best_coef = 0
        rhs_column = self.tableau[:, -1].tolist()
        for i, coef in enumerate(self.tableau[:, col].tolist()):
            if i in self.dropped or coef <= 0:
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

    def _run_phase(self, cost: list[int], allowed: list[int]) -> None:
        pivots = 0
        bland_after = 200 + 40 * len(self.tableau)
        while True:
            entering = None
            if pivots <= bland_after:
                best_val = 0
                for j in allowed:
                    val = cost[j]
                    if val < best_val:
                        best_val = val
                        entering = j
            else:  # Bland's rule, guarantees termination under degeneracy
                for j in allowed:
                    if cost[j] < 0:
                        entering = j
                        break
            if entering is None:
                return
            row = self._ratio_row(entering)
            if row is None:
                raise SolverError("relaxation unbounded; box rows missing")
            self._pivot(row, entering)
            pivots += 1
            if pivots > _PIVOT_LIMIT:
                raise SolverError("simplex failed to terminate")

    def _drive_out_artificials(self, non_art: list[int]) -> None:
        for i in range(len(self.tableau)):
            if i in self.dropped or self.basis[i] not in self.art_cols:
                continue
            row = self.tableau[i].tolist()
            col = next((j for j in non_art if row[j] > 0), None)
            if col is None:
                col = next((j for j in non_art if row[j] != 0), None)
            if col is None:
                self.dropped.add(i)  # 0 = 0 after substitution, redundant
                self.tableau[i] = 0
                continue
            self._pivot(i, col)

    def solve(self) -> tuple[str, list[Fraction]]:
        non_art = self._non_artificial()
        if self.art_cols:
            self._run_phase(self.cost1, non_art)
            rhs = self.tableau[:, -1].tolist()
            infeasibility = sum(
                rhs[i]
                for i, var in enumerate(self.basis)
                if i not in self.dropped and var in self.art_cols
            )
            if infeasibility > 0:
                return "infeasible", []
            self.cost_rows = [self.cost2]
            self._drive_out_artificials(non_art)
        self._run_phase(self.cost2, non_art)
        return "optimal", self._values()

    def add_rows(self, rows: Rows) -> None:
        """Append rows ``coefs . v >= rhs`` to a solved tableau.

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
        structural = [
            i for i, var in enumerate(self.basis) if var < n and i not in self.dropped
        ]
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
        for cost in self.cost_rows:
            cost[-1:-1] = [0] * count

    def reoptimise(self) -> tuple[str, list[Fraction]]:
        """Dual simplex after ``add_rows``: the reduced costs stay
        non-negative while pivots restore a non-negative rhs."""
        allowed = self._non_artificial()
        cost = self.cost2
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
                    if pivots > bland_after  # Bland's rule, as in _run_phase
                    else value < rhs[row] or (value == rhs[row] and basis[i] < basis[row])
                ):
                    row = i
            if row is None:
                return "optimal", self._values()
            line = self.tableau[row].tolist()
            entering = None
            for j in allowed:
                coef = line[j]
                # smallest cost[j] / -coef, compared by cross-multiplying
                if coef < 0 and (
                    entering is None or cost[j] * -line[entering] < cost[entering] * -coef
                ):
                    entering = j
            if entering is None:
                return "infeasible", []
            self._pivot(row, entering)
            pivots += 1
            if pivots > _PIVOT_LIMIT:
                raise SolverError("dual simplex failed to terminate")

    def _non_artificial(self) -> list[int]:
        return [j for j in range(self.width - 1) if j not in self.art_cols]

    def _values(self) -> list[Fraction]:
        rhs = self.tableau[:, -1].tolist()
        values = [Fraction(0)] * self.n
        for i, var in enumerate(self.basis):
            if i in self.dropped:
                continue
            if var < self.n:
                values[var] = Fraction(rhs[i], self.den)
        return values


@dataclass
class _Effort:
    """Work counters of one solve call."""

    nodes: int = 0
    pivots: int = 0


def _magnitude(array: np.ndarray) -> int:
    """Largest absolute entry of an integer array, exactly (0 if empty)."""
    if not array.size:
        return 0
    return max(abs(int(array.max())), abs(int(array.min())))


def _stack(rows: Rows, width: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The rows as a coefficient matrix and an rhs vector, ``int64`` when
    every entry fits and ``object`` otherwise, plus their largest
    absolute entry."""
    coefs = [c for c, _ in rows]
    rhs = [r for _, r in rows]
    try:
        matrix = np.array(coefs, dtype=np.int64).reshape(len(rows), width)
        vector = np.array(rhs, dtype=np.int64)
    except OverflowError:
        matrix = np.array(coefs, dtype=object).reshape(len(rows), width)
        vector = np.array(rhs, dtype=object)
    return matrix, vector, max(_magnitude(matrix), _magnitude(vector))


def _simplex_for(rows: Rows, costs: Sequence[int]) -> _Simplex | None:
    """A simplex over the rows with duplicates merged, or None when a row
    without coefficients can never hold."""
    cleaned: dict[tuple[int, ...], int] = {}
    for coefs, rhs in rows:
        if any(coefs):
            prior = cleaned.get(coefs)
            if prior is None or rhs > prior:
                cleaned[coefs] = rhs
        elif rhs > 0:
            return None
    return _Simplex(sorted(cleaned.items()), costs)


def _solve_lp(
    rows: Rows, costs: Sequence[int], effort: _Effort | None = None
) -> tuple[str, list[Fraction]]:
    simplex = _simplex_for(rows, costs)
    if simplex is None:
        return "infeasible", []
    result = simplex.solve()
    if effort is not None:
        effort.pivots += simplex.pivots
    return result


def _solve_lp_generated(
    mandatory: Rows, optional: Rows, costs: Sequence[int], effort: _Effort | None = None
) -> tuple[str, list[Fraction]]:
    """Exact LP optimum over mandatory + optional rows.

    Runs on an active subset and adds the most violated optional rows
    until the relaxed optimum satisfies every row; a subset optimum that
    is feasible for the full set is optimal for the full set. One simplex
    serves every round: the rows are added to its optimal tableau, which
    the dual simplex re-optimises.
    """
    if len(mandatory) + len(optional) <= _ROW_GENERATION_THRESHOLD:
        return _solve_lp(mandatory + optional, costs, effort)
    simplex = _simplex_for(mandatory, costs)
    if simplex is None:
        return "infeasible", []
    pending = list(dict.fromkeys(optional))
    matrix, rhs, magnitude = _stack(pending, len(costs))
    live = np.ones(len(pending), dtype=bool)
    status, point = simplex.solve()
    while status == "optimal":
        common = math.lcm(*(f.denominator for f in point)) if point else 1
        scaled = [int(f * common) for f in point]
        # |slack| <= magnitude * (width + 1) * max(common, |scaled|)
        scale = max([common] + [abs(s) for s in scaled])
        if matrix.dtype != object and magnitude * (len(costs) + 1) * scale < 1 << 63:
            slack = matrix @ np.array(scaled, dtype=np.int64) - rhs * common
        else:
            slack = matrix.astype(object) @ np.array(scaled, dtype=object) - (
                rhs.astype(object) * common
            )
        violated = np.flatnonzero(live & (slack < 0)).tolist()
        if not violated:
            break
        violated.sort(key=lambda i: (slack[i], pending[i][0]))
        chosen = violated[:_ROW_BATCH]
        live[chosen] = False
        simplex.add_rows(sorted(pending[i] for i in chosen))
        status, point = simplex.reoptimise()
    if effort is not None:
        effort.pivots += simplex.pivots
    return status, point


def _expand_equalities(inst: ILPInstance) -> Rows:
    """The presolved equality rows, each as two mandatory >= rows."""
    out: Rows = []
    for row in inst.system.independent_equality_rows:
        out.append((row.vector, 0))
        out.append((tuple(-c for c in row.vector), 0))
    return out


def _box_rows(count: int) -> Rows:
    return [
        (tuple(-1 if k == j else 0 for k in range(count)), -1) for j in range(count)
    ]


@_names_pair
def lp_relax(inst: ILPInstance) -> LPRelaxation:
    """Continuous relaxation: variables in [0, 1], fixings substituted.

    The value is an exact rational lower bound on the binary optimum; it
    cannot be unbounded because every variable is boxed.
    """
    inequalities, _ = _instance_rows(inst)
    n = inst.system.n_vars
    fixed = dict(inst.fixings)
    free = [i for i in range(n) if i not in fixed]
    mandatory = _box_rows(len(free)) + _substitute(
        _expand_equalities(inst), free, fixed
    )
    optional = _substitute(inequalities, free, fixed)
    costs = [inst.system.objective[i] for i in free]
    status, point = _solve_lp_generated(mandatory, optional, costs)
    if status != "optimal":
        return LPRelaxation(status="infeasible", value=None, point=None)
    constant = sum(inst.system.objective[i] * v for i, v in fixed.items())
    value = constant + sum(c * p for c, p in zip(costs, point))
    full = [Fraction(0)] * n
    for i, v in fixed.items():
        full[i] = Fraction(v)
    for j, i in enumerate(free):
        full[i] = point[j]
    return LPRelaxation(status="optimal", value=Fraction(value), point=tuple(full))


def _objective_of(inst: ILPInstance, assignment: Sequence[int]) -> int:
    return sum(c * v for c, v in zip(inst.system.objective, assignment))


@_names_pair
def solve(inst: ILPInstance) -> Solution:
    """Globally optimal binary assignment, or infeasible.

    Branch-and-bound, depth-first on the most fractional relaxation
    variable, children explored zero-branch first; every returned
    assignment is re-verified by integer row evaluation.
    """
    cs = inst.system
    n = cs.n_vars
    inequalities, equalities = _instance_rows(inst)
    eq_pairs = _expand_equalities(inst)
    base_fixed = dict(inst.fixings)
    free = [i for i in range(n) if i not in base_fixed]
    depth = len(free)

    # lexicographic product objective; see module docstring
    shift = 1 << depth
    combined = {
        i: cs.objective[i] * shift + (1 << (depth - 1 - j))
        for j, i in enumerate(free)
    }

    def combined_value(assignment: Sequence[int]) -> int:
        return sum(combined[i] * assignment[i] for i in free)

    # every original row, not only the presolved equalities, stacked once;
    # a binary assignment keeps each row value within n * magnitude
    ineq_matrix, ineq_rhs, ineq_magnitude = _stack(inequalities, n)
    eq_matrix, eq_rhs, eq_magnitude = _stack(equalities, n)
    if max(ineq_magnitude, eq_magnitude) * (n + 1) >= 1 << 63:
        ineq_matrix, ineq_rhs, eq_matrix, eq_rhs = (
            a.astype(object) for a in (ineq_matrix, ineq_rhs, eq_matrix, eq_rhs)
        )

    def verify(assignment: Sequence[int]) -> bool:
        if any(assignment[i] != v for i, v in base_fixed.items()):
            return False
        if any(v not in (0, 1) for v in assignment):
            return False
        vector = np.array(assignment, dtype=ineq_matrix.dtype)
        return bool((ineq_matrix @ vector >= ineq_rhs).all()) and bool(
            (eq_matrix @ vector == eq_rhs).all()
        )

    best_assignment: list[int] | None = None
    best_combined: int | None = None
    for seed in inst.seeds:
        if len(seed) == n and verify(seed):
            value = combined_value(seed)
            if best_combined is None or value < best_combined:
                best_combined = value
                best_assignment = list(seed)

    effort = _Effort()
    stack: list[dict[int, int]] = [{}]
    while stack:
        extra = stack.pop()
        effort.nodes += 1
        assigned = dict(base_fixed)
        assigned.update(extra)
        node_free = [i for i in free if i not in extra]
        if not node_free:
            candidate = [assigned[i] for i in range(n)]
            if verify(candidate):
                value = combined_value(candidate)
                if best_combined is None or value < best_combined:
                    best_combined = value
                    best_assignment = candidate
            continue
        mandatory = _box_rows(len(node_free)) + _substitute(
            eq_pairs, node_free, assigned
        )
        optional = _substitute(inequalities, node_free, assigned)
        costs = [combined[i] for i in node_free]
        status, point = _solve_lp_generated(mandatory, optional, costs, effort)
        if status != "optimal":
            continue
        bound = sum(c * p for c, p in zip(costs, point)) + sum(
            combined[i] * v for i, v in extra.items()
        )
        if best_combined is not None and math.ceil(bound) >= best_combined:
            continue
        fractional = [(j, p) for j, p in enumerate(point) if p.denominator != 1]
        if not fractional:
            candidate = [0] * n
            for i, v in assigned.items():
                candidate[i] = v
            for j, i in enumerate(node_free):
                candidate[i] = int(point[j])
            if verify(candidate):
                value = combined_value(candidate)
                if best_combined is None or value < best_combined:
                    best_combined = value
                    best_assignment = candidate
            continue
        half = Fraction(1, 2)
        branch_pos = min(fractional, key=lambda item: (abs(item[1] - half), item[0]))[0]
        branch_var = node_free[branch_pos]
        stack.append({**extra, branch_var: 1})
        stack.append({**extra, branch_var: 0})

    if best_assignment is None:
        return Solution(
            status="infeasible",
            assignment=None,
            objective=None,
            nodes=effort.nodes,
            pivots=effort.pivots,
        )
    if not verify(best_assignment):
        raise SolverError("internal error: optimum failed re-verification")
    return Solution(
        status="optimal",
        assignment=tuple(best_assignment),
        objective=_objective_of(inst, best_assignment),
        nodes=effort.nodes,
        pivots=effort.pivots,
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
    inequalities, equalities = _instance_rows(inst)
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
