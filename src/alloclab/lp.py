"""Exact rational optimization over the bistochastic polytope.

`best_assignment` decides the unconstrained problem. Every vertex of the
polytope is a permutation matrix (Birkhoff 1946; von Neumann 1953), so an
exact dynamic program over assignments finds the optimum and the
lexicographically smallest optimal vertex without pivoting.

`maximize` serves the programs with per-agent expected-utility floors, whose
optimal points need not be permutation matrices. It is a dense two-phase
tableau simplex over `fractions.Fraction` with Bland's rule, so it
terminates on the heavily degenerate programs that arise at permutation
vertices. Among optimal vertices it returns the lexicographically smallest
argmax in row-major entry order, found by sequentially minimizing each
allocation entry over the optimal face (columns whose reduced cost is
strictly negative at a stage optimum are frozen at zero before the next
stage, which restricts the search to that face).
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    ONE,
    ZERO,
    AgentId,
    Allocation,
    Frozen,
    UtilityProfile,
    expected_utility,
    validate_profile,
)


class MalformedProgram(ValueError):
    """Objective or constraints are dimensionally inconsistent."""


class EuFloor(Frozen):
    """Per-agent lower bound on expected utility: values . x_agent >= minimum."""

    __slots__ = ("agent", "values", "minimum")

    def __init__(self, agent: AgentId, values: tuple[Fraction, ...], minimum: Fraction):
        self._set(agent, values, minimum)


class LinearProgram(Frozen):
    """Maximize a linear objective over bistochastic matrices, optionally
    intersected with per-agent expected-utility floors."""

    __slots__ = ("objective", "floors")

    def __init__(self, objective: tuple[tuple[Fraction, ...], ...],
                 floors: tuple[EuFloor, ...] = ()):
        self._set(objective, floors)
        n = len(self.objective)
        if n == 0 or any(len(row) != n for row in self.objective):
            raise MalformedProgram("objective must be a square grid")
        for floor in self.floors:
            if not 0 <= floor.agent < n:
                raise MalformedProgram(f"floor references unknown agent {floor.agent}")
            if len(floor.values) != n:
                raise MalformedProgram("floor utility length differs from economy")

    @property
    def n(self) -> int:
        return len(self.objective)


class LpResult(Frozen):
    __slots__ = ("status", "value", "argmax")  # status: "Optimal" or "Infeasible"

    def __init__(self, status: str, value: Fraction | None, argmax: Allocation | None):
        self._set(status, value, argmax)


def _solve_stage(tab, basis, costs, allowed, ncols) -> list[Fraction]:
    """Pivot until no allowed column improves `costs` (maximization), and
    return the reduced costs at the stage optimum.

    Bland's rule throughout: entering column is the smallest allowed index
    with positive reduced cost; on ratio ties the leaving row is the one
    whose basic variable has the smallest index.
    """
    z = list(costs) + [ZERO]
    for r, b in enumerate(basis):
        cb = costs[b]
        if cb:
            row = tab[r]
            for j in range(ncols + 1):
                if row[j]:
                    z[j] -= cb * row[j]
    while True:
        col = -1
        for j in range(ncols):
            if allowed[j] and z[j] > 0:
                col = j
                break
        if col < 0:
            return z
        pivot_row = -1
        best_ratio = None
        for r, row in enumerate(tab):
            a = row[col]
            if a > 0:
                ratio = row[ncols] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[pivot_row])
                ):
                    best_ratio = ratio
                    pivot_row = r
        if pivot_row < 0:
            raise MalformedProgram("unbounded objective on a compact polytope")
        _pivot(tab, z, basis, pivot_row, col, ncols)


def _pivot(tab, z, basis, row, col, ncols) -> None:
    prow = tab[row]
    piv = prow[col]
    if piv != ONE:
        tab[row] = prow = [v / piv if v else v for v in prow]
    for target in tab:
        if target is prow:
            continue
        factor = target[col]
        if factor:
            for j in range(ncols + 1):
                if prow[j]:
                    target[j] -= factor * prow[j]
    factor = z[col]
    if factor:
        for j in range(ncols + 1):
            if prow[j]:
                z[j] -= factor * prow[j]
    basis[row] = col


def _freeze_off_face(basis, reduced, allowed, ncols) -> None:
    """Disallow nonbasic columns with strictly negative reduced cost at a
    stage optimum: every point of the current optimal face has them at zero."""
    basic = set(basis)
    for j in range(ncols):
        if allowed[j] and j not in basic and reduced[j] < 0:
            allowed[j] = False


def maximize(lp: LinearProgram) -> LpResult:
    """Exact optimum over the constrained bistochastic polytope.

    Returns the lexicographically smallest optimal vertex (row-major entry
    order), so the argmax is well defined even on ties.
    """
    n = lp.n
    num_x = n * n
    num_s = len(lp.floors)

    rows: list[tuple[list[Fraction], Fraction]] = []
    for i in range(n):
        coef = [ZERO] * (num_x + num_s)
        for a in range(n):
            coef[i * n + a] = ONE
        rows.append((coef, ONE))
    for a in range(n):
        coef = [ZERO] * (num_x + num_s)
        for i in range(n):
            coef[i * n + a] = ONE
        rows.append((coef, ONE))
    for k, floor in enumerate(lp.floors):
        coef = [ZERO] * (num_x + num_s)
        for a in range(n):
            coef[floor.agent * n + a] = floor.values[a]
        coef[num_x + k] = -ONE
        rows.append((coef, floor.minimum))

    num_rows = len(rows)
    ncols = num_x + num_s + num_rows
    tab: list[list[Fraction]] = []
    basis: list[int] = []
    for r, (coef, rhs) in enumerate(rows):
        if rhs < 0:
            coef = [-c for c in coef]
            rhs = -rhs
        art = [ZERO] * num_rows
        art[r] = ONE
        tab.append(coef + art + [rhs])
        basis.append(num_x + num_s + r)
    allowed = [True] * ncols

    phase1 = [ZERO] * (num_x + num_s) + [-ONE] * num_rows
    _solve_stage(tab, basis, phase1, allowed, ncols)
    if any(basis[r] >= num_x + num_s and tab[r][ncols] > 0 for r in range(len(tab))):
        return LpResult(status="Infeasible", value=None, argmax=None)

    r = 0
    while r < len(tab):
        if basis[r] >= num_x + num_s:
            col = next((j for j in range(num_x + num_s) if tab[r][j]), None)
            if col is None:
                del tab[r]  # redundant constraint (row/column sums overlap)
                del basis[r]
                continue
            _pivot(tab, [ZERO] * (ncols + 1), basis, r, col, ncols)
        r += 1
    for j in range(num_x + num_s, ncols):
        allowed[j] = False

    objective = [lp.objective[j // n][j % n] for j in range(num_x)]
    costs = objective + [ZERO] * (num_s + num_rows)
    reduced = _solve_stage(tab, basis, costs, allowed, ncols)

    for k in range(num_x):
        _freeze_off_face(basis, reduced, allowed, ncols)
        costs = [ZERO] * ncols
        costs[k] = -ONE
        reduced = _solve_stage(tab, basis, costs, allowed, ncols)

    solution = [ZERO] * ncols
    for r, b in enumerate(basis):
        solution[b] = tab[r][ncols]
    value = sum(
        (objective[j] * solution[j] for j in range(num_x) if solution[j]), ZERO
    )
    argmax = Allocation(
        tuple(tuple(solution[i * n + a] for a in range(n)) for i in range(n))
    )
    return LpResult(status="Optimal", value=value, argmax=argmax)


def best_assignment(
    objective: tuple[tuple[Fraction, ...], ...],
) -> tuple[Fraction, tuple[int, ...]]:
    """Optimum of a linear objective over the bistochastic polytope, and the
    permutation attaining it that `maximize` would return.

    The optimum is attained at a permutation matrix, so dynamic programming
    over the set of objects already taken decides it in O(n * 2**n) exact
    additions: ``tail[mask]`` is the best total of rows ``popcount(mask)``
    to n-1 over the objects outside ``mask``. The assignment is rebuilt row
    by row, trying objects from n-1 down to 0, so ties go to the largest
    permutation tuple, which is the row-major lexicographically smallest
    optimal 0/1 matrix. ``picks[i]`` is the object assigned to row i.
    """
    n = len(objective)
    if n == 0 or any(len(row) != n for row in objective):
        raise MalformedProgram("objective must be a square grid")
    full = (1 << n) - 1
    tail = [ZERO] * (full + 1)
    for mask in range(full - 1, -1, -1):
        row = objective[mask.bit_count()]
        tail[mask] = max(
            row[a] + tail[mask | (1 << a)] for a in range(n) if not (mask >> a) & 1
        )
    picks = []
    mask = 0
    for row in objective:
        for a in range(n - 1, -1, -1):
            bit = 1 << a
            if not mask & bit and row[a] + tail[mask | bit] == tail[mask]:
                break
        picks.append(a)
        mask |= bit
    return tail[0], tuple(picks)


def dominates(profile: UtilityProfile, candidate: Allocation, incumbent: Allocation) -> bool:
    """Exact domination test: candidate weakly improves every agent's
    expected utility and strictly improves at least one."""
    strict = False
    for i, u in enumerate(profile):
        gained = expected_utility(u, candidate.row(i))
        held = expected_utility(u, incumbent.row(i))
        if gained < held:
            return False
        if gained > held:
            strict = True
    return strict


def find_dominating(profile: UtilityProfile, alloc: Allocation) -> Allocation | None:
    """A dominating allocation if one exists, else None.

    A dominating allocation strictly raises total expected utility, so none
    exists when the status quo already attains the unconstrained optimum of
    `best_assignment`. Otherwise one LP decides the existential question
    exactly: maximize total expected utility subject to every agent weakly
    improving on the status quo. The optimum exceeds the status-quo total
    iff some feasible point makes someone strictly better off while nobody
    loses.
    """
    validate_profile(profile)
    n = len(profile)
    if alloc.n != n:
        raise MalformedProgram("allocation size differs from profile")
    floors = tuple(
        EuFloor(i, profile[i].values, expected_utility(profile[i], alloc.row(i)))
        for i in range(n)
    )
    status_quo = sum(floor.minimum for floor in floors)
    objective = tuple(u.values for u in profile)
    if status_quo == best_assignment(objective)[0]:
        return None
    result = maximize(LinearProgram(objective, floors))
    if result.status != "Optimal":
        raise AssertionError("status-quo allocation must be feasible")
    if result.value > status_quo:
        better = result.argmax
        if not dominates(profile, better, alloc):
            raise AssertionError("LP argmax failed the exact domination test")
        return better
    return None
