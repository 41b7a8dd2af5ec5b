"""Exact rational optimization over the bistochastic polytope.

`best_assignment` decides the unconstrained problem. Every vertex of the
polytope is a permutation matrix (Birkhoff 1946; von Neumann 1953), so one
integer dynamic program over assignments, `integer_assignment`, finds the
optimum and the lexicographically smallest optimal vertex without pivoting.
It is the one assignment kernel: `best_assignment` runs it on the rationals
scaled to integers, and utilitarian (`rules._utilitarian`) and
`find_dominating`'s pre-test run it on integer forms directly. It keeps its
last answer, so the pre-test of a utilitarian output reads the optimum the
rule has just found on the same rows, and the kernel runs once per profile.

`maximize` serves the programs with per-agent expected-utility floors, whose
optimal points need not be permutation matrices. It builds them on
`_simplex`, a dense two-phase tableau simplex with Bland's rule (Bland
1977), which terminates on the heavily degenerate programs that arise at
permutation vertices. Its second phase prices lexicographically: a column
enters when its reduced costs for the objective, then for -x_0, -x_1, ...
in row-major entry order, form a lexicographically positive vector. The tie
components are read off the tableau, so the one stage ends at the
lexicographically smallest optimal point, which is unique.

The tableau holds Python ints: each row, and the reduced-cost row, is the
rational row up to a positive scale, the row's entry in its basic column.
Pricing reads only signs, ratios compare by cross-multiplying, and a pivot
clears a column by integer row combinations reduced by their gcd, so every
rational tableau, every pivot and the argmax are those of the same method
run over `fractions.Fraction`. A solution value is one `Fraction` per basic
variable at the end.

`find_dominating` runs the simplex only when a cheaper certificate fails:
an allocation that maximizes a total of expected utilities with positive
weights is Pareto-efficient (Isermann 1974). The weights bring each utility
to its canonical form (`ordinal.canonicalize`: minimum 0, sum 1), so the
certificate, like efficiency itself, does not depend on how any agent's
utility is scaled. It is decided in integers, with no `Fraction` built: the
canonical forms are the ones the utilities keep from the rule's key, and the
optimum the one `integer_assignment` keeps from the rule's compute, when
the rule is utilitarian or a blend with a utilitarian part.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul

from .core import (
    ZERO,
    Allocation,
    UtilityProfile,
    expected_utility,
    forms_over_common_denominator,
    over_common_denominator,
    validate_profile,
)
from .ordinal import canonicalize


class MalformedProgram(ValueError):
    """Objective or constraints are dimensionally inconsistent."""


def _entering(tab, basis, z, lex) -> int:
    """Bland's entering column: the smallest index whose reduced-cost vector
    is lexicographically positive, or -1 at the optimum.

    The vector is (z[j], d_0, ..., d_{lex-1}), where d_k is the reduced cost
    of column j for the cost -x_k: the tableau entry of j in the row where k
    is basic, -1 when k is j itself, and 0 otherwise.
    """
    row_of = {b: r for r, b in enumerate(basis)}
    for j in range(len(z) - 1):
        if z[j] > 0:
            return j
        if z[j] or j in row_of:
            continue
        for k in range(min(j, lex)):
            r = row_of.get(k)
            if r is not None and tab[r][j]:
                if tab[r][j] > 0:
                    return j
                break
    return -1


def _solve(tab, basis, costs, lex) -> None:
    """Pivot until no column improves `costs` (maximization), ties broken by
    minimizing columns 0, ..., lex-1 in turn. On ratio ties the leaving row
    is the one whose basic variable has the smallest index (Bland).

    Rows and costs are integers up to a positive scale, so a ratio
    row[-1] / row[col] is the rational one and two of them compare by
    cross-multiplying their positive denominators."""
    z = [*costs, 0]
    for row, b in zip(tab, basis):
        if z[b]:
            _eliminate(z, row, b)
    while (col := _entering(tab, basis, z, lex)) >= 0:
        pivot_row = -1
        for r, row in enumerate(tab):
            a = row[col]
            if a > 0 and (
                pivot_row < 0
                or (cross := row[-1] * best[col] - best[-1] * a) < 0
                or (cross == 0 and basis[r] < basis[pivot_row])
            ):
                best = row
                pivot_row = r
        if pivot_row < 0:  # `maximize`'s polytope is compact: only a bug gets here
            raise AssertionError("unbounded objective on a compact polytope")
        _pivot(tab, basis, pivot_row, col, z)


def _eliminate(target, prow, col) -> None:
    """Clear column `col` of `target` against the pivot row `prow`, whose
    entry there is positive: target * prow[col] - target[col] * prow, in
    lowest terms. The result stands for the rational row it did before,
    less target[col] / prow[col] times the pivot row, over a new positive
    scale."""
    piv = prow[col]
    factor = target[col]
    target[:] = [t * piv - factor * p for t, p in zip(target, prow)]
    g = gcd(*target)
    if g > 1:
        target[:] = [v // g for v in target]


def _pivot(tab, basis, row, col, z=None) -> None:
    prow = tab[row]
    if prow[col] < 0:  # only when an artificial leaves at level zero
        tab[row] = prow = [-v for v in prow]
    for target in tab if z is None else (*tab, z):
        if target[col] and target is not prow:
            _eliminate(target, prow, col)
    basis[row] = col


def _simplex(rows, costs, lex) -> list[Fraction] | None:
    """Maximize `costs` over x >= 0 subject to the equality rows, ties
    broken by minimizing x_0, ..., x_{lex-1} in turn; the optimal x, or None
    when the rows are infeasible.

    A row (coefficients, rhs, scale) holds integers and stands for the
    rational equation coefficients / scale . x = rhs / scale, scale > 0;
    `costs` are integers up to one positive scale. The rows must be
    linearly independent, as `maximize`'s are, so that phase 1 can pivot
    every artificial left basic at level zero out on a nonzero entry. Every
    tableau row is kept as integers over the positive entry in its basic
    column (the artificial's `scale` at the start), so each rational
    tableau, and hence each pivot, is the one of the rational method."""
    ncols = len(costs)
    tab: list[list[int]] = []
    for r, (coef, rhs, scale) in enumerate(rows):
        if rhs < 0:
            coef = [-c for c in coef]
            rhs = -rhs
        art = [0] * len(rows)
        art[r] = scale
        tab.append([*coef, *art, rhs])
    basis = list(range(ncols, ncols + len(rows)))

    _solve(tab, basis, [0] * ncols + [-1] * len(rows), 0)
    if any(b >= ncols and row[-1] > 0 for b, row in zip(basis, tab)):
        return None
    for r, row in enumerate(tab):
        if basis[r] >= ncols:
            _pivot(tab, basis, r, next(j for j in range(ncols) if row[j]))
    tab = [row[:ncols] + row[-1:] for row in tab]  # artificials are out of the basis

    _solve(tab, basis, costs, lex)
    solution = [ZERO] * ncols
    for row, b in zip(tab, basis):
        solution[b] = Fraction(row[-1], row[b])
    return solution


def _exact_scaled(rows) -> tuple[int, list[list[int]]]:
    """`over_common_denominator` of rows whose entries are all ints or
    Fractions. Anything else, a float or a bool included, is refused, so no
    inexact value reaches a verdict through an LP."""
    try:
        return over_common_denominator(rows)
    except TypeError as error:
        raise MalformedProgram(f"an LP entry is not an int or a Fraction: {error}") from None


def maximize(
    objective: tuple[tuple[Fraction, ...], ...],
    floors: tuple[tuple[int, tuple[Fraction, ...], Fraction], ...] = (),
) -> tuple[Fraction, Allocation] | None:
    """Exact optimum of the objective over bistochastic matrices x with
    values . x[agent] >= minimum for each floor (agent, values, minimum).

    Returns (value, argmax), where the argmax is the lexicographically
    smallest optimal point in row-major entry order, or None when the floors
    are infeasible. Every objective entry, floor value and minimum must be
    an int or a Fraction.
    """
    n = len(objective)
    if n == 0 or any(len(row) != n for row in objective):
        raise MalformedProgram("objective must be a square grid")
    for agent, values, _ in floors:
        if not 0 <= agent < n:
            raise MalformedProgram(f"floor references unknown agent {agent}")
        if len(values) != n:
            raise MalformedProgram("floor utility length differs from economy")
    _, scaled = _exact_scaled(objective)
    num_x = n * n
    width = num_x + len(floors)

    rows: list[tuple[list[int], int, int]] = []
    for i in range(n):
        coef = [0] * width
        coef[i * n:(i + 1) * n] = [1] * n
        rows.append((coef, 1, 1))
    for a in range(n - 1):  # the last column's sum follows from the others
        coef = [0] * width
        coef[a:num_x:n] = [1] * n
        rows.append((coef, 1, 1))
    for k, (agent, values, minimum) in enumerate(floors):
        scale, ((*weights, low),) = _exact_scaled(((*values, minimum),))
        coef = [0] * width
        coef[agent * n:(agent + 1) * n] = weights
        coef[num_x + k] = -scale
        rows.append((coef, low, scale))

    costs = [v for row in scaled for v in row] + [0] * len(floors)
    solution = _simplex(rows, costs, num_x)
    if solution is None:
        return None
    entries = (v for row in objective for v in row)
    value = sum((c * x for c, x in zip(entries, solution) if x), ZERO)
    argmax = Allocation(tuple(tuple(solution[i * n:(i + 1) * n]) for i in range(n)))
    return value, argmax


def integer_assignment(scaled: list[list[int]]) -> tuple[int, tuple[int, ...]]:
    """The largest total ``sum(scaled[i][picks[i]])`` over the permutations
    `picks` of a square list of int rows, and the largest picks tuple that
    attains it. ``picks[i]`` is the object assigned to row i.

    The answer for the last rows solved is kept (`_assignment`'s one-entry
    cache), keyed on the rows themselves: utilitarian's compute and then
    the efficiency certificate (`find_dominating`) solve the same canonical
    rows of one profile in turn, so the second reads the optimum the first
    found. One entry needs no freeing, and an answer is a function of its
    key.
    """
    return _assignment(tuple(map(tuple, scaled)))


@lru_cache(maxsize=1)
def _assignment(scaled: tuple[tuple[int, ...], ...]) -> tuple[int, tuple[int, ...]]:
    """`integer_assignment`, computed. Dynamic programming over the set of
    objects already taken decides it in O(n * 2**n) integer additions:
    ``tail[mask]`` is the best total of rows ``popcount(mask)`` to n-1 over
    the objects outside ``mask``. The assignment is rebuilt row by row,
    trying objects from n-1 down to 0, so ties go to the largest picks
    tuple. The rows are not checked: callers pass integer forms that a
    validating constructor or `_exact_scaled` built.
    """
    n = len(scaled)
    full = (1 << n) - 1
    tail = [0] * (full + 1)
    bits = [(a, 1 << a) for a in range(n)]
    for mask in range(full - 1, -1, -1):
        row = scaled[mask.bit_count()]
        tail[mask] = max([row[a] + tail[mask | bit] for a, bit in bits if not mask & bit])
    picks = []
    mask = 0
    for row in scaled:
        for a, bit in reversed(bits):
            if not mask & bit and row[a] + tail[mask | bit] == tail[mask]:
                break
        picks.append(a)
        mask |= bit
    return tail[0], tuple(picks)


def best_assignment(
    objective: tuple[tuple[Fraction, ...], ...],
) -> tuple[Fraction, tuple[int, ...]]:
    """Optimum of a linear objective over the bistochastic polytope, and the
    permutation attaining it that `maximize` would return.

    The optimum is attained at a permutation matrix, so `integer_assignment`
    decides it on the entries scaled by the one positive lcm of their
    denominators, which scales every total alike: each comparison, and
    hence the picks, is the rational one, and the optimum is the integer
    optimum over that lcm. Its tie-break, the largest picks tuple, is the
    row-major lexicographically smallest optimal 0/1 matrix. Every entry
    must be an int or a Fraction.
    """
    n = len(objective)
    if n == 0 or any(len(row) != n for row in objective):
        raise MalformedProgram("objective must be a square grid")
    scale, scaled = _exact_scaled(objective)
    total, picks = integer_assignment(scaled)
    return Fraction(total, scale), picks


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

    The pre-test is a certificate with weights lambda > 0: if the status quo
    attains the optimum of the total canonical expected utility, it
    maximizes sum_i lambda_i u_i . Q_i with lambda_i the inverse of agent
    i's value range, and nothing dominates it. A positive affine rescaling
    of u_i leaves its canonical form, and so the pre-test, as it is. The
    test runs on integers: with the canonical values over their common
    denominator (`weighted`) and the status quo's rows over theirs, `den`,
    the status quo's weighted total is den times the optimum
    (`integer_assignment` of `weighted`) iff the rational totals are equal.
    Each utility keeps its canonical form (`canonicalize`), and the kernel
    its last answer, so for the output of utilitarian, which has just
    canonicalized the profile and solved `weighted` itself, neither is
    computed again. One agent's polytope is the single point [[1]].

    Otherwise one LP decides the existential question exactly: maximize
    total expected utility subject to every agent weakly improving on the
    status quo. The optimum exceeds the status-quo total iff some feasible
    point makes someone strictly better off while nobody loses. Both
    programs take their utilities over a common denominator: one positive
    scale for all agents, and the floors scaled alike, leave the pre-test,
    the feasible set and the argmax as they are.
    """
    validate_profile(profile)
    n = len(profile)
    if alloc.n != n:
        raise MalformedProgram("allocation size differs from profile")
    if n == 1:
        return None
    _, weighted = forms_over_common_denominator([canonicalize(u) for u in profile])
    den, rows = forms_over_common_denominator(alloc._lotteries)
    total = sum([sum(map(mul, values, row)) for values, row in zip(weighted, rows)])
    if total == den * integer_assignment(weighted)[0]:
        return None
    scale, objective = forms_over_common_denominator(profile)
    floors = tuple(
        (i, objective[i], scale * expected_utility(u, alloc.row(i))) for i, u in enumerate(profile)
    )
    result = maximize(objective, floors)
    if result is None:
        raise AssertionError("status-quo allocation must be feasible")
    value, better = result
    if value > sum(minimum for _, _, minimum in floors):
        if not dominates(profile, better, alloc):
            raise AssertionError("LP argmax failed the exact domination test")
        return better
    return None
