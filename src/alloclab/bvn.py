"""Birkhoff-von Neumann decomposition of bistochastic allocations into
lotteries over permutation matrices, in exact rational arithmetic.

Greedy scheme: find a permutation inside the positivity pattern of the
remaining matrix (deterministic lexicographic depth-first matching), subtract
it at the largest feasible weight, repeat. Each round zeroes at least one
entry, so a decomposition has at most (n-1)**2 + 1 terms.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .core import ONE, ZERO, AgentId, Allocation, Frozen, ObjectId


class PermutationMatrix(Frozen):
    """Deterministic assignment: agent i receives object assignment[i]."""

    __slots__ = ("assignment",)

    def __init__(self, assignment: tuple[ObjectId, ...]):
        if sorted(assignment) != list(range(len(assignment))):
            raise ValueError(f"not a bijection: {assignment}")
        object.__setattr__(self, "assignment", assignment)

    @property
    def n(self) -> int:
        return len(self.assignment)

    def to_allocation(self) -> Allocation:
        """The 0/1 matrix, with its entries over 1 as its integer form."""
        picks, n = self.assignment, self.n
        nums = tuple(tuple(int(obj == a) for a in range(n)) for obj in picks)
        rows = tuple(tuple(ONE if x else ZERO for x in row) for row in nums)
        return Allocation._trusted(rows, (1, nums))


class Decomposition(Frozen):
    """Positive weights on permutation matrices of one size, summing to one."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[Fraction, PermutationMatrix], ...]):
        if any(w <= 0 for w, _ in terms):
            raise ValueError("decomposition weights must be strictly positive")
        if sum(w for w, _ in terms) != ONE:
            raise ValueError("decomposition weights must sum to one")
        if len({p.n for _, p in terms}) != 1:
            raise ValueError("decomposition permutations differ in size")
        object.__setattr__(self, "terms", terms)

    def to_dict(self) -> dict:
        return {"terms": [{"weight": w, "perm": p.assignment} for w, p in self.terms]}


def _find_matching(rows: list[list[Fraction]]) -> tuple[ObjectId, ...]:
    """Perfect matching on the positivity pattern, trying agents and objects
    in ascending index order so the result is reproducible."""
    n = len(rows)
    assigned: dict[AgentId, ObjectId] = {}
    used: set[ObjectId] = set()

    def extend(agent: AgentId) -> bool:
        if agent == n:
            return True
        for obj in range(n):
            if obj not in used and rows[agent][obj] > 0:
                assigned[agent] = obj
                used.add(obj)
                if extend(agent + 1):
                    return True
                del assigned[agent]
                used.remove(obj)
        return False

    if not extend(0):
        raise AssertionError("bistochastic matrix lost its perfect matching")
    return tuple(assigned[i] for i in range(n))


def decompose(alloc: Allocation) -> Decomposition:
    """Express a bistochastic allocation as an exact lottery over
    permutation matrices; recompose(result) equals the input bit-for-bit."""
    remaining = [list(row) for row in alloc.rows]
    budget = ONE
    terms: list[tuple[Fraction, PermutationMatrix]] = []
    while budget > 0:
        assignment = _find_matching(remaining)
        weight = min(remaining[i][assignment[i]] for i in range(alloc.n))
        for i, obj in enumerate(assignment):
            remaining[i][obj] -= weight
        terms.append((weight, PermutationMatrix(assignment)))
        budget -= weight
    return Decomposition(tuple(terms))


def recompose(decomposition: Decomposition) -> Allocation:
    """Weighted sum of permutation matrices; always bistochastic."""
    n = decomposition.terms[0][1].n
    grid = [[ZERO] * n for _ in range(n)]
    for weight, perm in decomposition.terms:
        for i, obj in enumerate(perm.assignment):
            grid[i][obj] += weight
    return Allocation._trusted(tuple(tuple(row) for row in grid))


def random_permutation(n: int, rng: random.Random) -> PermutationMatrix:
    order = list(range(n))
    rng.shuffle(order)
    return PermutationMatrix(tuple(order))


def random_bistochastic(n: int, rng: random.Random) -> Allocation:
    """Random rational bistochastic matrix: a convex combination of 1 to 2n
    random permutation matrices with integer weights from 1 to 59. Each entry
    is its integer weight count divided once by the total weight; the
    counts over the total are the allocation's integer form."""
    count = rng.randrange(1, 2 * n + 1)
    perms = [random_permutation(n, rng) for _ in range(count)]
    raw = [rng.randrange(1, 60) for _ in range(count)]
    total = sum(raw)
    counts = [[0] * n for _ in range(n)]
    for weight, perm in zip(raw, perms):
        for i, obj in enumerate(perm.assignment):
            counts[i][obj] += weight
    rows = tuple(tuple(Fraction(c, total) for c in r) for r in counts)
    return Allocation._trusted(rows, (total, tuple(map(tuple, counts))))
