"""Birkhoff-von Neumann decomposition of bistochastic allocations into
lotteries over permutation matrices, in exact rational arithmetic.

Greedy scheme: find a permutation inside the positivity pattern of the
remaining matrix (deterministic lexicographic depth-first matching), subtract
it at the largest feasible weight, repeat. Each round zeroes at least one
entry, so a decomposition has at most (n-1)**2 + 1 terms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .core import ONE, ZERO, AgentId, Allocation, ObjectId


@dataclass(frozen=True)
class PermutationMatrix:
    """Deterministic assignment: agent i receives object assignment[i]."""

    assignment: tuple[ObjectId, ...]

    def __post_init__(self) -> None:
        if sorted(self.assignment) != list(range(len(self.assignment))):
            raise ValueError(f"not a bijection: {self.assignment}")

    @property
    def n(self) -> int:
        return len(self.assignment)

    def to_allocation(self) -> Allocation:
        n = self.n
        return Allocation(
            tuple(
                tuple(ONE if self.assignment[i] == a else ZERO for a in range(n))
                for i in range(n)
            )
        )


@dataclass(frozen=True)
class Decomposition:
    """Positive weights on permutation matrices, summing to one."""

    terms: tuple[tuple[Fraction, PermutationMatrix], ...]

    def __post_init__(self) -> None:
        if any(w <= 0 for w, _ in self.terms):
            raise ValueError("decomposition weights must be strictly positive")
        if sum(w for w, _ in self.terms) != ONE:
            raise ValueError("decomposition weights must sum to one")

    def to_dict(self) -> dict:
        return {
            "terms": [
                {"weight": str(w), "perm": list(p.assignment)} for w, p in self.terms
            ]
        }


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
    return Allocation(tuple(tuple(row) for row in grid))


def random_permutation(n: int, rng: random.Random) -> PermutationMatrix:
    order = list(range(n))
    rng.shuffle(order)
    return PermutationMatrix(tuple(order))


def random_bistochastic(n: int, rng: random.Random) -> Allocation:
    """Random rational bistochastic matrix: a convex combination of 1 to 2n
    random permutation matrices with integer weights from 1 to 59. Each entry
    is its integer weight count divided once by the total weight."""
    count = rng.randrange(1, 2 * n + 1)
    perms = [random_permutation(n, rng) for _ in range(count)]
    raw = [rng.randrange(1, 60) for _ in range(count)]
    total = sum(raw)
    counts = [[0] * n for _ in range(n)]
    for weight, perm in zip(raw, perms):
        for i, obj in enumerate(perm.assignment):
            counts[i][obj] += weight
    return Allocation(tuple(tuple(Fraction(c, total) for c in row) for row in counts))
