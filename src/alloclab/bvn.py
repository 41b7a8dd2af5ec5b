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
from math import lcm

from .core import ONE, AgentId, Allocation, Frozen, ObjectId, forms_over_common_denominator


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
        n = self.n
        return Allocation._over(1, [[int(obj == a) for a in range(n)] for obj in self.assignment])


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


def _find_matching(rows: list[list[int]]) -> tuple[ObjectId, ...]:
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
    permutation matrices; recompose(result) equals the input bit-for-bit.
    The peeling runs on the entries' numerators over the rows' common
    denominator, which each weight is a numerator over."""
    den, remaining = forms_over_common_denominator(alloc._lotteries)
    budget = den
    terms: list[tuple[Fraction, PermutationMatrix]] = []
    while budget > 0:
        assignment = _find_matching(remaining)
        weight = min(remaining[i][assignment[i]] for i in range(alloc.n))
        for i, obj in enumerate(assignment):
            remaining[i][obj] -= weight
        terms.append((Fraction(weight, den), PermutationMatrix(assignment)))
        budget -= weight
    return Decomposition(tuple(terms))


def recompose(decomposition: Decomposition) -> Allocation:
    """Weighted sum of permutation matrices; always bistochastic. Each entry
    is its weights' numerators over their lcm denominator."""
    terms = decomposition.terms
    n = terms[0][1].n
    den = lcm(*[weight.denominator for weight, _ in terms])
    counts = [[0] * n for _ in range(n)]
    for weight, perm in terms:
        share = weight.numerator * (den // weight.denominator)
        for i, obj in enumerate(perm.assignment):
            counts[i][obj] += share
    return Allocation._over(den, counts)


def random_bistochastic(n: int, rng: random.Random) -> Allocation:
    """Random rational bistochastic matrix: a convex combination of 1 to 2n
    random permutation matrices with integer weights from 1 to 59. Each entry
    is its integer weight count over the total weight, which is the
    allocation's integer form. Each permutation is one `rng.shuffle` of
    range(n), with no `PermutationMatrix` built per draw."""
    count = rng.randrange(1, 2 * n + 1)
    orders = []
    for _ in range(count):
        order = list(range(n))
        rng.shuffle(order)
        orders.append(order)
    raw = [rng.randrange(1, 60) for _ in range(count)]
    counts = [[0] * n for _ in range(n)]
    for weight, order in zip(raw, orders):
        for i, obj in enumerate(order):
            counts[i][obj] += weight
    return Allocation._over(sum(raw), counts)
