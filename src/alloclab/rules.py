"""Allocation rules under test: random serial dictatorship, probabilistic
serial, fixed-priority dictatorship, utilitarian, constant-uniform, and
convex blends.

Every rule is a pure deterministic function from utility profiles to
bistochastic allocations. The utilitarian rule solves an exact assignment
problem (`lp.best_assignment`). The ordinal rules memoize by ranking
profile and the utilitarian rule by canonical profile, so the grid checkers
can sweep tens of thousands of profiles without recomputing.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .core import (
    ONE,
    ZERO,
    Allocation,
    UtilityProfile,
    parse_fraction,
    uniform_allocation,
    validate_profile,
)
from .bvn import PermutationMatrix
from .lp import best_assignment
from .ordinal import OrdinalPreference, canonicalize, ordinal_of


class AlphaOutOfRange(ValueError):
    """Blend weight must lie in [0, 1]."""


@dataclass(frozen=True, eq=False)
class Rule:
    """Named allocation mechanism. ``claims_ordinal`` is metadata verified by
    the checkers, never trusted.

    ``allocate`` is memoized per profile on construction: rules are pure and
    deterministic, and the grid checkers revisit profiles constantly."""

    name: str
    allocate: Callable[[UtilityProfile], Allocation]
    claims_ordinal: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "allocate", lru_cache(maxsize=None)(self.allocate))


def _ordinal_key(profile: UtilityProfile) -> tuple[OrdinalPreference, ...]:
    validate_profile(profile)
    return tuple(ordinal_of(u) for u in profile)


@lru_cache(maxsize=None)
def _dictatorship_picks(
    orders: tuple[OrdinalPreference, ...], priority: tuple[int, ...]
) -> tuple[int, ...]:
    """Object picked by each agent when dictators choose in priority order."""
    taken: set[int] = set()
    picks = [-1] * len(orders)
    for agent in priority:
        choice = next(obj for obj in orders[agent].ranking if obj not in taken)
        picks[agent] = choice
        taken.add(choice)
    return tuple(picks)


@lru_cache(maxsize=None)
def _rsd_by_orders(orders: tuple[OrdinalPreference, ...]) -> Allocation:
    n = len(orders)
    counts = [[0] * n for _ in range(n)]
    total = 0
    for priority in itertools.permutations(range(n)):
        total += 1
        for agent, obj in enumerate(_dictatorship_picks(orders, priority)):
            counts[agent][obj] += 1
    return Allocation(
        tuple(tuple(Fraction(c, total) for c in row) for row in counts)
    )


def rsd_allocate(profile: UtilityProfile) -> Allocation:
    """Average of serial dictatorship over all n! priority orders, exact."""
    return _rsd_by_orders(_ordinal_key(profile))


@lru_cache(maxsize=None)
def _ps_by_orders(orders: tuple[OrdinalPreference, ...]) -> Allocation:
    """Simultaneous eating at unit speed with exact rational breakpoints."""
    n = len(orders)
    remaining = [ONE] * n
    shares = [[ZERO] * n for _ in range(n)]
    while any(remaining):
        targets = [
            next(obj for obj in orders[agent].ranking if remaining[obj] > 0)
            for agent in range(n)
        ]
        eaters = [0] * n
        for obj in targets:
            eaters[obj] += 1
        step = min(remaining[obj] / eaters[obj] for obj in set(targets))
        for agent, obj in enumerate(targets):
            shares[agent][obj] += step
        for obj in set(targets):
            remaining[obj] -= step * eaters[obj]
    return Allocation(tuple(tuple(row) for row in shares))


def ps_allocate(profile: UtilityProfile) -> Allocation:
    """Probabilistic serial: agents eat their best available object."""
    return _ps_by_orders(_ordinal_key(profile))


def dictatorship_allocate(profile: UtilityProfile) -> Allocation:
    """Serial dictatorship with the fixed priority 0, 1, ..., n-1."""
    orders = _ordinal_key(profile)
    picks = _dictatorship_picks(orders, tuple(range(len(orders))))
    return Allocation(
        tuple(
            tuple(ONE if picks[i] == a else ZERO for a in range(len(orders)))
            for i in range(len(orders))
        )
    )


@lru_cache(maxsize=None)
def _utilitarian_by_canonical(profile: UtilityProfile) -> Allocation:
    _, picks = best_assignment(tuple(u.values for u in profile))
    return PermutationMatrix(picks).to_allocation()


def utilitarian_allocate(profile: UtilityProfile) -> Allocation:
    """Maximize total expected utility over the bistochastic polytope. The
    optimum is a permutation matrix; ties go to the row-major
    lexicographically smallest one. Inputs are canonicalized first, so any
    sensitivity to reports is driven by middle rates, not scale."""
    validate_profile(profile)
    return _utilitarian_by_canonical(tuple(canonicalize(u) for u in profile))


@lru_cache(maxsize=None)
def _uniform_matrix(n: int) -> Allocation:
    return uniform_allocation(n)


def uniform_allocate(profile: UtilityProfile) -> Allocation:
    validate_profile(profile)
    return _uniform_matrix(len(profile))


RSD = Rule("rsd", rsd_allocate, claims_ordinal=True)
PS = Rule("ps", ps_allocate, claims_ordinal=True)
DICTATORSHIP = Rule("dictatorship", dictatorship_allocate, claims_ordinal=True)
UTILITARIAN = Rule("utilitarian", utilitarian_allocate, claims_ordinal=False)
UNIFORM = Rule("uniform", uniform_allocate, claims_ordinal=True)

BASE_RULES = {
    rule.name: rule for rule in (RSD, PS, DICTATORSHIP, UTILITARIAN, UNIFORM)
}


def blend_rule(first: Rule, second: Rule, alpha: Fraction) -> Rule:
    """Entrywise convex combination alpha*first + (1-alpha)*second."""
    alpha = Fraction(alpha)
    if not ZERO <= alpha <= ONE:
        raise AlphaOutOfRange(f"blend weight {alpha} outside [0, 1]")
    co = ONE - alpha

    def allocate(profile: UtilityProfile) -> Allocation:
        left = first.allocate(profile)
        right = second.allocate(profile)
        return Allocation(
            tuple(
                tuple(alpha * p + co * q for p, q in zip(row_p, row_q))
                for row_p, row_q in zip(left.rows, right.rows)
            )
        )

    return Rule(
        name=f"blend:{first.name}:{second.name}:{alpha}",
        allocate=allocate,
        claims_ordinal=first.claims_ordinal and second.claims_ordinal,
    )


def rule_by_name(spec: str) -> Rule:
    """Resolve 'rsd', 'ps', 'utilitarian', 'uniform', 'dictatorship', or
    'blend:<rule>:<rule>:<p/q>'."""
    if spec in BASE_RULES:
        return BASE_RULES[spec]
    if spec.startswith("blend:"):
        parts = spec.split(":")
        if len(parts) != 4:
            raise ValueError(f"blend spec must be blend:<rule>:<rule>:<p/q>: {spec!r}")
        return blend_rule(
            rule_by_name(parts[1]), rule_by_name(parts[2]), parse_fraction(parts[3])
        )
    raise ValueError(f"unknown rule: {spec!r}")


def built_in_family(seed: int, blends: int = 9) -> list[Rule]:
    """The stress-test family: rsd, ps, utilitarian, plus seeded blends of
    distinct base rules with random rational weights."""
    rng = random.Random(seed)
    family = [RSD, PS, UTILITARIAN]
    pool = [RSD, PS, UTILITARIAN]
    for _ in range(blends):
        first, second = rng.sample(pool, 2)
        alpha = Fraction(rng.randrange(1, 10), 10)
        family.append(blend_rule(first, second, alpha))
    return family
