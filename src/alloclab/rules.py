"""Allocation rules under test: random serial dictatorship, probabilistic
serial, fixed-priority dictatorship, utilitarian, constant-uniform, and
convex blends.

Every rule is a pure deterministic function from utility profiles to
bistochastic allocations, split into a structural key (the part of the
profile the rule reads) and a computation from that key. Each rule has one
memo, where its work is done: rsd, ps and dictatorship memoize their compute
on the ranking profile, utilitarian on the canonical profile, uniform on n,
and a blend keeps only its mix table. So the grid checkers can sweep tens of
thousands of profiles while each rule computes once per distinct key, and
they scan a rule whose key reads only rankings (`Rule.reads_only_rankings`)
one deviation block per class of ranking profiles. The utilitarian rule
solves an exact assignment problem (`lp.best_assignment`).

Rule outputs are canonical (`_canonical`): equal outputs are one object,
and so are equal rows, so the checkers compare outputs and rows by identity.
A blend mixes once per pair of its parts' outputs.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Hashable, Iterable

from .core import (
    ONE,
    ZERO,
    Allocation,
    Frozen,
    UtilityProfile,
    mix_allocations,
    parse_fraction,
    uniform_allocation,
    validate_profile,
)
from .bvn import PermutationMatrix
from .lp import best_assignment
from .ordinal import canonicalize, ordinal_of


class AlphaOutOfRange(ValueError):
    """Blend weight must lie in [0, 1]."""


# Canonical outputs, never freed, so their ids stay unique: row value -> row,
# row ids -> allocation, and the ids of the canonical allocations.
_ROWS: dict[tuple[Fraction, ...], tuple[Fraction, ...]] = {}
_ALLOCATIONS: dict[tuple[int, ...], Allocation] = {}
_CANONICAL: set[int] = set()


def _canonical(alloc: Allocation) -> Allocation:
    """The one allocation equal to `alloc`, built of the one row object of
    each row value: equal outputs, and equal rows, are identical."""
    if id(alloc) in _CANONICAL:
        return alloc
    rows = tuple([_ROWS.setdefault(row, row) for row in alloc.rows])
    found = _ALLOCATIONS.get(key := tuple(map(id, rows)))
    if found is None:
        found = _ALLOCATIONS[key] = Allocation._trusted(rows)
        _CANONICAL.add(id(found))
    return found


class Rule(Frozen):
    """Named allocation mechanism: ``allocate(profile)`` validates the
    profile once and returns ``_canonical(compute(key(profile)))``. ``key``
    returns the hashable part of the profile the rule reads; ``compute``
    must depend on nothing else. A rule keeps no memo of its own: a compute
    worth memoizing is passed in memoized.

    ``reads_only_rankings`` says whether the key reads nothing beyond the
    ranking profile, so that profiles with the same rankings get the same
    allocation. It is derived from the key function itself: the ordinal and
    size keys qualify, a blend's key iff both parts' keys do, and any other
    key does not."""

    __slots__ = ("name", "key", "compute", "__dict__")  # __dict__: reads_only_rankings, hooks
    __eq__, __hash__ = object.__eq__, object.__hash__  # identity

    def __init__(self, name: str, key: Callable[[UtilityProfile], Hashable],
                 compute: Callable[[Hashable], Allocation]):
        self._set(name, key, compute)
        self.__post_init__()

    def __post_init__(self) -> None:
        object.__setattr__(self, "reads_only_rankings", _reads_only_rankings(self.key))

    def allocate(self, profile: UtilityProfile) -> Allocation:
        validate_profile(profile)
        return _canonical(self.compute(self.key(profile)))


Rankings = tuple[tuple[int, ...], ...]


def _ordinal_key(profile: UtilityProfile) -> Rankings:
    """Each agent's ranking, best object first, as plain int tuples (which
    hash in C). Keys are built on every rule call, so they use list
    comprehensions, which are cheaper than generator expressions here."""
    return tuple([ordinal_of(u).ranking for u in profile])


def _canonical_key(profile: UtilityProfile) -> UtilityProfile:
    return tuple([canonicalize(u) for u in profile])


def _size_key(profile: UtilityProfile) -> int:
    return len(profile)


def _pair_key(
    first: Callable[[UtilityProfile], Hashable],
    second: Callable[[UtilityProfile], Hashable],
    profile: UtilityProfile,
) -> tuple[Hashable, Hashable]:
    return first(profile), second(profile)


def _reads_only_rankings(key: Callable[[UtilityProfile], Hashable]) -> bool:
    if isinstance(key, partial) and key.func is _pair_key:
        return all(map(_reads_only_rankings, key.args))
    return key is _ordinal_key or key is _size_key


def _dictatorship_picks(
    rankings: Rankings, priority: Iterable[int]
) -> tuple[int, ...]:
    """Object picked by each agent when dictators choose in priority order."""
    taken: set[int] = set()
    picks = [-1] * len(rankings)
    for agent in priority:
        choice = next(obj for obj in rankings[agent] if obj not in taken)
        picks[agent] = choice
        taken.add(choice)
    return tuple(picks)


def _rsd(rankings: Rankings) -> Allocation:
    """Average of serial dictatorship over all n! priority orders, exact."""
    n = len(rankings)
    counts = [[0] * n for _ in range(n)]
    total = 0
    for priority in itertools.permutations(range(n)):
        total += 1
        for agent, obj in enumerate(_dictatorship_picks(rankings, priority)):
            counts[agent][obj] += 1
    rows = tuple(tuple(Fraction(c, total) for c in r) for r in counts)
    return _canonical(Allocation._trusted(rows))


def _ps(rankings: Rankings) -> Allocation:
    """Simultaneous eating at unit speed with exact rational breakpoints."""
    n = len(rankings)
    remaining = [ONE] * n
    shares = [[ZERO] * n for _ in range(n)]
    while any(remaining):
        targets = [
            next(obj for obj in rankings[agent] if remaining[obj] > 0)
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
    return _canonical(Allocation._trusted(tuple(tuple(row) for row in shares)))


@lru_cache(maxsize=None)
def _permutation_allocation(picks: tuple[int, ...]) -> Allocation:
    """The permutation matrix giving agent i object picks[i], built once per
    picks tuple: at most the sum of n! entries (5,913 for n <= 7)."""
    return _canonical(PermutationMatrix(picks).to_allocation())


def _dictatorship(rankings: Rankings) -> Allocation:
    """Serial dictatorship with the fixed priority 0, 1, ..., n-1."""
    return _permutation_allocation(
        _dictatorship_picks(rankings, range(len(rankings)))
    )


def _utilitarian(canonical: UtilityProfile) -> Allocation:
    """Maximize total expected utility over the bistochastic polytope. The
    optimum is a permutation matrix; ties go to the row-major
    lexicographically smallest one. Inputs are canonicalized by the key, so
    any sensitivity to reports is driven by middle rates, not scale."""
    _, picks = best_assignment(tuple(u.values for u in canonical))
    return _permutation_allocation(picks)


def _uniform(n: int) -> Allocation:
    return _canonical(uniform_allocation(n))


# One memo entry per distinct key: at most (n!)^n for a ranking key.
RSD = Rule("rsd", _ordinal_key, lru_cache(maxsize=None)(_rsd))
PS = Rule("ps", _ordinal_key, lru_cache(maxsize=None)(_ps))
DICTATORSHIP = Rule("dictatorship", _ordinal_key, lru_cache(maxsize=None)(_dictatorship))
UTILITARIAN = Rule("utilitarian", _canonical_key, lru_cache(maxsize=None)(_utilitarian))
UNIFORM = Rule("uniform", _size_key, lru_cache(maxsize=None)(_uniform))

BASE_RULES = {
    rule.name: rule for rule in (RSD, PS, DICTATORSHIP, UTILITARIAN, UNIFORM)
}


@lru_cache(maxsize=None)
def blend_rule(first: Rule, second: Rule, alpha: Fraction) -> Rule:
    """Entrywise convex combination alpha*first + (1-alpha)*second, keyed on
    the pair of its parts' keys. Its only memo is the mix table, keyed on the
    ids of its parts' canonical outputs, so the blend builds at most
    |outputs of first| * |outputs of second| matrices.

    Equal arguments return the one shared `Rule`, mix table included, so a
    family that draws the same blend twice computes it once."""
    alpha = Fraction(alpha)
    if not ZERO <= alpha <= ONE:
        raise AlphaOutOfRange(f"blend weight {alpha} outside [0, 1]")
    mixes: dict[tuple[int, int], Allocation] = {}

    def compute(keys: tuple[Hashable, Hashable]) -> Allocation:
        a, b = _canonical(first.compute(keys[0])), _canonical(second.compute(keys[1]))
        mixed = mixes.get((id(a), id(b)))
        if mixed is None:
            mixed = mixes[id(a), id(b)] = _canonical(mix_allocations(a, b, alpha))
        return mixed

    return Rule(
        name=f"blend:{first.name}:{second.name}:{alpha}",
        key=partial(_pair_key, first.key, second.key),
        compute=compute,
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


def built_in_family(seed: int) -> list[Rule]:
    """The 12-rule stress-test family: rsd, ps, utilitarian, plus nine
    seeded blends of distinct base rules with random rational weights."""
    rng = random.Random(seed)
    family = [RSD, PS, UTILITARIAN]
    pool = [RSD, PS, UTILITARIAN]
    for _ in range(9):
        first, second = rng.sample(pool, 2)
        alpha = Fraction(rng.randrange(1, 10), 10)
        family.append(blend_rule(first, second, alpha))
    return family
