"""Allocation rules under test: random serial dictatorship, probabilistic
serial, fixed-priority dictatorship, utilitarian, constant-uniform, and
convex blends.

Every rule is a pure deterministic function from utility profiles to
bistochastic allocations, split into a structural key (the part of the
profile the rule reads) and a computation from that key. Each output is
cached once, where its work is done: rsd and ps memoize their compute on
the ranking profile, dictatorship and utilitarian build a permutation matrix
memoized on its picks, uniform's one matrix is interned, and a blend mixes
each pair of its parts' outputs, and of their rows, once. `forget` frees
every memo of the process at once, the checkers' verdicts (`memo`)
included. The utilitarian rule solves an exact assignment problem on the
integer forms of its canonical utilities (`lp.integer_assignment`).

At three agents, a rule's outputs at the mid profiles of the 216 ordinal
cells (`cell_outputs`) are computed once per rule, and a blend's are the
mixes of its parts'; for a rule whose key reads only rankings
(`Rule.reads_only_rankings`), they are its outputs on the whole domain.
Over a three-agent grid, a rule's block allocator (`Rule.blocks`) lists one
deviation block of outputs at a time and builds no key per profile: a
ranking rule reads its cell outputs, utilitarian takes an integer argmax
per cell into a table per grid, and a blend with a cardinal part mixes its
parts' blocks into a table of its own (`GridTable`).
Every block is one line of a count^3 table (`block_slice`). The checkers
read grid outputs only through blocks, and a rule's outputs along a
continuity path through its table for the path (`path_reader`), where a
blend's entries are mixes of its parts'. Each table of a blend reads its
parts' tables, the first part's before the second's, and passes a part's
error on unchanged. A rule's class rows (`class_rows`)
are the rows it can give one agent within one deviation class, where they
are known: a ranking rule's per class, utilitarian's three unit rows in one
class; a blend whose mix is one-to-one on every pair of its parts' classes
(`_Mix.is_injective`) has its non-bossiness certified from its parts'.

Rule outputs are canonical (`_canonical`): equal outputs are one object,
and so are equal rows, so the checkers compare outputs and rows by identity.
A row is interned on its integer form in lowest terms, so building one
hashes integers, never `Fraction`s.
Every block entry is the very object `Rule.allocate` returns for its
profile.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import partial, wraps
from math import factorial, gcd
from typing import Callable, Hashable, Iterable, Sequence

from .core import (
    ONE,
    ZERO,
    Allocation,
    Frozen,
    Lottery,
    UtilityProfile,
    exact_rational,
    forms_over_common_denominator,
    lowest_terms,
    mix_lotteries,
    parse_fraction,
    profile_with,
    uniform_allocation,
    validate_profile,
)
from .bvn import PermutationMatrix
from .lp import integer_assignment
from .ordinal import NormalizedUtility, all_orders, canonicalize, ordinal_of, utility_from


class AlphaOutOfRange(ValueError):
    """Blend weight must lie in [0, 1]."""


# The process's memos, freed together by `forget`: canonical rows by integer
# form and allocations by row ids, a blend's mixes, the path tables, and
# every `memo` table, the checkers' verdicts among them. An id key is always
# that of an object the intern tables keep alive, so no id is read after it
# is freed.
_ROWS: dict[tuple[int, tuple[int, ...]], Lottery] = {}
_ALLOCATIONS: dict[tuple[int, ...], Allocation] = {}
_CANONICAL: set[int] = set()
_MIXES: dict[tuple[_Mix, int, int], Allocation] = {}
_MIXED_ROWS: dict[tuple[_Mix, int, int], Lottery] = {}
_PATH_OUTPUTS: dict[tuple[Rule, tuple], dict[int, Allocation]] = {}
_MEMOS = [_ROWS, _ALLOCATIONS, _CANONICAL, _MIXES, _MIXED_ROWS, _PATH_OUTPUTS]


def forget() -> None:
    """Free every memo of the process at once. Outputs built before are no
    longer canonical, so a block or table read before must not be read after."""
    for table in _MEMOS:
        table.clear()


def memo(function: Callable) -> Callable:
    """`function` memoized on its arguments until `forget`; a raise keeps
    nothing, and every call with equal arguments gets the one result."""
    table: dict = {}
    _MEMOS.append(table)

    @wraps(function)
    def memoized(*args):
        found = table.get(args)
        if found is None:
            found = table[args] = function(*args)
        return found

    return memoized


def _canonical(alloc: Allocation) -> Allocation:
    """The one allocation equal to `alloc`, built of the one row lottery of
    each row value: equal outputs, and equal rows, are identical."""
    if id(alloc) in _CANONICAL:
        return alloc
    return _interned(tuple([_canonical_row(row) for row in alloc._lotteries]))


def _interned(rows: tuple[Lottery, ...]) -> Allocation:
    """The one allocation of the canonical rows `rows`, keyed on their ids."""
    found = _ALLOCATIONS.get(key := tuple(map(id, rows)))
    if found is None:
        found = _ALLOCATIONS[key] = Allocation._trusted(rows)
        _CANONICAL.add(id(found))
    return found


def _canonical_row(row: Lottery) -> Lottery:
    """The one row lottery with `row`'s entries, keyed on its integer form
    in lowest terms, whose numerators it shares."""
    key = lowest_terms(row.den, row.nums)
    found = _ROWS.get(key)
    if found is None:
        found = _ROWS[key] = row if key[0] == row.den else Lottery._trusted(*key)
    return found


# A block allocator: ``block(agent, i, j)`` is one deviation block's allocations.
Block = Callable[[int, int, int], list[Allocation]]


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

    def blocks(self, cells: Sequence[NormalizedUtility]) -> Block:
        """The block allocator over the three-agent grid `cells`:
        ``block(agent, i, j)`` lists, for each cell c, the allocation of the
        profile where the other two agents, in agent order, report cells i
        and j and `agent` reports cell c. Each entry is the very object
        `allocate` returns for that profile.

        The allocator is chosen from the key and compute, as
        `reads_only_rankings` is: a key that reads only rankings, a ranking
        blend's and uniform's size key among them, is read off the rule's
        cell outputs; a blend with a cardinal part mixes its parts' blocks
        (`_Mix.blocks`) and any other rule is allocated per cell, each into a
        table of its own (`GridTable`), but utilitarian's own pair takes an
        integer argmax per cell into one per grid."""
        if self.reads_only_rankings:
            return _ranking_blocks(self, cells)
        mix = mix_of(self)
        if mix is not None:
            return mix.blocks(cells)
        if _is_utilitarian(self):
            return _utilitarian_blocks(tuple(cells))
        return GridTable(lambda agent, i, j: [
            self.allocate(profile_with((cells[i], cells[j]), agent, cell)) for cell in cells
        ], len(cells)).block


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


def _is_utilitarian(rule: Rule) -> bool:
    """Whether `rule` is utilitarian's own compute on its own key."""
    return rule.compute is UTILITARIAN.compute and rule.key is _canonical_key


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
    """Average of serial dictatorship over all n! priority orders, exact:
    each agent's count of each object over n!, which its rows keep as
    their integer form. Each order's picks are made inline, the objects
    taken held as a bitmask."""
    n = len(rankings)
    counts = [[0] * n for _ in range(n)]
    prefs = [[(obj, 1 << obj) for obj in ranking] for ranking in rankings]
    for priority in itertools.permutations(range(n)):
        taken = 0
        for agent in priority:
            for obj, bit in prefs[agent]:
                if not taken & bit:
                    taken |= bit
                    counts[agent][obj] += 1
                    break
    return _canonical(Allocation._over(factorial(n), counts))


def _ps(rankings: Rankings) -> Allocation:
    """Simultaneous eating at unit speed with exact rational breakpoints,
    on integers: every share and every remaining amount is an integer over
    one common denominator `den`. Each round, every agent eats its best
    object left (a pointer into its ranking, which only moves forward), and
    the object that runs out first (the least remaining / eaters) sets the
    step, remaining / eaters in lowest terms, and `den` grows by that step's
    denominator. Which of several such objects is picked does not matter:
    they set the same step."""
    n = len(rankings)
    den = 1
    remaining = [1] * n
    shares = [[0] * n for _ in range(n)]
    pointers = [0] * n
    left = n
    while left:
        targets = []
        eaters = [0] * n
        for agent, ranking in enumerate(rankings):
            k = pointers[agent]
            while not remaining[ranking[k]]:
                k += 1
            pointers[agent] = k
            targets.append(ranking[k])
            eaters[ranking[k]] += 1
        eaten = [obj for obj in range(n) if eaters[obj]]
        first = eaten[0]
        for obj in eaten:
            if remaining[obj] * eaters[first] < remaining[first] * eaters[obj]:
                first = obj
        common = gcd(remaining[first], eaters[first])
        step, scale = remaining[first] // common, eaters[first] // common
        if scale > 1:
            den *= scale
            remaining = [r * scale for r in remaining]
            shares = [[s * scale for s in row] for row in shares]
        for agent, obj in enumerate(targets):
            shares[agent][obj] += step
        for obj in eaten:
            remaining[obj] -= step * eaters[obj]
            if not remaining[obj]:
                left -= 1
    return _canonical(Allocation._over(den, shares))


@memo
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
    any sensitivity to reports is driven by middle rates, not scale. The
    assignment kernel (`lp.integer_assignment`) runs on the values over
    their common denominator: one positive scale for all agents leaves the
    argmax as it is, and the canonical forms are valid by construction, so
    nothing is checked again."""
    _, picks = integer_assignment(forms_over_common_denominator(canonical)[1])
    return _permutation_allocation(picks)


def _uniform(n: int) -> Allocation:
    return _canonical(uniform_allocation(n))


@memo
def cell_outputs(rule: Rule) -> tuple[Allocation, ...]:
    """The rule's output at the mid profile (every agent at rate 1/2) of each
    of the 216 three-agent ordinal cells, through `rule.allocate`, memoized
    per rule. The cells come in canonical order:
    cell k gives agent a the order ``all_orders(3)[k // 6**(2 - a) % 6]``.

    For a rule that reads only rankings, each entry is its output on the
    whole cell. A blend mixes its parts' cell outputs (`_Mix.mix`), which
    gives each cell the very object `allocate` does; it reads the first
    part's in full before the second's and passes a part's error on
    unchanged. A compute that raises raises at the first cell that needs
    it, and nothing is kept."""
    mix = mix_of(rule)
    if mix is not None:
        return tuple(map(mix.mix, cell_outputs(mix.first), cell_outputs(mix.second)))
    mids = [utility_from(order, Fraction(1, 2)) for order in all_orders(3)]
    return tuple([rule.allocate(profile) for profile in itertools.product(mids, repeat=3)])


def path_reader(
    rule: Rule, path: tuple, profile_at: Callable[[int], UtilityProfile]
) -> Callable[[int], Allocation]:
    """The reader of `rule`'s output at point k of `path`, whose profile is
    ``profile_at(k)``, through the rule's table for the path, filled as it
    is read and kept until `forget`. A blend's entry is the mix of its
    parts' entries (`_Mix.mix`), read through theirs, the first part's
    before the second's, which is the object its `allocate` gives; a part's
    error passes on unchanged, and nothing is kept for that point."""
    table = _PATH_OUTPUTS.setdefault((rule, path), {})
    mix = mix_of(rule)
    if mix is None:
        def compute(k: int) -> Allocation:
            return rule.allocate(profile_at(k))
    else:
        first = path_reader(mix.first, path, profile_at)
        second = path_reader(mix.second, path, profile_at)

        def compute(k: int) -> Allocation:
            return mix.mix(first(k), second(k))

    def read(k: int) -> Allocation:
        alloc = table.get(k)
        if alloc is None:
            alloc = table[k] = compute(k)
        return alloc

    return read


def block_slice(count: int, agent: int, i: int, j: int) -> slice:
    """Where deviation block (agent, i, j) lies in a table over a
    three-agent grid of `count` cells indexed by the profile's cell triple,
    a*count^2 + b*count + c: the other two agents, in agent order, at cells
    i and j, and `agent` at each cell in turn."""
    strides = (count * count, count, 1)
    stride_i, stride_j = strides[:agent] + strides[agent + 1 :]
    start, stride = i * stride_i + j * stride_j, strides[agent]
    return slice(start, start + count * stride, stride)


def _ranking_blocks(rule: Rule, cells: Sequence[NormalizedUtility]) -> Block:
    """Blocks of a rule whose key reads only rankings, read off its cell
    outputs (`cell_outputs`): a profile's output is that of its ordinal
    cell."""
    outputs = cell_outputs(rule)
    index = {order: k for k, order in enumerate(all_orders(3))}
    orders = [index[ordinal_of(cell)] for cell in cells]

    def block(agent: int, i: int, j: int) -> list[Allocation]:
        line = outputs[block_slice(6, agent, orders[i], orders[j])]
        return [line[order] for order in orders]

    return block


@memo
def _utilitarian_blocks(cells: tuple[NormalizedUtility, ...]) -> Block:
    """Utilitarian's blocks without the assignment DP, filled into a table
    (`GridTable`) per grid, so that every scan and blend of the only
    cardinal base rule on that grid reads one table.

    A profile's optimum is the permutation with the largest total of the 6
    over its canonical values, ties going to the largest picks tuple, which is
    `lp.integer_assignment`'s choice, and so `_utilitarian`'s; so it is the
    maximal (total, k) for the k-th permutation in lexicographic order.

    Every cell's values are scaled to integers over one positive common
    denominator, once per grid, so each total and each comparison is the
    rational one. The moving agent's part of a total is its value of the
    object the permutation gives it, so among the two permutations that
    give it the same object the fixed agents' part decides. A block keeps
    that best (part, k) per object, and each cell adds its values to the
    three and takes the maximum."""
    perms = list(itertools.permutations(range(3)))
    outputs = [_permutation_allocation(picks) for picks in perms]
    _, scaled = forms_over_common_denominator([canonicalize(cell) for cell in cells])

    def block(agent: int, i: int, j: int) -> list[Allocation]:
        first, second = [k for k in range(3) if k != agent]
        fixed_i, fixed_j = scaled[i], scaled[j]
        (t0, k0), (t1, k1), (t2, k2) = [
            max(
                (fixed_i[picks[first]] + fixed_j[picks[second]], k)
                for k, picks in enumerate(perms)
                if picks[agent] == obj
            )
            for obj in range(3)
        ]
        return [
            outputs[max((t0 + v0, k0), (t1 + v1, k1), (t2 + v2, k2))[1]]
            for v0, v1, v2 in scaled
        ]

    return GridTable(block, len(cells)).block


# One memo entry per distinct key: at most (n!)^n for a ranking key.
RSD = Rule("rsd", _ordinal_key, memo(_rsd))
PS = Rule("ps", _ordinal_key, memo(_ps))
DICTATORSHIP = Rule("dictatorship", _ordinal_key, _dictatorship)
UTILITARIAN = Rule("utilitarian", _canonical_key, _utilitarian)
UNIFORM = Rule("uniform", _size_key, _uniform)

BASE_RULES = {
    rule.name: rule for rule in (RSD, PS, DICTATORSHIP, UTILITARIAN, UNIFORM)
}


class _Mix:
    """A blend's compute, from the pair of its parts' keys. It mixes each
    pair of its parts' canonical outputs once (`_MIXES`), so it builds at
    most |outputs of first| * |outputs of second| matrices, and each pair of
    their rows once (`_MIXED_ROWS`). Its parts' tabulated outputs are mixed
    through the same tables: their blocks (`Rule.blocks`), cell outputs
    (`cell_outputs`) and outputs along a path (`path_reader`), and its
    injectivity is tested on their class rows (`class_rows`)."""

    __slots__ = ("first", "second", "alpha", "key")

    def __init__(self, first: Rule, second: Rule, alpha: Fraction):
        self.first, self.second, self.alpha = first, second, alpha
        self.key = partial(_pair_key, first.key, second.key)

    def mix(self, a: Allocation, b: Allocation) -> Allocation:
        """The canonical alpha*a + (1-alpha)*b of canonical `a` and `b`."""
        mixed = _MIXES.get(key := (self, id(a), id(b)))
        if mixed is None:
            mixed = _MIXES[key] = _interned(tuple(map(self.mix_row, a._lotteries, b._lotteries)))
        return mixed

    def mix_row(self, p: Lottery, q: Lottery) -> Lottery:
        row = _MIXED_ROWS.get(key := (self, id(p), id(q)))
        if row is None:
            row = _MIXED_ROWS[key] = _canonical_row(mix_lotteries(p, q, self.alpha))
        return row

    def __call__(self, keys: tuple[Hashable, Hashable]) -> Allocation:
        return self.mix(
            _canonical(self.first.compute(keys[0])), _canonical(self.second.compute(keys[1]))
        )

    def is_injective(self) -> bool:
        """Whether mixing at alpha is one-to-one within every deviation
        class (one agent, fixed orders of the other two), so that equal
        mixed own rows in a class mean equal part rows; False when a part's
        class rows (`class_rows`) are not known. Each class of the first
        part is tested with each class of the second, which covers the
        pair that meets in any one deviation class. Rows are canonical, so
        the mixed rows are counted by identity."""
        firsts, seconds = class_rows(self.first), class_rows(self.second)
        if firsts is None or seconds is None:
            return False
        return all(
            len({id(self.mix_row(p, q)) for p in ps for q in qs}) == len(ps) * len(qs)
            for ps in firsts
            for qs in seconds
        )

    def blocks(self, cells: Sequence[NormalizedUtility]) -> Block:
        first, second = self.first.blocks(cells), self.second.blocks(cells)
        return GridTable(lambda agent, i, j: list(
            map(self.mix, first(agent, i, j), second(agent, i, j))
        ), len(cells)).block


class GridTable:
    """A rule's allocations over a three-agent grid of `count` cells, indexed
    by the profile's cell triple, so that each block is one slice
    (`block_slice`): one reference per grid profile (1,728 at 2 rates,
    74,088 on the default grid, 216,000 at the 10-rate cap). It is filled
    lazily by a block allocator (`Rule.blocks`), which is called once per
    block that holds an entry not yet filled, and fills the whole block; so
    the three agents' blocks share its entries, and a compute that raises
    raises at the first block that needs it. A blend with a cardinal part
    and the per-cell allocator fill one per check, and utilitarian one per
    grid (`_utilitarian_blocks`)."""

    __slots__ = ("count", "entries", "allocator")

    def __init__(self, allocator: Block, count: int):
        self.count = count
        self.entries: list[Allocation | None] = [None] * count**3
        self.allocator = allocator

    def block(self, agent: int, i: int, j: int) -> list[Allocation]:
        """Deviation block (agent, i, j), as `Rule.blocks` lists it."""
        entries = block_slice(self.count, agent, i, j)
        allocations = self.entries[entries]
        if not all(allocations):  # an allocation is truthy, an unfilled entry None
            allocations = self.entries[entries] = self.allocator(agent, i, j)
        return allocations


def mix_of(rule: Rule) -> _Mix | None:
    """The blend's compute when `rule` is a blend read on its own pair key,
    else None."""
    compute = rule.compute
    return compute if isinstance(compute, _Mix) and rule.key is compute.key else None


@memo
def class_rows(rule: Rule) -> list[list[Lottery]] | None:
    """The own rows that `rule` can give one agent within one deviation
    class (the agent's 6 orders, fixed orders of the other two), each
    distinct set of canonical rows once, or None when they are not known;
    memoized per rule. A ranking rule's are read off its cell outputs
    (`cell_outputs`), at most six rows in each of its 108 classes, and
    utilitarian's are its three unit rows in one class, since it can give
    any of them in each; any other rule's, a blend with a cardinal part
    among them, are not known."""
    if _is_utilitarian(rule):
        return [list(_permutation_allocation((0, 1, 2))._lotteries)]
    if not rule.reads_only_rankings:
        return None
    outputs = cell_outputs(rule)
    found: dict[frozenset[int], list[Lottery]] = {}
    for agent, i, j in itertools.product(range(3), range(6), range(6)):
        rows = {id(row): row for row in (
            alloc._lotteries[agent] for alloc in outputs[block_slice(6, agent, i, j)]
        )}
        found.setdefault(frozenset(rows), list(rows.values()))
    return list(found.values())


def blend_rule(first: Rule, second: Rule, alpha: Fraction) -> Rule:
    """Entrywise convex combination alpha*first + (1-alpha)*second, keyed on
    the pair of its parts' keys, computed by a `_Mix`: a new rule per call,
    whose mixes live in the process's mix tables until `forget`."""
    alpha = Fraction(exact_rational(alpha))
    if not ZERO <= alpha <= ONE:
        raise AlphaOutOfRange(f"blend weight {alpha} outside [0, 1]")
    compute = _Mix(first, second, alpha)
    return Rule(
        name=f"blend:{first.name}:{second.name}:{alpha}", key=compute.key, compute=compute
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
    distinct seeded blends of distinct base rules with random rational
    weights; a draw of a blend already in the family, by name, is drawn
    again."""
    rng = random.Random(seed)
    family = [RSD, PS, UTILITARIAN]
    pool = [RSD, PS, UTILITARIAN]
    while len(family) < 12:
        first, second = rng.sample(pool, 2)
        blend = blend_rule(first, second, Fraction(rng.randrange(1, 10), 10))
        if blend.name not in [rule.name for rule in family]:
            family.append(blend)
    return family
