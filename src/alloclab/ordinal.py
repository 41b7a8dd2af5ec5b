"""Ordinal cones, normalization, rate of middle substitution, stochastic
dominance, and the separating-utility construction for extended domains.
"""

from __future__ import annotations

import itertools
import random
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul
from typing import Callable, Sequence

from .core import (
    ONE,
    ZERO,
    BernoulliUtility,
    DimensionMismatch,
    Frozen,
    Lottery,
    ObjectId,
    degenerate_lottery,
    exact_rational,
    expected_utility,
    lowest_terms,
    object_label,
    over_common_denominator,
)


class WrongDimension(ValueError):
    """Operation is defined for three-object utilities only."""


class MuOutOfRange(ValueError):
    """Rate of middle substitution must lie strictly between 0 and 1."""


class PreconditionViolated(ValueError):
    """Separating utility requires that p2 does not weakly sd-dominate p1."""


class InconsistentBase(ValueError):
    """Base utility does not rank objects as the declared order."""


class SingleObject(ValueError):
    """A one-object utility has no min-0, sum-1 representative."""


class OrdinalPreference(Frozen):
    """Strict ranking of objects, best first."""

    __slots__ = ("ranking",)

    def __init__(self, ranking: tuple[ObjectId, ...]):
        if sorted(ranking) != list(range(len(ranking))):
            raise ValueError(f"not a permutation of objects: {ranking}")
        object.__setattr__(self, "ranking", ranking)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.ranking == other.ranking

    def __hash__(self) -> int:
        return hash(self.ranking)

    @property
    def m(self) -> int:
        return len(self.ranking)

    @property
    def best(self) -> ObjectId:
        return self.ranking[0]

    @property
    def worst(self) -> ObjectId:
        return self.ranking[-1]

    def __str__(self) -> str:
        return ">".join(object_label(a) for a in self.ranking)


@lru_cache(maxsize=None)
def all_orders(m: int = 3) -> tuple[OrdinalPreference, ...]:
    """All strict rankings of m objects, in lexicographic order."""
    return tuple(OrdinalPreference(p) for p in itertools.permutations(range(m)))


def ordinal_of(utility: BernoulliUtility) -> OrdinalPreference:
    """The strict ranking induced by a no-ties utility, computed once per
    utility object and kept on it."""
    order = utility._ordinal
    if order is None:
        ranked = sorted(range(utility.m), key=utility.nums.__getitem__, reverse=True)
        order = OrdinalPreference(tuple(ranked))
        object.__setattr__(utility, "_ordinal", order)
    return order


def middle_rate(utility: BernoulliUtility) -> Fraction:
    """(u(mid) - u(worst)) / (u(best) - u(worst)); the one cardinal degree of
    freedom of a three-object utility beyond its ordinal."""
    if utility.m != 3:
        raise WrongDimension("middle rate is defined for three objects")
    best, mid, worst = ordinal_of(utility).ranking
    nums = utility.nums
    return Fraction(nums[mid] - nums[worst], nums[best] - nums[worst])


class NormalizedUtility(BernoulliUtility):
    """Canonical cone representative: minimum value 0, values sum to 1."""

    __slots__ = ()

    def __init__(self, values: tuple[Fraction, ...]):
        super().__init__(values)
        if min(self.nums) != 0:
            raise ValueError(f"normalized utility must have minimum 0: {values}")
        if sum(self.nums) != self.den:
            raise ValueError(f"normalized utility must sum to 1: {values}")


def canonicalize(utility: BernoulliUtility) -> NormalizedUtility:
    """Unique min-0 sum-1 representative; effectively the same as the input.
    A `NormalizedUtility` already is its own representative and is returned
    as is. A one-object utility has none: its shifted values sum to 0."""
    if isinstance(utility, NormalizedUtility):
        return utility
    low = min(utility.nums)
    shifted = tuple([n - low for n in utility.nums])
    total = sum(shifted)
    if not total:
        raise SingleObject(f"a one-object utility has no canonical form: {utility}")
    return NormalizedUtility._trusted(total, shifted)


# Bounded, as grid scans reuse a few dozen (order, rate) pairs (the samplers
# build theirs with `random_canonical`); typed, so a float equal to a cached
# rate is still refused.
@lru_cache(maxsize=1024, typed=True)
def utility_from(order: OrdinalPreference, mu: Fraction) -> NormalizedUtility:
    """Canonical utility with the given order and middle rate: best 1, middle
    mu, worst 0, normalized to sum 1, so best 1/(1+mu), middle mu/(1+mu),
    worst 0; for mu = p/q that is q, p and 0 over p + q. Its ranking is
    `order`. Three objects only."""
    if order.m != 3:
        raise WrongDimension("middle-rate parameterization needs three objects")
    if not ZERO < exact_rational(mu) < ONE:
        raise MuOutOfRange(f"mu must lie strictly in (0, 1), got {mu}")
    return _canonical_at(order, mu.numerator, mu.denominator)


def _canonical_at(order: OrdinalPreference, p: int, q: int) -> NormalizedUtility:
    """`utility_from(order, p/q)` for a rate p/q in (0, 1) in lowest terms,
    unchecked: q, p and 0 over p + q, which is in lowest terms too."""
    nums = [0, 0, 0]
    best, mid, _ = order.ranking
    nums[best], nums[mid] = q, p
    return NormalizedUtility._trusted(p + q, tuple(nums), order)


class SdVerdict(Enum):
    DOMINATES = "Dominates"
    DOMINATED_BY = "DominatedBy"
    EQUAL = "Equal"
    INCOMPARABLE = "Incomparable"


def sd_compare(p: Lottery, q: Lottery, order: OrdinalPreference) -> SdVerdict:
    """First-order stochastic dominance at a strict ranking, via cumulative
    probability on the upper sets of the ranking."""
    if p.m != q.m or p.m != order.m:
        raise DimensionMismatch("lotteries and order differ in length")
    # Each side's integer form times the other's denominator: one scale.
    p_nums = [n * q.den for n in p.nums]
    q_nums = [n * p.den for n in q.nums]
    if p_nums == q_nums:
        return SdVerdict.EQUAL
    p_weak = q_weak = True
    cum_p = cum_q = 0
    for obj in order.ranking[:-1]:
        cum_p += p_nums[obj]
        cum_q += q_nums[obj]
        if cum_p < cum_q:
            p_weak = False
        elif cum_p > cum_q:
            q_weak = False
    if p_weak:
        return SdVerdict.DOMINATES
    if q_weak:
        return SdVerdict.DOMINATED_BY
    return SdVerdict.INCOMPARABLE


class VUtility(Frozen):
    """Member of an extended preference domain: a total evaluator on
    lotteries plus the ranking it induces on degenerate lotteries."""

    __slots__ = ("name", "evaluate", "ordinal")
    __eq__, __hash__ = object.__eq__, object.__hash__  # identity

    def __init__(self, name: str, evaluate: Callable[[Lottery], Fraction],
                 ordinal: OrdinalPreference):
        self._set(name, evaluate, ordinal)

    def degenerate_values(self) -> tuple[Fraction, ...]:
        m = self.ordinal.m
        return tuple(self.evaluate(degenerate_lottery(a, m)) for a in range(m))


def v_from_bernoulli(utility: BernoulliUtility) -> VUtility:
    """Wrap an expected-utility evaluator as a V-domain member."""
    return VUtility(
        name=f"eu({','.join(str(v) for v in utility.values)})",
        evaluate=lambda lot: expected_utility(utility, lot),
        ordinal=ordinal_of(utility),
    )


def rdu_utility(
    order: OrdinalPreference, base: BernoulliUtility, weight_exponent: int
) -> VUtility:
    """Rank-dependent evaluator with weighting w(p) = p**exponent applied to
    the best-first cumulative distribution.

    Exponent 1 collapses to expected utility; exponents >= 2 give strictly
    sd-monotone non-EU members (w strictly increasing).
    """
    if weight_exponent < 1:
        raise ValueError("weight exponent must be a positive integer")
    if ordinal_of(base) != order:
        raise InconsistentBase(f"base {base.values} does not rank as {order}")

    def evaluate(lot: Lottery) -> Fraction:
        """On the integer forms: with cumulative numerators C over lot.den
        and base values B over base.den, the value is the sum of
        B * (C**exponent - previous C**exponent) over base.den *
        lot.den**exponent."""
        if lot.m != order.m:
            raise DimensionMismatch("lottery length differs from order")
        nums = lot.nums
        total = cum = prev_weight = 0
        for obj in order.ranking:
            cum += nums[obj]
            weight = cum**weight_exponent
            total += base.nums[obj] * (weight - prev_weight)
            prev_weight = weight
        return Fraction(total, base.den * lot.den**weight_exponent)

    name = f"rdu(exp={weight_exponent},{','.join(str(v) for v in base.values)})"
    return VUtility(name=name, evaluate=evaluate, ordinal=order)


def separating_utility(v: VUtility, p1: Lottery, p2: Lottery) -> BernoulliUtility:
    """Bernoulli utility with the same ordinal as ``v`` that strictly prefers
    ``p1`` to ``p2`` in expected utility.

    Requires that p2 does not weakly sd-dominate p1. The construction scans
    objects worst to best for the first strictly positive upper-set
    cumulative gap; objects above that threshold are compressed into
    (1 - delta, 1], objects at or below are scaled by delta. delta starts at
    1/2 and is halved until the values have no ties, the ordinal is
    preserved and the expected-utility gap is strictly positive. It all runs
    on the integer forms of `v`'s values over their common denominator
    `scale`. The result is in lowest terms, and its ranking is left to
    `ordinal_of`, so that a caller's order check reads its values.
    """
    order = v.ordinal
    if sd_compare(p2, p1, order) in (SdVerdict.DOMINATES, SdVerdict.EQUAL):
        raise PreconditionViolated("p2 weakly sd-dominates p1")
    scale, (values,) = over_common_denominator((v.degenerate_values(),))

    threshold = None
    for obj in reversed(order.ranking):
        upper = [b for b in range(order.m) if values[b] > values[obj]]
        gap = sum([p1.nums[b] for b in upper]) * p2.den - sum([p2.nums[b] for b in upper]) * p1.den
        if gap > 0:
            threshold = obj
            break
    assert threshold is not None, "positive gap guaranteed by the precondition"

    upper_set = [b for b in range(order.m) if values[b] > values[threshold]]
    peak = max(values[b] for b in upper_set)
    span = peak - values[threshold]

    # delta = 1/2**k over the one denominator 2**k * span * scale: an upper
    # entry 1 - delta * (peak - v) / span is (2**k * span - peak + v) * scale
    # and a lower entry delta * v is v * span.
    ranking = order.ranking
    for k in range(1, 257):
        unit = span << k
        nums = tuple([
            (unit - peak + values[b]) * scale if b in upper_set else values[b] * span
            for b in range(order.m)
        ])
        if len(set(nums)) == len(nums) and all(
            nums[a] > nums[b] for a, b in zip(ranking, ranking[1:])
        ):
            gap = sum(map(mul, nums, p1.nums)) * p2.den - sum(map(mul, nums, p2.nums)) * p1.den
            if gap > 0:
                return BernoulliUtility._trusted(*lowest_terms(unit * scale, nums))
    raise ValueError("construction failed to preserve the ordinal and separate the lotteries")


def validate_v_domain(
    candidates: Sequence[VUtility], sample_count: int, seed: int
) -> list[dict]:
    """Check V-domain conditions on each candidate: no ties on degenerate
    lotteries (exhaustive) and strict monotonicity on sampled sd-comparable
    lottery pairs. Returns one witness per failing candidate, so an empty
    list means every candidate passed; nothing is raised."""
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    failures = []
    for index, candidate in enumerate(candidates):
        values = candidate.degenerate_values()
        tie = next(
            ([x, y] for x, y in itertools.combinations(range(len(values)), 2)
             if values[x] == values[y]),
            None,
        )
        if tie is not None:
            failures.append({"name": candidate.name, "tie": tie})
            continue
        rng = random.Random(f"{seed}:candidate:{index}")
        for _ in range(sample_count):
            dominant, dominated = sd_comparable_pair(candidate.ordinal, rng)
            high, low = candidate.evaluate(dominant), candidate.evaluate(dominated)
            if high <= low:
                failures.append({
                    "name": candidate.name,
                    "dominant": dominant,
                    "dominated": dominated,
                    "value_dominant": high,
                    "value_dominated": low,
                })
                break
    return failures


# Denominator of the random rates and utility levels the samplers draw.
DENOMINATOR = 1024


def random_canonical(
    order: OrdinalPreference, rng: random.Random, floor: Fraction | int = 0
) -> NormalizedUtility:
    """`utility_from(order, mu)` at a random middle rate mu above `floor`
    (0 <= floor < 1), built from its integer form: one draw k in
    [1, DENOMINATOR), and mu = floor + (1 - floor) * k / DENOMINATOR, which
    for floor = fp/fq is (fp * DENOMINATOR + (fq - fp) * k) / (fq *
    DENOMINATOR), in lowest terms. Three objects only."""
    k = rng.randrange(1, DENOMINATOR)
    fp, fq = floor.numerator, floor.denominator
    p, q = fp * DENOMINATOR + (fq - fp) * k, fq * DENOMINATOR
    common = gcd(p, q)
    return _canonical_at(order, p // common, q // common)


def random_lottery(m: int, rng: random.Random) -> Lottery:
    """Random rational lottery via integer weights from 0 to 360, over their
    total."""
    while True:
        weights = [rng.randrange(0, 361) for _ in range(m)]
        total = sum(weights)
        if total:
            return Lottery._trusted(total, tuple(weights))


def sd_comparable_pair(
    order: OrdinalPreference, rng: random.Random
) -> tuple[Lottery, Lottery]:
    """(dominant, dominated) pair: shift probability mass from a worse-ranked
    object to a better-ranked one, which strictly raises every affected
    upper-set cumulative. The moved amount is k/16 of the source's mass,
    1 <= k < 16, so the dominant lottery's integer form is over 16 times
    the base's denominator."""
    m = order.m
    while True:
        base = random_lottery(m, rng)
        positions = [k for k in range(1, m) if base.nums[order.ranking[k]] > 0]
        if not positions:
            continue
        src_pos = rng.choice(positions)
        dst_pos = rng.randrange(0, src_pos)
        src, dst = order.ranking[src_pos], order.ranking[dst_pos]
        amount = base.nums[src] * rng.randrange(1, 16)
        nums = [16 * n for n in base.nums]
        nums[src] -= amount
        nums[dst] += amount
        return Lottery._trusted(16 * base.den, tuple(nums)), base


def random_utility_consistent(
    order: OrdinalPreference, rng: random.Random
) -> BernoulliUtility:
    """Random no-ties utility consistent with the given order (any m), with
    levels in [0, 4) on denominator DENOMINATOR."""
    while True:
        draws = {rng.randrange(0, DENOMINATOR * 4) for _ in range(order.m)}
        if len(draws) == order.m:
            break
    nums = [0] * order.m
    for level, obj in zip(sorted(draws, reverse=True), order.ranking):
        nums[obj] = level
    return BernoulliUtility._trusted(DENOMINATOR, tuple(nums), order)
