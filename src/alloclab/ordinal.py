"""Ordinal cones, normalization, rate of middle substitution, stochastic
dominance, and the separating-utility construction for extended domains.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .core import (
    ONE,
    ZERO,
    BernoulliUtility,
    DimensionMismatch,
    Lottery,
    ObjectId,
    degenerate_lottery,
    expected_utility,
    object_label,
)


class WrongDimension(ValueError):
    """Operation is defined for three-object utilities only."""


class MuOutOfRange(ValueError):
    """Rate of middle substitution must lie strictly between 0 and 1."""


class PreconditionViolated(ValueError):
    """Separating utility requires that p2 does not weakly sd-dominate p1."""


class InconsistentBase(ValueError):
    """Base utility does not rank objects as the declared order."""


@dataclass(frozen=True)
class OrdinalPreference:
    """Strict ranking of objects, best first."""

    ranking: tuple[ObjectId, ...]

    def __post_init__(self) -> None:
        if sorted(self.ranking) != list(range(len(self.ranking))):
            raise ValueError(f"not a permutation of objects: {self.ranking}")

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
        ranked = sorted(range(utility.m), key=lambda a: utility.values[a], reverse=True)
        order = OrdinalPreference(tuple(ranked))
        object.__setattr__(utility, "_ordinal", order)
    return order


def middle_rate(utility: BernoulliUtility) -> Fraction:
    """(u(mid) - u(worst)) / (u(best) - u(worst)); the one cardinal degree of
    freedom of a three-object utility beyond its ordinal."""
    if utility.m != 3:
        raise WrongDimension("middle rate is defined for three objects")
    best, mid, worst = ordinal_of(utility).ranking
    return (utility.values[mid] - utility.values[worst]) / (
        utility.values[best] - utility.values[worst]
    )


class NormalizedUtility(BernoulliUtility):
    """Canonical cone representative: minimum value 0, values sum to 1."""

    __slots__ = ()

    def __init__(self, values: tuple[Fraction, ...]):
        super().__init__(values)
        if min(values) != ZERO:
            raise ValueError(f"normalized utility must have minimum 0: {values}")
        if sum(values) != ONE:
            raise ValueError(f"normalized utility must sum to 1: {values}")


def canonicalize(utility: BernoulliUtility) -> NormalizedUtility:
    """Unique min-0 sum-1 representative; effectively the same as the input.
    A `NormalizedUtility` already is its own representative and is returned
    as is."""
    if isinstance(utility, NormalizedUtility):
        return utility
    low = min(utility.values)
    shifted = tuple(v - low for v in utility.values)
    scale = sum(shifted)
    return NormalizedUtility(tuple(v / scale for v in shifted))


# Bounded: grid scans reuse a few dozen (order, rate) pairs, while lemma
# sampling draws fresh rates on every trial.
@lru_cache(maxsize=1024)
def utility_from(order: OrdinalPreference, mu: Fraction) -> NormalizedUtility:
    """Canonical utility with the given order and middle rate: best 1, middle
    mu, worst 0, normalized to sum 1, so best 1/(1+mu), middle mu/(1+mu),
    worst 0. Its ranking is `order`. Three objects only."""
    if order.m != 3:
        raise WrongDimension("middle-rate parameterization needs three objects")
    mu = Fraction(mu)
    if not ZERO < mu < ONE:
        raise MuOutOfRange(f"mu must lie strictly in (0, 1), got {mu}")
    values = [ZERO, ZERO, ZERO]
    best, mid, _ = order.ranking
    scale = ONE + mu
    values[best], values[mid] = ONE / scale, mu / scale
    utility = NormalizedUtility(tuple(values))
    object.__setattr__(utility, "_ordinal", order)
    return utility


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
    if p.probs == q.probs:
        return SdVerdict.EQUAL
    p_weak = q_weak = True
    cum_p = cum_q = ZERO
    for obj in order.ranking[:-1]:
        cum_p += p.probs[obj]
        cum_q += q.probs[obj]
        if cum_p < cum_q:
            p_weak = False
        elif cum_p > cum_q:
            q_weak = False
    if p_weak:
        return SdVerdict.DOMINATES
    if q_weak:
        return SdVerdict.DOMINATED_BY
    return SdVerdict.INCOMPARABLE


@dataclass(frozen=True, eq=False)
class VUtility:
    """Member of an extended preference domain: a total evaluator on
    lotteries plus the ranking it induces on degenerate lotteries."""

    name: str
    evaluate: Callable[[Lottery], Fraction]
    ordinal: OrdinalPreference

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
        if lot.m != order.m:
            raise DimensionMismatch("lottery length differs from order")
        value = ZERO
        cum = ZERO
        prev_weight = ZERO
        for obj in order.ranking:
            cum += lot.probs[obj]
            weight = cum**weight_exponent
            value += base.values[obj] * (weight - prev_weight)
            prev_weight = weight
        return value

    name = f"rdu(exp={weight_exponent},{','.join(str(v) for v in base.values)})"
    return VUtility(name=name, evaluate=evaluate, ordinal=order)


def separating_utility(v: VUtility, p1: Lottery, p2: Lottery) -> BernoulliUtility:
    """Bernoulli utility with the same ordinal as ``v`` that strictly prefers
    ``p1`` to ``p2`` in expected utility.

    Requires that p2 does not weakly sd-dominate p1. The construction scans
    objects worst to best for the first strictly positive upper-set
    cumulative gap; objects above that threshold are compressed into
    (1 - delta, 1], objects at or below are scaled by delta. delta starts at
    1/2 and is halved until the ordinal is preserved and the expected-utility
    gap is strictly positive.
    """
    order = v.ordinal
    if sd_compare(p2, p1, order) in (SdVerdict.DOMINATES, SdVerdict.EQUAL):
        raise PreconditionViolated("p2 weakly sd-dominates p1")
    values = v.degenerate_values()

    threshold = None
    for obj in reversed(order.ranking):
        upper = [b for b in range(order.m) if values[b] > values[obj]]
        gap = sum(p1.probs[b] for b in upper) - sum(p2.probs[b] for b in upper)
        if gap > 0:
            threshold = obj
            break
    assert threshold is not None, "positive gap guaranteed by the precondition"

    upper_set = [b for b in range(order.m) if values[b] > values[threshold]]
    peak = max(values[b] for b in upper_set)
    span = peak - values[threshold]

    delta = Fraction(1, 2)
    for _ in range(256):
        raw = tuple(
            ONE - delta * (peak - values[b]) / span if b in upper_set else delta * values[b]
            for b in range(order.m)
        )
        if len(set(raw)) == len(raw):
            candidate = BernoulliUtility(raw)
            gap = expected_utility(candidate, p1) - expected_utility(candidate, p2)
            if ordinal_of(candidate) == order and gap > 0:
                return candidate
        delta /= 2
    raise ValueError("construction failed to preserve the ordinal and separate the lotteries")


@dataclass
class VCandidateReport:
    """Condition checks for one V-domain candidate."""

    name: str
    no_ties: bool
    tie_witness: tuple[ObjectId, ObjectId] | None
    sd_monotone: bool
    sd_witness: dict | None
    pairs_tested: int

    @property
    def passed(self) -> bool:
        return self.no_ties and self.sd_monotone

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "no_ties": self.no_ties,
            "tie_witness": list(self.tie_witness) if self.tie_witness else None,
            "sd_monotone": self.sd_monotone,
            "sd_witness": self.sd_witness,
            "pairs_tested": self.pairs_tested,
        }


@dataclass
class ValidationReport:
    """Per-candidate verdicts for the V-domain conditions."""

    entries: list[VCandidateReport] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(entry.passed for entry in self.entries)

    def to_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "entries": [entry.to_dict() for entry in self.entries],
        }


def validate_v_domain(
    candidates: Sequence[VUtility], sample_count: int, seed: int
) -> ValidationReport:
    """Check V-domain conditions on each candidate: no ties on degenerate
    lotteries (exhaustive) and strict monotonicity on sampled sd-comparable
    lottery pairs. Failures carry witnesses; nothing is raised."""
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    report = ValidationReport()
    for index, candidate in enumerate(candidates):
        rng = random.Random(f"{seed}:candidate:{index}")
        values = candidate.degenerate_values()
        tie_witness = None
        for x in range(len(values)):
            for y in range(x + 1, len(values)):
                if values[x] == values[y]:
                    tie_witness = (x, y)
                    break
            if tie_witness:
                break

        sd_witness = None
        pairs = 0
        if tie_witness is None:
            order = candidate.ordinal
            for _ in range(sample_count):
                dominant, dominated = sd_comparable_pair(order, rng)
                pairs += 1
                if candidate.evaluate(dominant) <= candidate.evaluate(dominated):
                    sd_witness = {
                        "dominant": dominant.to_dict(),
                        "dominated": dominated.to_dict(),
                        "value_dominant": str(candidate.evaluate(dominant)),
                        "value_dominated": str(candidate.evaluate(dominated)),
                    }
                    break
        report.entries.append(
            VCandidateReport(
                name=candidate.name,
                no_ties=tie_witness is None,
                tie_witness=tie_witness,
                sd_monotone=sd_witness is None,
                sd_witness=sd_witness,
                pairs_tested=pairs,
            )
        )
    return report


# Denominator of the random rates and utility levels the samplers draw.
DENOMINATOR = 1024


def random_rational(rng: random.Random) -> Fraction:
    """Uniform rational in (0, 1) with denominator DENOMINATOR."""
    return Fraction(rng.randrange(1, DENOMINATOR), DENOMINATOR)


def random_lottery(m: int, rng: random.Random) -> Lottery:
    """Random rational lottery via integer weights from 0 to 360."""
    while True:
        weights = [rng.randrange(0, 361) for _ in range(m)]
        total = sum(weights)
        if total:
            return Lottery(tuple(Fraction(w, total) for w in weights))


def sd_comparable_pair(
    order: OrdinalPreference, rng: random.Random
) -> tuple[Lottery, Lottery]:
    """(dominant, dominated) pair: shift probability mass from a worse-ranked
    object to a better-ranked one, which strictly raises every affected
    upper-set cumulative."""
    m = order.m
    while True:
        base = random_lottery(m, rng)
        positions = [k for k in range(1, m) if base.probs[order.ranking[k]] > 0]
        if not positions:
            continue
        src_pos = rng.choice(positions)
        dst_pos = rng.randrange(0, src_pos)
        src, dst = order.ranking[src_pos], order.ranking[dst_pos]
        amount = base.probs[src] * Fraction(rng.randrange(1, 16), 16)
        if amount == 0:
            continue
        probs = list(base.probs)
        probs[src] -= amount
        probs[dst] += amount
        return Lottery(tuple(probs)), base


def random_utility_consistent(
    order: OrdinalPreference, rng: random.Random
) -> BernoulliUtility:
    """Random no-ties utility consistent with the given order (any m), with
    levels in [0, 4) on denominator DENOMINATOR."""
    while True:
        draws = {rng.randrange(0, DENOMINATOR * 4) for _ in range(order.m)}
        if len(draws) == order.m:
            break
    levels = sorted((Fraction(d, DENOMINATOR) for d in draws), reverse=True)
    values = [ZERO] * order.m
    for level, obj in zip(levels, order.ranking):
        values[obj] = level
    return BernoulliUtility(tuple(values))
