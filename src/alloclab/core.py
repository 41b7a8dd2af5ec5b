"""Exact value types for random allocation: lotteries, bistochastic
allocations, Bernoulli utilities, and expected utility.

All probabilities and utilities are `fractions.Fraction`, never floats, so
every comparison made downstream (domination, strategy-proofness, stochastic
dominance) is bit-exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

AgentId = int
ObjectId = int

OBJECT_LABELS = "abcdefghijklmnopqrstuvwxyz"

ZERO = Fraction(0)
ONE = Fraction(1)

_FRACTION_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


class NegativeEntry(ValueError):
    """A probability entry is negative."""


class SumNotOne(ValueError):
    """Lottery probabilities do not sum to exactly one."""


class RowSumNotOne(ValueError):
    """An allocation row does not sum to exactly one."""


class ColumnSumNotOne(ValueError):
    """An allocation column does not sum to exactly one."""


class DimensionMismatch(ValueError):
    """Operands disagree on the number of objects or agents."""


class TiesPresent(ValueError):
    """A Bernoulli utility assigns the same value to two objects."""


def as_fraction(value: int | Fraction | str) -> Fraction:
    """Coerce to Fraction. Strings must be integers or 'p/q'; floats and
    decimal literals are rejected to keep the pipeline exact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_fraction(value)
    raise TypeError(f"exact rational expected, got {type(value).__name__}")


def parse_fraction(text: str) -> Fraction:
    """Parse 'p/q' or 'p'. Rejects decimal and exponent notation."""
    text = text.strip()
    if not _FRACTION_RE.match(text):
        raise ValueError(f"not an exact rational: {text!r}")
    return Fraction(text)


def object_label(index: ObjectId) -> str:
    return OBJECT_LABELS[index]


@dataclass(frozen=True)
class Lottery:
    """Probability vector over objects; one agent's random assignment."""

    probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        for p in self.probs:
            if p < 0:
                raise NegativeEntry(f"negative probability {p}")
        if sum(self.probs) != ONE:
            raise SumNotOne(f"probabilities sum to {sum(self.probs)}, not 1")

    @property
    def m(self) -> int:
        return len(self.probs)

    def to_dict(self) -> dict:
        return {"probs": [str(p) for p in self.probs]}



def make_lottery(probs: Iterable[int | Fraction | str]) -> Lottery:
    """Validated lottery from any iterable of exact rationals."""
    return Lottery(tuple(as_fraction(p) for p in probs))


def degenerate_lottery(obj: ObjectId, m: int) -> Lottery:
    """The lottery placing probability one on a single object."""
    return Lottery(tuple(ONE if a == obj else ZERO for a in range(m)))


@dataclass(frozen=True)
class Allocation:
    """Bistochastic matrix: rows are agents, columns are objects."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.rows)
        if n == 0 or any(len(row) != n for row in self.rows):
            raise DimensionMismatch("allocation matrix must be square")
        for row in self.rows:
            for p in row:
                if p < 0:
                    raise NegativeEntry(f"negative entry {p}")
        for i, row in enumerate(self.rows):
            if sum(row) != ONE:
                raise RowSumNotOne(f"row {i} sums to {sum(row)}, not 1")
        for a in range(n):
            total = sum(row[a] for row in self.rows)
            if total != ONE:
                raise ColumnSumNotOne(f"column {a} sums to {total}, not 1")

    @property
    def n(self) -> int:
        return len(self.rows)

    def row(self, agent: AgentId) -> Lottery:
        return Lottery(self.rows[agent])


def make_allocation(grid: Sequence[Sequence[int | Fraction | str]]) -> Allocation:
    """Validated bistochastic allocation from a square grid of rationals."""
    return Allocation(tuple(tuple(as_fraction(p) for p in row) for row in grid))


def uniform_allocation(n: int) -> Allocation:
    share = Fraction(1, n)
    return Allocation(tuple(tuple(share for _ in range(n)) for _ in range(n)))


def mix_allocations(first: Allocation, second: Allocation, weight: Fraction) -> Allocation:
    """Entrywise convex combination; bistochasticity is preserved."""
    if first.n != second.n:
        raise DimensionMismatch("allocations differ in size")
    co = ONE - weight
    return Allocation(
        tuple(
            tuple(weight * p + co * q for p, q in zip(row_p, row_q))
            for row_p, row_q in zip(first.rows, second.rows)
        )
    )


def allocation_distance(first: Allocation, second: Allocation) -> Fraction:
    """Maximum absolute entry difference, exact."""
    if first.n != second.n:
        raise DimensionMismatch("allocations differ in size")
    return max(
        abs(p - q)
        for row_p, row_q in zip(first.rows, second.rows)
        for p, q in zip(row_p, row_q)
    )


class BernoulliUtility:
    """Per-object utility values with no ties over degenerate lotteries.
    `_ordinal` holds the ranking once `ordinal.ordinal_of` has computed it
    (`ordinal.utility_from` sets it on construction), so the ranking lives
    and dies with the utility."""

    __slots__ = ("values", "_hash", "_ordinal")

    def __init__(self, values: tuple[Fraction, ...]):
        if len(set(values)) != len(values):
            raise TiesPresent(f"tied utility values in {values}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_hash", hash(values))
        object.__setattr__(self, "_ordinal", None)

    def __setattr__(self, name, value):
        raise AttributeError("BernoulliUtility is immutable")

    @property
    def m(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BernoulliUtility):
            return NotImplemented
        return self.values == other.values

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}(({', '.join(str(v) for v in self.values)}))"


def make_utility(values: Iterable[int | Fraction | str]) -> BernoulliUtility:
    return BernoulliUtility(tuple(as_fraction(v) for v in values))


UtilityProfile = tuple[BernoulliUtility, ...]


def make_profile(rows: Sequence[Sequence[int | Fraction | str]]) -> UtilityProfile:
    """Profile of utilities, one per agent; the economy must be square."""
    profile = tuple(make_utility(row) for row in rows)
    validate_profile(profile)
    return profile


def validate_profile(profile: UtilityProfile) -> None:
    n = len(profile)
    if n == 0:
        raise DimensionMismatch("empty profile")
    for u in profile:  # a loop, not any(genexpr): every rule call runs this
        if u.m != n:
            raise DimensionMismatch("profile is not square (n agents, n objects)")


def expected_utility(utility: BernoulliUtility, lottery: Lottery) -> Fraction:
    """Exact inner product of utility values and lottery probabilities."""
    if utility.m != lottery.m:
        raise DimensionMismatch("utility and lottery differ in length")
    return sum(
        (v * p for v, p in zip(utility.values, lottery.probs) if p), ZERO
    )


def support(lottery: Lottery) -> set[ObjectId]:
    """Objects received with strictly positive probability."""
    return {a for a, p in enumerate(lottery.probs) if p > 0}
