"""Exact value types for random allocation: lotteries, bistochastic
allocations, Bernoulli utilities, and expected utility.

Every probability and utility is an exact rational, never a float, so every
comparison made downstream (domination, strategy-proofness, stochastic
dominance) is bit-exact. A lottery and a utility store their entries in one
integer form and nothing else: `den > 0` and `nums`, where entry k is
`nums[k] / den` (not necessarily in lowest terms). The kernels read it, and
two forms hold the same entries iff their `lowest_terms` are equal, which
equality, hashes and interning key on. An allocation stores its row
lotteries; a builder that holds integer counts over one total passes only
them (`Allocation._over(den, nums)`). The validating constructors take ints
and `Fraction`s only (`exact_rational`) and check the integer form they
compute. The public `probs`, `values` and `rows` are read-only `Fraction`
tuples built on each read, for reports, witnesses and outside callers.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul
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


def exact_rational(value: int | Fraction) -> int | Fraction:
    """`value` itself if it is an int (not a bool) or a `Fraction`; anything
    else raises `TypeError`, so no float or string enters a verdict path."""
    if isinstance(value, Fraction) or (isinstance(value, int) and not isinstance(value, bool)):
        return value
    raise TypeError(f"exact rational expected, got {type(value).__name__}")


def _rational_pair(value: int | Fraction | str) -> tuple[int, int]:
    """An exact rational as (numerator, denominator > 0), not necessarily in
    lowest terms: a string 'p' or 'p/q' (no decimals or exponents) as
    written, surrounding blanks aside, and any other value through
    `exact_rational`."""
    if isinstance(value, str):
        text = value.strip()
        if not _FRACTION_RE.match(text):
            raise ValueError(f"not an exact rational: {text!r}")
        numerator, _, denominator = text.partition("/")
        return int(numerator), int(denominator or 1)
    value = exact_rational(value)
    return value.numerator, value.denominator


def parse_fraction(value: int | Fraction | str) -> Fraction:
    """The one reader of an exact rational as a `Fraction`: a `Fraction` as
    is, and any other value, an int or 'p' or 'p/q' text (no decimals or
    exponents), through `_rational_pair`."""
    if isinstance(value, Fraction):
        return value
    return Fraction(*_rational_pair(value))


def lowest_terms(den: int, nums: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """The integer form `(den, nums)` divided by the gcd of den and nums, or
    the form itself when that is 1. Two forms hold the same entries iff their
    lowest terms are equal."""
    common = gcd(den, *nums)
    if common == 1:
        return den, nums
    return den // common, tuple([x // common for x in nums])


def _entries(form) -> tuple[Fraction, ...]:
    """A lottery's or a utility's entries as `Fraction`s."""
    den = form.den
    return tuple([Fraction(x, den) for x in form.nums])


def object_label(index: ObjectId) -> str:
    return OBJECT_LABELS[index]


class Fields:
    """Value base: `__slots__` names the fields, in constructor order."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._fields() == other._fields()

    def __repr__(self) -> str:
        return type(self).__name__ + repr(self._fields())

    def __reduce__(self):  # for pickle and copy, which cannot set a frozen field
        return type(self), self._fields()


class Frozen(Fields):
    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")
    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return hash(self._fields())

    @classmethod
    def _trusted(cls, value):  # one-field types only; only for values valid by construction
        self = object.__new__(cls)
        object.__setattr__(self, cls.__slots__[0], value)
        return self


class Lottery(Frozen):
    """Probability vector over objects; one agent's random assignment.
    Entry k is ``nums[k] / den``; ``probs`` spells the entries out as
    `Fraction`s."""

    __slots__ = ("den", "nums")

    def __init__(self, probs: tuple[Fraction, ...]):
        den, (nums,) = over_common_denominator((probs,))
        self._set(den, tuple(nums))
        for num in nums:
            if num < 0:
                raise NegativeEntry(f"negative probability {Fraction(num, den)}")
        if sum(nums) != den:
            raise SumNotOne(f"probabilities sum to {Fraction(sum(nums), den)}, not 1")

    @classmethod
    def _trusted(cls, den: int, nums: tuple[int, ...]) -> Lottery:
        """Only for an integer form with den > 0 whose entries are valid by
        construction."""
        self = object.__new__(cls)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)
        return self

    @property
    def probs(self) -> tuple[Fraction, ...]:
        return _entries(self)

    def _fields(self) -> tuple:
        return (self.probs,)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and (
            lowest_terms(self.den, self.nums) == lowest_terms(other.den, other.nums)
        )

    def __hash__(self) -> int:
        return hash(lowest_terms(self.den, self.nums))

    @property
    def m(self) -> int:
        return len(self.nums)


def make_lottery(probs: Iterable[int | Fraction | str]) -> Lottery:
    """Validated lottery from any iterable of exact rationals."""
    return Lottery(tuple(parse_fraction(p) for p in probs))


def degenerate_lottery(obj: ObjectId, m: int) -> Lottery:
    """The lottery placing probability one on a single object."""
    if not 0 <= obj < m:
        raise SumNotOne("probabilities sum to 0, not 1")
    return Lottery._trusted(1, tuple([int(a == obj) for a in range(m)]))


class Allocation(Frozen):
    """Bistochastic matrix: rows are agents, columns are objects. Row i is
    the lottery `row(i)`, which holds its entries in integer form; `rows`
    spells them out as `Fraction` tuples."""

    __slots__ = ("_lotteries",)

    def __init__(self, rows: tuple[tuple[Fraction, ...], ...]):
        den, nums = over_common_denominator(rows)
        self._set(tuple([Lottery._trusted(den, tuple(row)) for row in nums]))
        self.__post_init__()

    # `_trusted(lotteries)` (from `Frozen`): only for rows valid by construction.

    @classmethod
    def _over(cls, den: int, nums: Sequence[Sequence[int]]) -> Allocation:
        """Only for entries valid by construction: entry (i, a) is
        nums[i][a] / den, with den > 0 and not necessarily in lowest terms."""
        return cls._trusted(tuple([Lottery._trusted(den, tuple(row)) for row in nums]))

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple([lottery.probs for lottery in self._lotteries])

    def _fields(self) -> tuple:
        return (self.rows,)

    def __post_init__(self) -> None:
        """The checks, in order, on the rows' integer forms over their common
        denominator; a message spells its entry or sum out as a `Fraction`."""
        n = len(self._lotteries)
        if n == 0 or any(len(row.nums) != n for row in self._lotteries):
            raise DimensionMismatch("allocation matrix must be square")
        den, rows = forms_over_common_denominator(self._lotteries)
        for row in rows:
            for x in row:
                if x < 0:
                    raise NegativeEntry(f"negative entry {Fraction(x, den)}")
        for i, row in enumerate(rows):
            if sum(row) != den:
                raise RowSumNotOne(f"row {i} sums to {Fraction(sum(row), den)}, not 1")
        for a, column in enumerate(zip(*rows)):
            if sum(column) != den:
                raise ColumnSumNotOne(f"column {a} sums to {Fraction(sum(column), den)}, not 1")

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._lotteries == other._lotteries

    def __hash__(self) -> int:
        return hash(self._lotteries)

    @property
    def n(self) -> int:
        return len(self._lotteries)

    def row(self, agent: AgentId) -> Lottery:
        return self._lotteries[agent]


def make_allocation(grid: Sequence[Sequence[int | Fraction | str]]) -> Allocation:
    """Validated bistochastic allocation from a square grid of rationals."""
    return Allocation(tuple(tuple(parse_fraction(p) for p in row) for row in grid))


def uniform_allocation(n: int) -> Allocation:
    if n < 1:
        raise DimensionMismatch(f"an allocation needs at least one agent, got {n}")
    return Allocation._trusted((Lottery._trusted(n, (1,) * n),) * n)


def mix_lotteries(first: Lottery, second: Lottery, weight: Fraction) -> Lottery:
    """w*p + (1-w)*q for lotteries of one size and a weight w = a/b in
    [0, 1], which the caller checks: the integers a*p' + (b-a)*q' over b*d,
    where d is the lcm of the two denominators and p', q' the numerators
    scaled to it."""
    a, b = weight.numerator, weight.denominator
    dp, dq = first.den, second.den
    den = lcm(dp, dq)
    sp, sq = a * (den // dp), (b - a) * (den // dq)
    return Lottery._trusted(
        b * den, tuple([sp * x + sq * y for x, y in zip(first.nums, second.nums)])
    )


def over_common_denominator(
    rows: Sequence[Sequence[int | Fraction]],
) -> tuple[int, list[list[int]]]:
    """The lcm of every entry's denominator, and each entry (which must pass
    `exact_rational`) times it as an int. One positive scale for all entries
    keeps every sum, integer dot product and comparison in order: integer
    kernels decide on these and divide by the scale only to print."""
    scale = lcm(*[exact_rational(x).denominator for row in rows for x in row])
    return scale, [[x.numerator * (scale // x.denominator) for x in row] for row in rows]


def forms_over_common_denominator(forms: Sequence) -> tuple[int, list[list[int]]]:
    """`over_common_denominator` read off integer forms (lotteries or
    utilities): the lcm of their `den`s, and each form's `nums` scaled to it."""
    scale = lcm(*[form.den for form in forms])
    return scale, [[x * (scale // form.den) for x in form.nums] for form in forms]


def allocation_distance(first: Allocation, second: Allocation) -> Fraction:
    """Maximum absolute entry difference, exact."""
    return Fraction(*distance_form(first, second))


def distance_form(first: Allocation, second: Allocation) -> tuple[int, int]:
    """`allocation_distance` as (numerator, denominator > 0), not
    necessarily in lowest terms: one integer maximum over the rows' common
    denominator."""
    if first.n != second.n:
        raise DimensionMismatch("allocations differ in size")
    scale, scaled = forms_over_common_denominator(first._lotteries + second._lotteries)
    n = first.n
    return max([abs(x - y) for p, q in zip(scaled[:n], scaled[n:]) for x, y in zip(p, q)]), scale


class BernoulliUtility(Frozen):
    """Per-object utility values with no ties over degenerate lotteries.
    Value k is ``nums[k] / den``; ``values`` spells them out as `Fraction`s.
    `_ordinal` holds the ranking once `ordinal.ordinal_of` has computed it
    (a builder that knows it sets it on construction), and `_canonical` the
    canonical form once `ordinal.canonicalize` has, so both live and die
    with the utility. Neither enters equality, the hash, the repr or a
    pickle. Its hash is taken on each call, as a lottery's."""

    __slots__ = ("den", "nums", "_ordinal", "_canonical")

    def __init__(self, values: tuple[Fraction, ...]):
        den, (nums,) = over_common_denominator((values,))
        if len(set(nums)) != len(nums):
            raise TiesPresent(f"tied utility values in {values}")
        self._build(den, tuple(nums), None)

    @classmethod
    def _trusted(cls, den: int, nums: tuple[int, ...], order=None) -> BernoulliUtility:
        """Only for an integer form with den > 0 and no tied numerators,
        built so by its caller; `order`, when given, is its ranking."""
        self = object.__new__(cls)
        self._build(den, nums, order)
        return self

    def _build(self, den: int, nums: tuple[int, ...], order) -> None:
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "_ordinal", order)
        object.__setattr__(self, "_canonical", None)

    @property
    def values(self) -> tuple[Fraction, ...]:
        return _entries(self)

    @property
    def m(self) -> int:
        return len(self.nums)

    def __eq__(self, other) -> bool:
        return isinstance(other, BernoulliUtility) and (
            lowest_terms(self.den, self.nums) == lowest_terms(other.den, other.nums)
        )

    def __hash__(self) -> int:
        return hash(lowest_terms(self.den, self.nums))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(({', '.join(str(v) for v in self.values)}))"

    def __reduce__(self):  # the cached ranking and canonical form are rebuilt, not passed
        return type(self), (self.values,)


def make_utility(values: Iterable[int | Fraction | str]) -> BernoulliUtility:
    """Validated utility from any iterable of exact rationals, read straight
    to its integer form: each entry's `_rational_pair`, over the lcm of their
    denominators, in lowest terms, which is the form `BernoulliUtility`
    builds from the entries' `Fraction`s. No `Fraction` is built, except to
    spell out the entries of a tie."""
    pairs = [_rational_pair(v) for v in values]
    den = lcm(*[q for _, q in pairs])
    den, nums = lowest_terms(den, tuple([p * (den // q) for p, q in pairs]))
    if len(set(nums)) != len(nums):
        raise TiesPresent(f"tied utility values in {tuple([Fraction(p, q) for p, q in pairs])}")
    return BernoulliUtility._trusted(den, nums)


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


def profile_with(
    others: tuple[BernoulliUtility, ...], agent: int, utility: BernoulliUtility
) -> UtilityProfile:
    """The profile where `agent` reports `utility` and the others, in agent
    order, report `others`."""
    return others[:agent] + (utility,) + others[agent:]


def expected_utility(utility: BernoulliUtility, lottery: Lottery) -> Fraction:
    """Exact inner product of utility values and lottery probabilities: one
    integer dot product of the two integer forms, over the product of their
    denominators."""
    if utility.m != lottery.m:
        raise DimensionMismatch("utility and lottery differ in length")
    return Fraction(sum(map(mul, utility.nums, lottery.nums)), utility.den * lottery.den)


def support(lottery: Lottery) -> set[ObjectId]:
    """Objects received with strictly positive probability."""
    return {a for a, p in enumerate(lottery.nums) if p > 0}
