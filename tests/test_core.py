"""Value types: lotteries, allocations, utilities, expected utility."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from alloclab import (
    ColumnSumNotOne,
    DimensionMismatch,
    NegativeEntry,
    SumNotOne,
    TiesPresent,
    allocation_distance,
    expected_utility,
    make_allocation,
    make_lottery,
    make_profile,
    make_utility,
    support,
    uniform_allocation,
)
from alloclab.core import parse_fraction

from conftest import lotteries, unit_fractions, utilities


class TestLottery:
    def test_degenerate(self):
        lot = make_lottery([1, 0, 0])
        assert lot.probs == (Fraction(1), Fraction(0), Fraction(0))

    def test_uniform(self):
        lot = make_lottery(["1/3", "1/3", "1/3"])
        assert sum(lot.probs) == 1

    def test_sum_not_one(self):
        with pytest.raises(SumNotOne):
            make_lottery(["1/2", "1/3", "1/4"])  # 13/12

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry):
            make_lottery(["3/2", "-1/2", "0"])


class TestAllocation:
    def test_identity_permutation(self):
        alloc = make_allocation([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert alloc.row(1).probs == (Fraction(0), Fraction(1), Fraction(0))

    def test_uniform(self):
        assert uniform_allocation(3) == make_allocation([["1/3"] * 3] * 3)

    def test_column_sum(self):
        with pytest.raises(ColumnSumNotOne):
            make_allocation([[1, 0, 0], [1, 0, 0], [0, 1, 0]])

    def test_row_sum_checked_first(self):
        from alloclab import RowSumNotOne

        with pytest.raises(RowSumNotOne):
            make_allocation([[1, 1, 0], [0, 0, 1], [0, 0, 0]])

    def test_non_square(self):
        with pytest.raises(DimensionMismatch):
            make_allocation([[1, 0], [0, 1], [0, 0]])

    def test_distance(self):
        a = uniform_allocation(3)
        b = make_allocation([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert allocation_distance(a, b) == Fraction(2, 3)


class TestUtility:
    def test_no_ties_enforced(self):
        with pytest.raises(TiesPresent):
            make_utility([1, 1, 0])

    def test_profile_square(self):
        with pytest.raises(DimensionMismatch):
            make_profile([[1, 2, 3], [3, 2, 1]])

    def test_equality_is_value_based(self):
        assert make_utility([1, 2, 3]) == make_utility(["1", "2", "3"])


class TestExpectedUtility:
    def test_degenerate_returns_object_utility(self):
        u = make_utility(["1", "2/5", "0"])
        assert expected_utility(u, make_lottery([1, 0, 0])) == 1

    def test_uniform_lottery(self):
        u = make_utility(["1", "2/5", "0"])
        assert expected_utility(u, make_lottery(["1/3"] * 3)) == Fraction(7, 15)

    def test_middle_object(self):
        u = make_utility([5, 3, 1])
        assert expected_utility(u, make_lottery([0, 1, 0])) == 3

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            expected_utility(make_utility([1, 2, 3, 4]), make_lottery([1, 0, 0]))

    @given(utilities(), lotteries(), lotteries(), unit_fractions())
    def test_linearity(self, u, lot1, lot2, alpha):
        mixed = make_lottery(
            [alpha * p + (1 - alpha) * q for p, q in zip(lot1.probs, lot2.probs)]
        )
        assert expected_utility(u, mixed) == alpha * expected_utility(
            u, lot1
        ) + (1 - alpha) * expected_utility(u, lot2)


class TestSupport:
    @pytest.mark.parametrize(
        "probs,expected",
        [
            ((1, 0, 0), {0}),
            (("1/2", "1/2", 0), {0, 1}),
            (("1/3", "1/3", "1/3"), {0, 1, 2}),
        ],
    )
    def test_examples(self, probs, expected):
        assert support(make_lottery(probs)) == expected

    @given(lotteries())
    def test_never_empty(self, lot):
        assert support(lot)


class TestRationals:
    def test_parse_fraction(self):
        assert parse_fraction("2/5") == Fraction(2, 5)
        assert parse_fraction("-3") == Fraction(-3)

    @pytest.mark.parametrize("text", ["0.5", "1e-3", "x", "1/0", "2/-3", ""])
    def test_rejects_inexact(self, text):
        with pytest.raises(ValueError):
            parse_fraction(text)
