"""Shared strategies and independent oracles for the test suite."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from alloclab import (
    Allocation,
    BernoulliUtility,
    Lottery,
    expected_utility,
    make_lottery,
    make_utility,
)


F = Fraction

# Grids small enough to sweep whole in a unit test.
REDUCED_GRIDS = [
    (F(1, 2),),
    (F(1, 4), F(3, 4)),
    (F(1, 3), F(1, 2), F(2, 3)),
    (F(1, 10), F(9, 10)),  # ps and its blends fail strategy-proofness here
]


@st.composite
def lotteries(draw, m: int = 3, resolution: int = 24) -> Lottery:
    weights = draw(
        st.lists(
            st.integers(min_value=0, max_value=resolution), min_size=m, max_size=m
        ).filter(lambda ws: sum(ws) > 0)
    )
    total = sum(weights)
    return make_lottery([Fraction(w, total) for w in weights])


@st.composite
def utilities(draw, m: int = 3) -> BernoulliUtility:
    values = draw(
        st.lists(
            st.fractions(
                min_value=Fraction(-4), max_value=Fraction(4), max_denominator=16
            ),
            min_size=m,
            max_size=m,
            unique=True,
        )
    )
    return make_utility(values)


@st.composite
def unit_fractions(draw, max_denominator: int = 32) -> Fraction:
    return draw(
        st.fractions(
            min_value=Fraction(0), max_value=Fraction(1), max_denominator=max_denominator
        )
    )


def assignment_totals(profile) -> dict[tuple[int, ...], Fraction]:
    """Independent oracle: total utility of each deterministic assignment."""
    n = len(profile)
    return {
        perm: sum(profile[i].values[perm[i]] for i in range(n))
        for perm in itertools.permutations(range(n))
    }


def best_assignments(profile) -> list[tuple[int, ...]]:
    totals = assignment_totals(profile)
    top = max(totals.values())
    return [perm for perm, value in totals.items() if value == top]


def perm_matrix_rows(perm: tuple[int, ...]) -> tuple[tuple[Fraction, ...], ...]:
    n = len(perm)
    return tuple(
        tuple(Fraction(1) if perm[i] == a else Fraction(0) for a in range(n))
        for i in range(n)
    )


def dominates_directly(profile, candidate: Allocation, incumbent: Allocation) -> bool:
    """Oracle-side domination test built only on expected_utility."""
    strict = False
    for i, u in enumerate(profile):
        gained = expected_utility(u, candidate.row(i))
        held = expected_utility(u, incumbent.row(i))
        if gained < held:
            return False
        if gained > held:
            strict = True
    return strict


def rsd_oracle(profile) -> tuple[tuple[Fraction, ...], ...]:
    """Independent random-serial-dictatorship average via dict bookkeeping."""
    n = len(profile)
    rankings = {
        i: sorted(range(n), key=lambda a: profile[i].values[a], reverse=True)
        for i in range(n)
    }
    tally = {(i, a): 0 for i in range(n) for a in range(n)}
    orders = list(itertools.permutations(range(n)))
    for priority in orders:
        available = set(range(n))
        for agent in priority:
            pick = next(a for a in rankings[agent] if a in available)
            available.discard(pick)
            tally[(agent, pick)] += 1
    return tuple(
        tuple(Fraction(tally[(i, a)], len(orders)) for a in range(n)) for i in range(n)
    )


@pytest.fixture
def abc_profile():
    """All three agents rank a > b > c with distinct middle rates."""
    return tuple(
        make_utility(values)
        for values in (("1", "1/10", "0"), ("1", "1/2", "0"), ("1", "9/10", "0"))
    )
