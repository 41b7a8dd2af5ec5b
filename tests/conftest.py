"""Shared strategies and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import strategies as st

from enum import Enum

from alloclab import (
    Allocation,
    BernoulliUtility,
    Lottery,
    OrdinalPreference,
    expected_utility,
    make_allocation,
    make_lottery,
    make_utility,
)
from alloclab import rules
from alloclab.checkers import MAX_PATH_PROBES, PROBE_CAP_NOTE, Verdict, report_json
from alloclab.core import (
    ONE,
    ZERO,
    OBJECT_LABELS,
    DimensionMismatch,
    NegativeEntry,
    allocation_distance,
    exact_rational,
    forms_over_common_denominator,
    mix_lotteries,
    parse_fraction,
    profile_with,
)
from alloclab.ordinal import PreconditionViolated, SdVerdict, ordinal_of, sd_compare


F = Fraction

def printed_witness(verdict) -> dict:
    """A Fail's witness as its report prints it: every exact value spelled
    out by the report encoder, then read back from the JSON."""
    return json.loads(report_json(verdict.to_dict()))["witness"]


def read_back(printed, value):
    """Parse a printed witness field back into the type of `value`, the same
    field as the witness holds it, so the two can be compared."""
    if isinstance(value, dict):
        assert printed.keys() == value.keys()
        return {key: read_back(printed[key], field) for key, field in value.items()}
    if isinstance(value, (tuple, list)):
        return type(value)(read_back(p, v) for p, v in zip(printed, value, strict=True))
    if isinstance(value, BernoulliUtility):
        return make_utility(printed)
    if isinstance(value, Allocation):
        return make_allocation(printed)
    if isinstance(value, Lottery):
        return make_lottery(printed)
    if isinstance(value, OrdinalPreference):
        return OrdinalPreference(tuple(OBJECT_LABELS.index(c) for c in printed.split(">")))
    if isinstance(value, Fraction):
        return parse_fraction(printed)
    if isinstance(value, Enum):
        return type(value)(printed)
    assert type(printed) is type(value)  # ints and names print as they are
    return printed


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


def mix_allocations(first: Allocation, second: Allocation, weight: Fraction) -> Allocation:
    """Reference blend of two allocations: the entrywise convex combination,
    row by row (`mix_lotteries`), with the size and weight checked."""
    if first.n != second.n:
        raise DimensionMismatch("allocations differ in size")
    if not ZERO <= exact_rational(weight) <= ONE:
        raise NegativeEntry(f"mix weight {weight} outside [0, 1]")
    return Allocation._trusted(tuple([
        mix_lotteries(p, q, weight) for p, q in zip(first._lotteries, second._lotteries)
    ]))


def reference_rsd(rankings) -> Allocation:
    """Reference rsd kernel: serial dictatorship's picks per priority order
    from a set of taken objects, counted over all n! orders; the canonical
    output, as `rules._rsd` must return it."""
    n = len(rankings)
    counts = [[0] * n for _ in range(n)]
    total = 0
    for priority in itertools.permutations(range(n)):
        total += 1
        taken: set[int] = set()
        for agent in priority:
            choice = next(obj for obj in rankings[agent] if obj not in taken)
            counts[agent][choice] += 1
            taken.add(choice)
    return rules._canonical(Allocation._over(total, counts))


def reference_ps(rankings) -> Allocation:
    """Reference ps kernel: each round every agent's best object left, found
    from the top of its ranking, and the step of the object that runs out
    first; the canonical output, as `rules._ps` must return it."""
    n = len(rankings)
    den = 1
    remaining = [1] * n
    shares = [[0] * n for _ in range(n)]
    while any(remaining):
        targets = [
            next(obj for obj in rankings[agent] if remaining[obj]) for agent in range(n)
        ]
        eaters = [0] * n
        for obj in targets:
            eaters[obj] += 1
        eaten = set(targets)
        first = min(eaten)
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
    return rules._canonical(Allocation._over(den, shares))


def fraction_ncc_continuity(rule, agent, others, endpoints, config) -> Verdict:
    """Reference `checkers.check_ncc_continuity`, for endpoints in one cone:
    the same depth-first bisection with every point, width and gap a
    `Fraction`, probes cached on the point."""
    end0, _ = endpoints
    tau = config.continuity_gap_tau
    delta = config.continuity_interval_delta
    cache: dict[Fraction, Allocation] = {}
    den, (start, end) = forms_over_common_denominator(endpoints)
    order = ordinal_of(end0)

    def alloc_at(alpha: Fraction) -> Allocation:
        alloc = cache.get(alpha)
        if alloc is None:
            a, b = alpha.numerator, alpha.denominator
            moving = BernoulliUtility._trusted(
                b * den, tuple([(b - a) * x + a * y for x, y in zip(start, end)]), order
            )
            alloc = rule.allocate(profile_with(others, agent, moving))
            cache[alpha] = alloc
        return alloc

    witness = None
    capped = False
    pending = [(ZERO, ONE)]
    while pending:
        lo, hi = pending.pop()
        left, right = alloc_at(lo), alloc_at(hi)
        gap = allocation_distance(left, right)
        if gap < tau:
            continue
        if hi - lo < delta:
            witness = {
                "agent": agent,
                "interval": (lo, hi),
                "width": hi - lo,
                "gap": gap,
                "allocation_low": left,
                "allocation_high": right,
            }
            break
        if len(cache) >= MAX_PATH_PROBES:
            capped = True
            continue
        mid = (lo + hi) / 2
        pending += ((mid, hi), (lo, mid))
    coverage = f"path agent={agent}; cone={order}; tau={tau}; delta={delta}"
    if capped:
        coverage += PROBE_CAP_NOTE
    return Verdict(witness, coverage)


def fraction_separating_utility(v, p1: Lottery, p2: Lottery) -> BernoulliUtility:
    """Reference `ordinal.separating_utility`: the same threshold and the
    same halving of delta from 1/2, 256 times at most, with every value a
    `Fraction` and each candidate built by the validating constructor."""
    order = v.ordinal
    if sd_compare(p2, p1, order) in (SdVerdict.DOMINATES, SdVerdict.EQUAL):
        raise PreconditionViolated("p2 weakly sd-dominates p1")
    values = v.degenerate_values()
    threshold = next(
        obj for obj in reversed(order.ranking)
        if sum(p1.probs[b] - p2.probs[b] for b in range(order.m) if values[b] > values[obj]) > 0
    )
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
