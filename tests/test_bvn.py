"""Birkhoff-von Neumann decomposition round trips and structural bounds."""

import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alloclab import Allocation, decompose, make_allocation, recompose, uniform_allocation
from alloclab.bvn import (
    Decomposition,
    PermutationMatrix,
    random_bistochastic,
)
from alloclab.checkers import report_json


def test_permutation_matrix_is_single_term():
    alloc = make_allocation([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    d = decompose(alloc)
    assert len(d.terms) == 1
    assert d.terms[0][0] == 1
    assert d.terms[0][1].assignment == (1, 2, 0)


def test_uniform_decomposes_into_three_terms():
    d = decompose(uniform_allocation(3))
    assert len(d.terms) == 3
    assert all(w == Fraction(1, 3) for w, _ in d.terms)
    assert recompose(d) == uniform_allocation(3)


def test_half_matrix_two_terms():
    alloc = make_allocation(
        [["1/2", "1/2", "0"], ["1/2", "0", "1/2"], ["0", "1/2", "1/2"]]
    )
    d = decompose(alloc)
    assert len(d.terms) == 2
    assert all(w == Fraction(1, 2) for w, _ in d.terms)
    assert recompose(d) == alloc


def test_recompose_cyclic_shifts():
    cyc = Decomposition(
        tuple(
            (Fraction(1, 3), PermutationMatrix(p))
            for p in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
        )
    )
    assert recompose(cyc) == uniform_allocation(3)


def test_weights_must_be_positive_and_sum_to_one():
    with pytest.raises(ValueError):
        Decomposition(((Fraction(0), PermutationMatrix((0, 1, 2))),))
    with pytest.raises(ValueError):
        Decomposition(((Fraction(1, 2), PermutationMatrix((0, 1, 2))),))


def test_permutation_must_be_bijection():
    with pytest.raises(ValueError):
        PermutationMatrix((0, 0, 2))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_round_trip_random(seed):
    rng = random.Random(seed)
    alloc = random_bistochastic(3, rng)
    d = decompose(alloc)
    assert recompose(d) == alloc
    assert len(d.terms) <= 5
    assert all(w > 0 for w, _ in d.terms)
    assert sum(w for w, _ in d.terms) == 1


def test_round_trip_n4():
    rng = random.Random(77)
    for _ in range(50):
        alloc = random_bistochastic(4, rng)
        d = decompose(alloc)
        assert recompose(d) == alloc
        assert len(d.terms) <= 10  # (n-1)**2 + 1


def _summed_bistochastic(n, rng, resolution=60):
    """The former formula: sum each permutation's Fraction share per entry."""
    count = rng.randrange(1, 2 * n + 1)
    perms = []
    for _ in range(count):
        order = list(range(n))
        rng.shuffle(order)
        perms.append(order)
    raw = [rng.randrange(1, resolution) for _ in range(count)]
    total = sum(raw)
    grid = [[Fraction(0)] * n for _ in range(n)]
    for weight, perm in zip(raw, perms):
        for i, obj in enumerate(perm):
            grid[i][obj] += Fraction(weight, total)
    return tuple(tuple(row) for row in grid)


def test_random_bistochastic_matches_the_summed_shares():
    new, old = random.Random(31), random.Random(31)
    for draw in range(20_000):
        n = 2 + draw % 3
        assert random_bistochastic(n, new).rows == _summed_bistochastic(n, old)


def test_serialization_roundtrip():
    d = decompose(uniform_allocation(3))
    terms = json.loads(report_json(d.to_dict()))["terms"]
    parsed = Decomposition(
        tuple(
            (Fraction(t["weight"]), PermutationMatrix(tuple(t["perm"])))
            for t in terms
        )
    )
    assert parsed == d
    assert recompose(parsed) == uniform_allocation(3)


def test_recompose_refuses_permutations_of_different_sizes():
    small, large = PermutationMatrix((1, 0)), PermutationMatrix((2, 0, 1))
    half = Fraction(1, 2)
    for terms in (((half, large), (half, small)), ((half, small), (half, large))):
        with pytest.raises(ValueError):
            recompose(Decomposition(terms))


def test_trusted_builds_pass_validation():
    """random_bistochastic, recompose and to_allocation skip validation;
    their outputs must pass it."""
    rng = random.Random(97)
    for n in range(2, 8):
        for _ in range(40):
            alloc = random_bistochastic(n, rng)
            assert Allocation(alloc.rows) == alloc
            rebuilt = recompose(decompose(alloc))
            assert Allocation(rebuilt.rows) == rebuilt == alloc
    for n in range(1, 5):
        for perm in itertools.permutations(range(n)):
            alloc = PermutationMatrix(perm).to_allocation()
            assert Allocation(alloc.rows) == alloc


def _fraction_decompose(alloc):
    """The greedy peeling in `Fraction`s: the lexicographically first
    permutation inside the positive entries, at its smallest entry."""
    n = alloc.n
    remaining = [list(row) for row in alloc.rows]
    budget = Fraction(1)
    terms = []
    while budget > 0:
        assignment = next(
            perm for perm in itertools.permutations(range(n))
            if all(remaining[i][perm[i]] > 0 for i in range(n))
        )
        weight = min(remaining[i][assignment[i]] for i in range(n))
        for i, obj in enumerate(assignment):
            remaining[i][obj] -= weight
        terms.append((weight, PermutationMatrix(assignment)))
        budget -= weight
    return tuple(terms)


def test_decompose_peels_as_the_fraction_loop():
    """Same terms, weights and permutations alike, as the loop on the
    `Fraction` rows; the integer peeling divides by the common denominator."""
    rng = random.Random(2424)
    allocations = [random_bistochastic(n, rng) for n in range(1, 8) for _ in range(12)]
    allocations += [
        make_allocation([[str(p) for p in row] for row in random_bistochastic(n, rng).rows])
        for n in (2, 3, 4, 5) for _ in range(6)
    ]
    allocations += [
        make_allocation([["1/2", "1/3", "1/6"], ["1/4", "1/4", "1/2"], ["1/4", "5/12", "1/3"]]),
        make_allocation([[1, 0], [0, 1]]),
        make_allocation([["2/7", "5/7"], ["5/7", "2/7"]]),
    ]
    for alloc in allocations:
        assert decompose(alloc).terms == _fraction_decompose(alloc)
