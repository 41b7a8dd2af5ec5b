"""Exact simplex engine, the assignment DP and the domination LP."""

import itertools
import random
from fractions import Fraction

import pytest

from alloclab import (
    MalformedProgram,
    best_assignment,
    dominates,
    expected_utility,
    find_dominating,
    make_allocation,
    make_profile,
    maximize,
    mix_allocations,
    uniform_allocation,
)
from alloclab.bvn import random_bistochastic
from alloclab.ordinal import all_orders, random_utility_consistent

from conftest import best_assignments, dominates_directly, perm_matrix_rows


F = Fraction


def _ones_objective(n=3):
    return tuple(tuple(F(1) for _ in range(n)) for _ in range(n))


class TestMaximize:
    def test_sum_of_entries(self):
        value, _ = maximize(_ones_objective())
        assert value == 3

    def test_single_agent_objective(self):
        objective = ((F(1), F(2, 5), F(0)), (F(0),) * 3, (F(0),) * 3)
        value, argmax = maximize(objective)
        assert value == 1
        assert argmax.rows[0] == (F(1), F(0), F(0))

    def test_total_utility_optimum_is_permutation(self, abc_profile):
        objective = tuple(u.values for u in abc_profile)
        value, argmax = maximize(objective)
        best = best_assignments(abc_profile)
        assert value == max(
            sum(abc_profile[i].values[p[i]] for i in range(3))
            for p in best
        )
        assert argmax.rows in [perm_matrix_rows(p) for p in best]

    def test_lexicographic_tie_break(self):
        # All agents identical: every permutation is optimal; the argmax must
        # be the row-major lexicographically smallest vertex.
        profile = make_profile([[3, 2, 1]] * 3)
        objective = tuple(u.values for u in profile)
        _, argmax = maximize(objective)
        optimal = best_assignments(profile)
        assert len(optimal) == 6
        lex_min = min(perm_matrix_rows(p) for p in optimal)
        assert argmax.rows == lex_min

    def test_matches_enumeration_on_random_objectives(self):
        rng = random.Random(31)
        orders = all_orders(3)
        for _ in range(120):
            profile = tuple(
                random_utility_consistent(rng.choice(orders), rng) for _ in range(3)
            )
            objective = tuple(u.values for u in profile)
            value, argmax = maximize(objective)
            optimal = best_assignments(profile)
            assert value == sum(
                profile[i].values[optimal[0][i]] for i in range(3)
            )
            assert argmax.rows == min(perm_matrix_rows(p) for p in optimal)

    def test_floor_constrained(self):
        # Forcing agent 0 to keep expected utility 1 pins object a to them.
        objective = ((F(0),) * 3, (F(1), F(0), F(0)), (F(0),) * 3)
        floors = ((0, (F(1), F(0), F(0)), F(1)),)
        value, argmax = maximize(objective, floors)
        assert argmax.rows[0] == (F(1), F(0), F(0))
        assert value == 0

    def test_infeasible_floor(self):
        floors = ((0, (F(1), F(0), F(0)), F(2)),)
        assert maximize(_ones_objective(), floors) is None

    def test_malformed(self):
        with pytest.raises(MalformedProgram):
            maximize(((F(1), F(0)),))
        with pytest.raises(MalformedProgram):
            maximize(_ones_objective(), ((5, (F(1),) * 3, F(0)),))


class TestBestAssignment:
    def test_matches_maximize_on_tie_heavy_objectives(self):
        # Entries from {0, 1/2, 1, 3/2, 2} make many optimal permutations, so
        # the tie-break is exercised as often as the optimum.
        rng = random.Random(83)
        for n, trials in ((3, 60), (4, 25), (5, 6)):
            for _ in range(trials):
                objective = tuple(
                    tuple(F(rng.randrange(5), 2) for _ in range(n)) for _ in range(n)
                )
                value, picks = best_assignment(objective)
                assert maximize(objective) == (value, make_allocation(perm_matrix_rows(picks)))

    def test_matches_brute_force_on_mixed_entries(self):
        """The integer DP against every permutation's `Fraction` total, on
        grid utilities 1/(1+mu) and mu/(1+mu), negative fractions and plain
        ints, drawn from a small pool so that optimal ties are common. Ties
        go to the largest permutation tuple."""
        rng = random.Random(14)
        pool = [F(1, 1 + mu) for mu in (F(1, 10), F(2, 7))] + [
            F(2, 7) / (1 + F(2, 7)), F(-3, 10), F(-5, 4), 0, 1, -2,
        ]
        for n, trials in ((3, 80), (4, 40), (5, 12)):
            for _ in range(trials):
                objective = tuple(tuple(rng.choice(pool) for _ in range(n)) for _ in range(n))
                totals = {
                    perm: sum((objective[i][a] for i, a in enumerate(perm)), F(0))
                    for perm in itertools.permutations(range(n))
                }
                top = max(totals.values())
                picks = max(perm for perm, total in totals.items() if total == top)
                value, got = best_assignment(objective)
                assert (value, got) == (top, picks)
                assert type(value) is Fraction

    def test_malformed(self):
        with pytest.raises(MalformedProgram):
            best_assignment(((F(1), F(0)),))
        with pytest.raises(MalformedProgram):
            best_assignment(())


class TestFindDominating:
    def test_opposed_rankings_swap(self):
        profile = make_profile(
            [["1", "1/2", "0"], ["1/2", "1", "0"], ["0", "1/2", "1"]]
        )
        swapped_tops = make_allocation([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        better = find_dominating(profile, swapped_tops)
        assert better is not None
        assert better.rows == make_allocation(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        ).rows

    def test_uniform_is_dominated_for_distinct_rates(self, abc_profile):
        better = find_dominating(abc_profile, uniform_allocation(3))
        assert better is not None
        assert dominates(abc_profile, better, uniform_allocation(3))

    def test_sum_maximizer_is_undominated(self, abc_profile):
        objective = tuple(u.values for u in abc_profile)
        _, top = maximize(objective)
        assert find_dominating(abc_profile, top) is None

    def test_none_means_lp_optimum_equals_status_quo(self, abc_profile):
        objective = tuple(u.values for u in abc_profile)
        _, top = maximize(objective)
        floors = tuple(
            (i, abc_profile[i].values, expected_utility(abc_profile[i], top.row(i)))
            for i in range(3)
        )
        value, _ = maximize(objective, floors)
        assert value == sum(
            expected_utility(u, top.row(i)) for i, u in enumerate(abc_profile)
        )

    def test_returned_dominator_verifies_exactly(self):
        rng = random.Random(57)
        orders = all_orders(3)
        found = 0
        for _ in range(60):
            profile = tuple(
                random_utility_consistent(rng.choice(orders), rng) for _ in range(3)
            )
            alloc = random_bistochastic(3, rng)
            better = find_dominating(profile, alloc)
            if better is not None:
                found += 1
                assert dominates_directly(profile, better, alloc)
        assert found > 30  # random allocations are usually dominated

    def test_negative_status_quo_utilities(self):
        # Utilities below zero give every agent a negative status-quo
        # floor, so the LP enters phase 1 with sign-flipped rows. Shifting
        # every utility by a constant leaves the feasible set and the
        # optimal face unchanged, so the answer must be the same.
        rng = random.Random(58)
        orders = all_orders(3)
        found = 0
        for _ in range(60):
            profile = tuple(
                random_utility_consistent(rng.choice(orders), rng) for _ in range(3)
            )
            shifted = make_profile([[v - 10 for v in u.values] for u in profile])
            alloc = random_bistochastic(3, rng)
            assert all(expected_utility(u, alloc.row(i)) < 0 for i, u in enumerate(shifted))
            better = find_dominating(shifted, alloc)
            assert better == find_dominating(profile, alloc)
            if better is not None:
                found += 1
                assert dominates_directly(shifted, better, alloc)
        assert found > 30

    @pytest.mark.parametrize(
        "rows, status_quo, dominating",
        [
            (
                [[1, 2, 0], [2, 0, 1], [3, 1, 2]],
                [["1/2", "1/2", 0], ["1/2", "1/2", 0], [0, 0, 1]],
                [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
            ),
            (
                [[3, 0, 1], [0, 3, 1], [1, 2, 0]],
                [["1/2", "1/2", 0], ["1/2", 0, "1/2"], [0, "1/2", "1/2"]],
                [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
            ),
        ],
    )
    def test_floor_constrained_tie_break(self, rows, status_quo, dominating):
        # The objective alone does not stop at this vertex: the argmax must
        # be the row-major lexicographically smallest point of the optimal
        # face under the status-quo floors.
        better = find_dominating(make_profile(rows), make_allocation(status_quo))
        assert better.rows == make_allocation(dominating).rows

    def test_optimal_face_is_undominated(self):
        # Agents 0 and 1 have equal utilities, so swapping a and b between
        # them keeps the total: two permutations are optimal, and their even
        # mix is a non-vertex point on the optimal face.
        profile = make_profile(
            [["1", "1/2", "0"], ["1", "1/2", "0"], ["0", "1/2", "1"]]
        )
        optimal = best_assignments(profile)
        assert sorted(optimal) == [(0, 1, 2), (1, 0, 2)]
        vertices = [make_allocation(perm_matrix_rows(p)) for p in optimal]
        for vertex in vertices:
            assert find_dominating(profile, vertex) is None
        mix = mix_allocations(vertices[0], vertices[1], F(1, 2))
        assert mix.rows[0] == (F(1, 2), F(1, 2), F(0))
        assert find_dominating(profile, mix) is None
