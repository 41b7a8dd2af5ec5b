"""Exact simplex engine, the assignment DP and the domination LP."""

import random
from fractions import Fraction

import pytest

from alloclab import (
    EuFloor,
    LinearProgram,
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
        result = maximize(LinearProgram(_ones_objective()))
        assert result.status == "Optimal"
        assert result.value == 3

    def test_single_agent_objective(self):
        objective = ((F(1), F(2, 5), F(0)), (F(0),) * 3, (F(0),) * 3)
        result = maximize(LinearProgram(objective))
        assert result.value == 1
        assert result.argmax.rows[0] == (F(1), F(0), F(0))

    def test_total_utility_optimum_is_permutation(self, abc_profile):
        objective = tuple(u.values for u in abc_profile)
        result = maximize(LinearProgram(objective))
        best = best_assignments(abc_profile)
        assert result.value == max(
            sum(abc_profile[i].values[p[i]] for i in range(3))
            for p in best
        )
        assert result.argmax.rows in [perm_matrix_rows(p) for p in best]

    def test_lexicographic_tie_break(self):
        # All agents identical: every permutation is optimal; the argmax must
        # be the row-major lexicographically smallest vertex.
        profile = make_profile([[3, 2, 1]] * 3)
        objective = tuple(u.values for u in profile)
        result = maximize(LinearProgram(objective))
        optimal = best_assignments(profile)
        assert len(optimal) == 6
        lex_min = min(perm_matrix_rows(p) for p in optimal)
        assert result.argmax.rows == lex_min

    def test_matches_enumeration_on_random_objectives(self):
        rng = random.Random(31)
        orders = all_orders(3)
        for _ in range(120):
            profile = tuple(
                random_utility_consistent(rng.choice(orders), rng) for _ in range(3)
            )
            objective = tuple(u.values for u in profile)
            result = maximize(LinearProgram(objective))
            optimal = best_assignments(profile)
            assert result.value == sum(
                profile[i].values[optimal[0][i]] for i in range(3)
            )
            assert result.argmax.rows == min(perm_matrix_rows(p) for p in optimal)

    def test_floor_constrained(self):
        # Forcing agent 0 to keep expected utility 1 pins object a to them.
        objective = ((F(0),) * 3, (F(1), F(0), F(0)), (F(0),) * 3)
        floors = (EuFloor(0, (F(1), F(0), F(0)), F(1)),)
        result = maximize(LinearProgram(objective, floors))
        assert result.status == "Optimal"
        assert result.argmax.rows[0] == (F(1), F(0), F(0))
        assert result.value == 0

    def test_infeasible_floor(self):
        floors = (EuFloor(0, (F(1), F(0), F(0)), F(2)),)
        result = maximize(LinearProgram(_ones_objective(), floors))
        assert result.status == "Infeasible"
        assert result.argmax is None

    def test_malformed(self):
        with pytest.raises(MalformedProgram):
            LinearProgram(((F(1), F(0)),))
        with pytest.raises(MalformedProgram):
            LinearProgram(_ones_objective(), (EuFloor(5, (F(1),) * 3, F(0)),))


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
                result = maximize(LinearProgram(objective))
                assert value == result.value
                assert perm_matrix_rows(picks) == result.argmax.rows

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
        top = maximize(LinearProgram(objective)).argmax
        assert find_dominating(abc_profile, top) is None

    def test_none_means_lp_optimum_equals_status_quo(self, abc_profile):
        objective = tuple(u.values for u in abc_profile)
        top = maximize(LinearProgram(objective)).argmax
        floors = tuple(
            EuFloor(i, abc_profile[i].values, expected_utility(abc_profile[i], top.row(i)))
            for i in range(3)
        )
        pinned = maximize(LinearProgram(objective, floors))
        assert pinned.value == sum(
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
