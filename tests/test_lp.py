"""Exact simplex engine, the assignment DP and the domination LP."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from alloclab import (
    DICTATORSHIP,
    PS,
    RSD,
    UNIFORM,
    UTILITARIAN,
    MalformedProgram,
    OrdinalPreference,
    SingleObject,
    best_assignment,
    dominates,
    expected_utility,
    find_dominating,
    make_allocation,
    make_profile,
    maximize,
    rule_by_name,
    uniform_allocation,
    utility_from,
)
from alloclab import lp, rules
from alloclab.bvn import random_bistochastic
from alloclab.cli import main
from alloclab.core import over_common_denominator
from alloclab.harness import _random_affine
from alloclab.ordinal import all_orders, canonicalize, random_utility_consistent

from conftest import best_assignments, dominates_directly, mix_allocations, perm_matrix_rows


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

    def test_an_unbounded_tableau_is_an_internal_fault(self):
        # `maximize`'s polytope is compact, so no program it builds can leave
        # the ratio test without a row: reaching that is a bug, which the CLI
        # reports as exit 3, not as a refused input.
        with pytest.raises(AssertionError, match="unbounded objective"):
            lp._solve([[1, -1, 0]], [0], [0, 1], 0)

    @pytest.mark.parametrize("inexact", [0.5, True])
    def test_refuses_inexact_entries(self, inexact):
        # A float would come back as a float optimum, and a bool is not a
        # number the caller meant: either would leave exact arithmetic.
        objective = ((F(1), F(2)), (F(3), F(0)))
        for program in (
            (((inexact, F(2)), (F(3), F(0))), ()),
            (objective, ((0, (inexact, 1), F(0)),)),
            (objective, ((0, (F(1), 1), inexact),)),
        ):
            with pytest.raises(MalformedProgram, match="not an int or a Fraction"):
                maximize(*program)


class TestBestAssignment:
    def test_matches_maximize_on_tie_heavy_objectives(self):
        # Entries from {0, 1/2, 1, 3/2, 2} make many optimal permutations, so
        # the tie-break is exercised as often as the optimum. The answer is
        # the integer kernel's, over the entries' common denominator.
        rng = random.Random(83)
        for n, trials in ((3, 60), (4, 25), (5, 6)):
            for _ in range(trials):
                objective = tuple(
                    tuple(F(rng.randrange(5), 2) for _ in range(n)) for _ in range(n)
                )
                value, picks = best_assignment(objective)
                assert maximize(objective) == (value, make_allocation(perm_matrix_rows(picks)))
                scale, scaled = over_common_denominator(objective)
                total, kernel_picks = lp.integer_assignment(scaled)
                assert (value, picks) == (F(total, scale), kernel_picks)

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

    @pytest.mark.parametrize("inexact", [0.5, True])
    def test_refuses_inexact_entries(self, inexact):
        with pytest.raises(MalformedProgram, match="not an int or a Fraction"):
            best_assignment(((inexact, 1), (1, F(1, 4))))


class TestIntegerAssignment:
    def test_matches_brute_force(self):
        """The kernel against every permutation's integer total, on entries
        from a small pool with negatives, so that optimal ties are common:
        the largest total, ties to the largest picks tuple."""
        rng = random.Random(2929)
        for n, trials in ((1, 5), (2, 30), (3, 80), (4, 40), (5, 12), (6, 4)):
            for _ in range(trials):
                scaled = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
                totals = {
                    perm: sum(scaled[i][a] for i, a in enumerate(perm))
                    for perm in itertools.permutations(range(n))
                }
                top = max(totals.values())
                picks = max(perm for perm, total in totals.items() if total == top)
                assert lp.integer_assignment(scaled) == (top, picks)


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
        assert not dominates(abc_profile, uniform_allocation(3), better)

    def test_an_allocation_of_another_size_is_malformed(self, abc_profile):
        with pytest.raises(MalformedProgram, match="allocation size differs from profile"):
            find_dominating(abc_profile, uniform_allocation(4))

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

    @pytest.mark.parametrize("left_out", range(4))
    def test_every_weight_counts(self, left_out):
        # The status quo, an even mix of four permutations, maximizes the
        # total canonical utility of every agent but one, and is still
        # dominated: a pre-test that gave that agent weight 0 would pass it.
        rows = [[0, 1, 2, 3], [3, 4, 5, 1], [0, 3, 4, 2], [3, 4, 2, 0]]
        status_quo = [
            ["1/4", 0, 0, "3/4"], ["1/4", "1/4", "1/2", 0], [0, "1/4", "1/2", "1/4"], ["1/2", "1/2", 0, 0]
        ]
        order = [1, 2, 3]
        order.insert(left_out, 0)
        profile = make_profile([rows[k] for k in order])
        alloc = make_allocation([status_quo[k] for k in order])
        canonical = [canonicalize(u) for u in profile]
        others = [c.values if i != left_out else (F(0),) * 4 for i, c in enumerate(canonical)]
        assert best_assignment(others)[0] == sum(
            expected_utility(c, alloc.row(i)) for i, c in enumerate(canonical) if i != left_out
        )
        better = find_dominating(profile, alloc)
        assert better is not None and dominates_directly(profile, better, alloc)

    def test_reads_the_optimum_utilitarian_found(self, tmp_path, capsys):
        # An efficiency check shaped as the benchmark's lp-solve, over 400
        # rescaled three-agent profiles: utilitarian's compute solves each
        # profile's canonical rows, and the certificate that follows reads
        # that optimum from the kernel's one-entry cache, so the assignment
        # kernel runs once per profile.
        rng = random.Random(2827)
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps([_rescaled_profile_rows(rng) for _ in range(400)]))
        lp._assignment.cache_clear()
        argv = ["check", "--rule", "utilitarian", "--axiom", "efficiency", "--profiles",
                str(path), "--seed", "1"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "Pass"
        info = lp._assignment.cache_info()
        assert (info.misses, info.hits) == (400, 400)

    def test_one_agent(self):
        # The 1x1 polytope is the single point [[1]]. Utilitarian reads
        # canonical utilities, which one object does not have.
        profile = make_profile([[5]])
        assert find_dominating(profile, make_allocation([[1]])) is None
        for rule in (RSD, PS, DICTATORSHIP, UNIFORM):
            assert rule.allocate(profile).rows == ((F(1),),)
        with pytest.raises(SingleObject):
            UTILITARIAN.allocate(profile)

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


# The two-phase simplex over `Fraction`, the reference that the integer
# tableau of `lp._simplex` must follow pivot for pivot. It shares only
# `lp._entering`, which reads signs alone. `seen` collects the paths a
# program took, so the differential test can show it covered each of them.


def _reference_solve(tab, basis, costs, lex, pivots, seen):
    z = [*costs, F(0)]
    for row, b in zip(tab, basis):
        cb = costs[b]
        if cb:
            for j, v in enumerate(row):
                if v:
                    z[j] -= cb * v
    while (col := lp._entering(tab, basis, z, lex)) >= 0:
        pivot_row = -1
        best_ratio = None
        for r, row in enumerate(tab):
            a = row[col]
            if a > 0:
                ratio = row[-1] / a
                if ratio == best_ratio:
                    seen.add("ratio tie")
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[pivot_row])
                ):
                    best_ratio = ratio
                    pivot_row = r
        _reference_pivot(tab, basis, pivot_row, col, pivots, z)


def _reference_pivot(tab, basis, row, col, pivots, z=None):
    pivots.append((row, col))
    prow = tab[row]
    piv = prow[col]
    if piv != 1:
        tab[row] = prow = [v / piv if v else v for v in prow]
    entries = [(j, v) for j, v in enumerate(prow) if v]
    for target in tab if z is None else (*tab, z):
        factor = target[col]
        if factor and target is not prow:
            for j, v in entries:
                target[j] -= factor * v
    basis[row] = col


def _simplex_reference(rows, costs, lex, pivots, seen):
    ncols = len(costs)
    tab = []
    for r, (coef, rhs) in enumerate(rows):
        if rhs < 0:
            seen.add("negative rhs")
            coef = [-c for c in coef]
            rhs = -rhs
        art = [F(0)] * len(rows)
        art[r] = F(1)
        tab.append([*coef, *art, rhs])
    basis = list(range(ncols, ncols + len(rows)))

    _reference_solve(tab, basis, [F(0)] * ncols + [F(-1)] * len(rows), 0, pivots, seen)
    if any(b >= ncols and row[-1] > 0 for b, row in zip(basis, tab)):
        seen.add("infeasible")
        return None
    for r, row in enumerate(tab):
        if basis[r] >= ncols:
            col = next(j for j in range(ncols) if row[j])
            if row[col] < 0:
                seen.add("negative artificial-removal pivot")
            _reference_pivot(tab, basis, r, col, pivots)
    tab = [row[:ncols] + row[-1:] for row in tab]

    _reference_solve(tab, basis, costs, lex, pivots, seen)
    solution = [F(0)] * ncols
    for row, b in zip(tab, basis):
        solution[b] = row[-1]
    return solution


# Entries of both signs over unlike denominators, some given negative.
_DENOMINATORS = (1, 2, 3, 5, 7, -4, -6)


def _entry(rng):
    return F(rng.randint(-6, 6), rng.choice(_DENOMINATORS))


def _random_program(rng, n):
    """An objective and 0 to n+1 floors. Four floors in ten are tight at a
    permutation vertex, so phase 1 often ends with an artificial basic at
    level zero; the others are often infeasible."""
    objective = tuple(tuple(_entry(rng) for _ in range(n)) for _ in range(n))
    floors = []
    for _ in range(rng.randint(0, n + 1)):
        agent = rng.randrange(n)
        values = tuple(_entry(rng) for _ in range(n))
        minimum = values[rng.randrange(n)] if rng.random() < 0.4 else _entry(rng)
        floors.append((agent, values, minimum))
    return objective, tuple(floors)


def _rational_rows(objective, floors):
    """The rows and costs `maximize` solves, as the rational method built
    them: the n row sums and the first n - 1 column sums, which are
    linearly independent, and one row per floor."""
    n = len(objective)
    num_x = n * n
    width = num_x + len(floors)
    rows = []
    for i in range(n):
        coef = [F(0)] * width
        coef[i * n:(i + 1) * n] = [F(1)] * n
        rows.append((coef, F(1)))
    for a in range(n - 1):
        coef = [F(0)] * width
        coef[a:num_x:n] = [F(1)] * n
        rows.append((coef, F(1)))
    for k, (agent, values, minimum) in enumerate(floors):
        coef = [F(0)] * width
        coef[agent * n:(agent + 1) * n] = values
        coef[num_x + k] = F(-1)
        rows.append((coef, minimum))
    costs = [v for row in objective for v in row] + [F(0)] * len(floors)
    return rows, costs


def _integer_rows(rows, costs, rng):
    """The same program as integer rows: each row over its own lcm times a
    random factor from 1 to 3, so scales are not always the smallest, and
    the costs over one shared positive scale."""
    integer = []
    for coef, rhs in rows:
        scale, ((*ints, low),) = over_common_denominator(((*coef, rhs),))
        k = rng.randint(1, 3)
        integer.append(([k * c for c in ints], k * low, k * scale))
    k = rng.randint(1, 3)
    _, (cost_ints,) = over_common_denominator((costs,))
    return integer, [k * c for c in cost_ints]


class TestIntegerSimplex:
    def test_matches_the_rational_reference_pivot_for_pivot(self, monkeypatch):
        pivots = []
        integer_pivot = lp._pivot

        def recording_pivot(tab, basis, row, col, z=None):
            pivots.append((row, col))
            integer_pivot(tab, basis, row, col, z)

        monkeypatch.setattr(lp, "_pivot", recording_pivot)
        rng = random.Random(1709)
        seen = set()
        sizes = set()
        for _ in range(240):
            n = rng.randint(1, 5)
            objective, floors = _random_program(rng, n)
            rows, costs = _rational_rows(objective, floors)
            reference_pivots = []
            expected = _simplex_reference(rows, costs, n * n, reference_pivots, seen)
            pivots.clear()
            assert lp._simplex(*_integer_rows(rows, costs, rng), n * n) == expected
            assert pivots == reference_pivots
            sizes.add(n)
        assert sizes == {1, 2, 3, 4, 5}
        assert seen == {
            "infeasible",
            "negative rhs",
            "negative artificial-removal pivot",
            "ratio tie",
        }


def _random_profile(rng, n):
    return tuple(
        random_utility_consistent(OrdinalPreference(tuple(rng.sample(range(n), n))), rng)
        for _ in range(n)
    )


def test_outputs_pinned_to_the_rational_simplex():
    """A digest of seeded `maximize` and `find_dominating` outputs, computed
    with the rational simplex: any change in a value, an argmax or a
    verdict changes it."""
    digest = hashlib.sha256()
    rng = random.Random(1717)
    for _ in range(150):
        digest.update(repr(maximize(*_random_program(rng, rng.randint(2, 4)))).encode())
    for n in (3, 4, 5):
        for _ in range(6):
            profile = _random_profile(rng, n)
            for alloc in (
                RSD.allocate(profile),
                PS.allocate(profile),
                UNIFORM.allocate(profile),
                random_bistochastic(n, rng),
            ):
                digest.update(repr(find_dominating(profile, alloc)).encode())
    profile = _random_profile(rng, 7)
    digest.update(repr(find_dominating(profile, random_bistochastic(7, rng))).encode())
    assert digest.hexdigest() == (
        "e1ce9250e23d433ab831e1567421190a29e082a8eb36d702e90f03f4b936e94d"
    )


def _fraction_find_dominating(profile, alloc):
    """`find_dominating` in `Fraction`s: the LP over the utilities' values
    with expected-utility floors, and its argmax iff it beats the status quo."""
    floors = tuple((i, u.values, expected_utility(u, alloc.row(i))) for i, u in enumerate(profile))
    value, better = maximize(tuple(u.values for u in profile), floors)
    return better if value > sum(minimum for _, _, minimum in floors) else None


def _unlike_profile(rng, n):
    """Utilities over unlike denominators, many with negative values: each
    agent's seeded utility moved by its own positive affine map."""
    return tuple(_random_affine(u, rng) for u in _random_profile(rng, n))


def test_integer_forms_decide_as_the_fraction_formulation():
    """`find_dominating` and utilitarian's compute take the utilities over
    their common denominator; they return what the same programs return on
    the `Fraction` values."""
    rng = random.Random(2323)
    found = 0
    for n in (2, 3, 3, 3, 4):
        for _ in range(24):
            profile = _unlike_profile(rng, n)
            assert len({u.den for u in profile}) > 1 or n == 2
            for alloc in (RSD.allocate(profile), PS.allocate(profile), random_bistochastic(n, rng)):
                got = find_dominating(profile, alloc)
                assert got == _fraction_find_dominating(profile, alloc)
                found += got is not None
            canonical = tuple(canonicalize(u) for u in profile)
            for utilities in (profile, canonical):
                picks = best_assignment(tuple(u.values for u in utilities))[1]
                assert rules._utilitarian(utilities) is rules._permutation_allocation(picks)
    assert found > 100


def _count_calls(monkeypatch, name):
    """The argument tuples of every call to `lp.<name>` from here on."""
    calls = []
    function = getattr(lp, name)

    def counting(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(lp, name, counting)
    return calls


def _rescaled_profile_rows(rng):
    """A three-agent profile file entry, as the benchmark's `lp-solve`
    writes one, with every agent's grid utility moved by a random positive
    affine map."""
    rows = []
    for _ in range(3):
        values = utility_from(rng.choice(all_orders(3)), F(rng.randrange(1, 64), 64)).values
        scale = F(rng.randrange(1, 20), rng.randrange(1, 20))
        shift = F(rng.randrange(-20, 21), rng.randrange(1, 20))
        rows.append([str(scale * v + shift) for v in values])
    return rows


def test_utilitarian_efficiency_on_rescaled_profiles_solves_no_lp(tmp_path, monkeypatch, capsys):
    """Utilitarian maximizes the total canonical utility, so the canonical
    weights certify each of its outputs, however the input is scaled."""
    rng = random.Random(2828)
    path = tmp_path / "profiles.json"
    path.write_text(json.dumps([_rescaled_profile_rows(rng) for _ in range(120)]))
    calls = _count_calls(monkeypatch, "maximize")
    argv = ["check", "--rule", "utilitarian", "--axiom", "efficiency", "--profiles", str(path),
            "--seed", "1"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "Pass"
    assert calls == []


def test_rescaling_changes_neither_verdict_nor_work(monkeypatch):
    """Whether an allocation is dominated does not depend on how each
    agent's utility is scaled, and neither does the work that decides it:
    the pre-test reads canonical utilities, so a twin, each agent's utility
    moved by its own positive affine map, solves exactly the LPs its
    profile does. Each side's answer is that of the LP alone."""
    rng = random.Random(2830)
    battery = []
    for n in (3,) * 40 + (4,) * 8:
        profile = tuple(canonicalize(u) for u in _random_profile(rng, n))
        battery.append((profile, tuple(_random_affine(u, rng) for u in profile)))
    calls = _count_calls(monkeypatch, "maximize")
    paths = set()
    for name in ("rsd", "ps", "dictatorship", "uniform", "utilitarian",
                 "blend:rsd:utilitarian:1/2", "blend:utilitarian:ps:9/10"):
        rule = rule_by_name(name)
        for pair in battery:
            alloc = rule.allocate(pair[0])
            assert rule.allocate(pair[1]) is alloc
            work, answers = [], []
            for profile in pair:
                calls.clear()
                answers.append(find_dominating(profile, alloc))
                work.append(len(calls))
                assert answers[-1] == _fraction_find_dominating(profile, alloc)
            assert work[0] == work[1]
            assert (answers[0] is None) == (answers[1] is None)
            paths.add((work[0], answers[0] is None))
    # certified; solved and undominated; solved and dominated
    assert paths == {(0, True), (1, True), (1, False)}


def test_certifying_utilitarian_builds_no_expected_utility(monkeypatch):
    """The pre-test is decided on integer forms: certifying a utilitarian
    output, over canonical or rescaled utilities, calls no
    `expected_utility`."""
    rng = random.Random(2931)
    calls = _count_calls(monkeypatch, "expected_utility")
    checked = 0
    for n in (2, 3, 3, 4, 5):
        for _ in range(12):
            profile = _random_profile(rng, n)
            for utilities in (profile, tuple(_random_affine(u, rng) for u in profile)):
                assert find_dominating(utilities, UTILITARIAN.allocate(utilities)) is None
                checked += 1
    assert checked == 120 and calls == []


def _canonical_total(profile, alloc):
    canonical = [canonicalize(u) for u in profile]
    return sum(expected_utility(c, alloc.row(i)) for i, c in enumerate(canonical))


def test_pre_test_certifies_exactly_the_canonical_optima(monkeypatch):
    """`find_dominating` solves no LP iff the status quo's total canonical
    expected utility, in `Fraction`s, is the optimum. The battery holds
    rescaled profiles where agent 1 is a rescaled twin of agent 0, so two
    permutations are optimal; their mixes, off the polytope's vertices and
    with canonical rows over unlike denominators, are certified."""
    rng = random.Random(2932)
    calls = _count_calls(monkeypatch, "maximize")
    mixed_certified = uncertified = 0
    for n in (3,) * 16 + (4,) * 8:
        base = _random_profile(rng, n)
        profile = tuple(_random_affine(u, rng) for u in (base[0], base[0], *base[2:]))
        canonical = tuple(canonicalize(u) for u in profile)
        top = best_assignment(tuple(c.values for c in canonical))[0]
        optima = [make_allocation(perm_matrix_rows(p)) for p in best_assignments(canonical)]
        allocs = [rules._canonical(mix_allocations(optima[0], optima[1], F(k, 5))) for k in (1, 2)]
        allocs += [RSD.allocate(profile), PS.allocate(profile), random_bistochastic(n, rng)]
        for alloc in allocs:
            calls.clear()
            got = find_dominating(profile, alloc)
            certified = _canonical_total(profile, alloc) == top
            assert (calls == []) == certified
            assert got == _fraction_find_dominating(profile, alloc)
            if certified:
                mixed_certified += len({row.den for row in alloc._lotteries}) > 1
            else:
                uncertified += 1
    assert mixed_certified >= 48 and uncertified > 24
