"""The allocation rules: rsd, ps, dictatorship, utilitarian, blends."""

import gc
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alloclab import (
    Allocation,
    AlphaOutOfRange,
    CheckConfig,
    DimensionMismatch,
    DICTATORSHIP,
    PS,
    RSD,
    UNIFORM,
    UTILITARIAN,
    all_orders,
    blend_rule,
    check_non_bossiness,
    check_strategy_proofness,
    make_allocation,
    make_profile,
    make_utility,
    rule_by_name,
    uniform_allocation,
    utility_from,
)
from alloclab.ordinal import (
    OrdinalPreference,
    ordinal_of,
    random_utility_consistent,
    sd_compare,
)
from alloclab import rules
from alloclab.core import over_common_denominator, profile_with, validate_profile
from alloclab import checkers
from alloclab.checkers import DEFAULT_MU_GRID, check_continuity_battery, grid_cells
from alloclab.rules import BASE_RULES, Rule, forget, mix_of

from conftest import (
    REDUCED_GRIDS,
    best_assignments,
    mix_allocations,
    perm_matrix_rows,
    reference_ps,
    reference_rsd,
    rsd_oracle,
)


F = Fraction

SAME_TOPS = [[3, 2, 1], [3, 1, 2], [2, 3, 1]]  # a>b>c, a>c>b, b>a>c
DISJOINT_TOPS = [[3, 2, 1], [2, 3, 1], [2, 1, 3]]  # a>b>c, b>a>c, c>a>b


class TestRsd:
    def test_identical_orders_gives_uniform(self):
        profile = make_profile([[3, 2, 1]] * 3)
        assert RSD.allocate(profile) == uniform_allocation(3)

    def test_disjoint_tops(self):
        profile = make_profile(DISJOINT_TOPS)
        assert RSD.allocate(profile) == make_allocation(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        )

    def test_contested_profile_matches_enumeration(self):
        profile = make_profile(SAME_TOPS)
        expected = make_allocation(
            [
                ["1/2", "1/6", "1/3"],
                ["1/2", "0", "1/2"],
                ["0", "5/6", "1/6"],
            ]
        )
        assert RSD.allocate(profile) == expected
        assert rsd_oracle(profile) == expected.rows

    def test_matches_oracle_on_random_profiles(self):
        rng = random.Random(13)
        orders = all_orders(3)
        for _ in range(60):
            profile = tuple(
                random_utility_consistent(rng.choice(orders), rng) for _ in range(3)
            )
            assert RSD.allocate(profile).rows == rsd_oracle(profile)


class TestPs:
    def test_identical_orders_gives_uniform(self):
        profile = make_profile([[3, 2, 1]] * 3)
        assert PS.allocate(profile) == uniform_allocation(3)

    def test_disjoint_tops(self):
        profile = make_profile(DISJOINT_TOPS)
        assert PS.allocate(profile) == make_allocation(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        )

    def test_contested_profile_matches_hand_simulation(self):
        # Eating schedule: a shared by agents 1,2 until 1/2; b shared by 1,3
        # from 1/2 to 3/4; c eaten by 2 alone then by everyone until 1.
        profile = make_profile(SAME_TOPS)
        assert PS.allocate(profile) == make_allocation(
            [
                ["1/2", "1/4", "1/4"],
                ["1/2", "0", "1/2"],
                ["0", "3/4", "1/4"],
            ]
        )

    def test_sd_relation_to_rsd_recorded(self):
        # Recorded outcome over all 216 ordinal cells: per-agent shares are
        # never sd-incomparable, but neither rule's share dominates uniformly
        # (72 agent-cases each way, 504 equal).
        counts = {"Dominates": 0, "DominatedBy": 0, "Equal": 0, "Incomparable": 0}
        mid = F(1, 2)
        for orders in itertools.product(all_orders(3), repeat=3):
            profile = tuple(utility_from(o, mid) for o in orders)
            ps_alloc = PS.allocate(profile)
            rsd_alloc = RSD.allocate(profile)
            for i in range(3):
                verdict = sd_compare(ps_alloc.row(i), rsd_alloc.row(i), orders[i])
                counts[verdict.value] += 1
        assert counts == {
            "Dominates": 72,
            "DominatedBy": 72,
            "Equal": 504,
            "Incomparable": 0,
        }


@pytest.mark.parametrize(
    "kernel, reference", [(rules._rsd, reference_rsd), (rules._ps, reference_ps)], ids=["rsd", "ps"]
)
def test_kernels_return_the_reference_objects(kernel, reference):
    """The rsd and ps kernels return the very canonical object of the set-
    and generator-based references: on every three-agent ranking profile,
    on 200 seeded profiles each at four, five and six agents, and where all
    agents share one ranking (every object eaten by all at once)."""
    profiles = list(itertools.product([order.ranking for order in all_orders(3)], repeat=3))
    rng = random.Random(31)
    for n in (4, 5, 6):
        profiles += [tuple(tuple(rng.sample(range(n), n)) for _ in range(n)) for _ in range(200)]
        profiles += [(ranking,) * n for ranking in (tuple(range(n)), tuple(rng.sample(range(n), n)))]
    for rankings in profiles:
        assert kernel(rankings) is reference(rankings)


class TestDictatorship:
    def test_priority_order_respected(self):
        profile = make_profile(SAME_TOPS)
        # Agent 0 takes a, agent 1 then takes c (a gone, prefers a>c>b),
        # agent 2 takes b.
        assert DICTATORSHIP.allocate(profile) == make_allocation(
            [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
        )


class TestUtilitarian:
    def test_highest_middle_rate_gets_middle_object(self, abc_profile):
        alloc = UTILITARIAN.allocate(abc_profile)
        assert alloc.rows[2][1] == 1  # agent 3 receives b outright

    def test_disjoint_tops(self):
        profile = make_profile(DISJOINT_TOPS)
        assert UTILITARIAN.allocate(profile) == make_allocation(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        )

    def test_rate_reversal_moves_middle_object(self):
        reversed_profile = make_profile(
            [["1", "9/10", "0"], ["1", "1/2", "0"], ["1", "1/10", "0"]]
        )
        alloc = UTILITARIAN.allocate(reversed_profile)
        assert alloc.rows[0][1] == 1  # now agent 1 receives b

    def test_scale_invariance_via_canonicalization(self, abc_profile):
        scaled = tuple(
            make_utility([F(7) * v + F(3) for v in u.values]) for u in abc_profile
        )
        assert UTILITARIAN.allocate(scaled) == UTILITARIAN.allocate(abc_profile)

    def test_fully_tied_profile_gives_anti_diagonal(self):
        # Every permutation is optimal; the row-major lexicographically
        # smallest permutation matrix is the anti-diagonal.
        profile = make_profile([["1", "1/2", "0"]] * 3)
        assert UTILITARIAN.allocate(profile) == make_allocation(
            [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
        )

    def test_agrees_with_enumeration_oracle(self):
        from alloclab import canonicalize

        rng = random.Random(19)
        orders = all_orders(3)
        for _ in range(40):
            profile = tuple(
                random_utility_consistent(rng.choice(orders), rng) for _ in range(3)
            )
            canonical = tuple(canonicalize(u) for u in profile)
            best = best_assignments(canonical)
            assert UTILITARIAN.allocate(profile).rows == min(
                perm_matrix_rows(p) for p in best
            )


class TestOrdinalInvariance:
    def test_rsd_and_ps_read_only_ordinals(self):
        rng = random.Random(3)
        orders = all_orders(3)
        for _ in range(40):
            profile_orders = [rng.choice(orders) for _ in range(3)]
            profile = tuple(
                random_utility_consistent(o, rng) for o in profile_orders
            )
            twin = tuple(random_utility_consistent(o, rng) for o in profile_orders)
            assert RSD.allocate(profile) == RSD.allocate(twin)
            assert PS.allocate(profile) == PS.allocate(twin)


class TestBlend:
    def test_extremes(self, abc_profile):
        assert blend_rule(RSD, UTILITARIAN, F(1)).allocate(
            abc_profile
        ) == RSD.allocate(abc_profile)
        assert blend_rule(RSD, UTILITARIAN, F(0)).allocate(
            abc_profile
        ) == UTILITARIAN.allocate(abc_profile)

    def test_half_blend_is_entrywise_average(self, abc_profile):
        half = blend_rule(RSD, UTILITARIAN, F(1, 2)).allocate(abc_profile)
        left = RSD.allocate(abc_profile)
        right = UTILITARIAN.allocate(abc_profile)
        for i in range(3):
            for a in range(3):
                assert half.rows[i][a] == (left.rows[i][a] + right.rows[i][a]) / 2

    def test_alpha_out_of_range(self):
        with pytest.raises(AlphaOutOfRange):
            blend_rule(RSD, PS, F(3, 2))

    def test_rule_by_name(self, abc_profile):
        rule = rule_by_name("blend:rsd:utilitarian:1/2")
        assert rule.allocate(abc_profile) == blend_rule(
            RSD, UTILITARIAN, F(1, 2)
        ).allocate(abc_profile)
        with pytest.raises(ValueError):
            rule_by_name("nope")


MID_PROFILES = [
    tuple(utility_from(order, F(1, 2)) for order in orders)
    for orders in itertools.product(all_orders(3), repeat=3)
]


class TestBlendCellOutputs:
    """A blend mixes its parts' cell outputs, a cardinal part's included:
    each entry must be the object `allocate` gives at the cell's mid
    profile, and a part's error must pass on unchanged."""

    WEIGHTS = [F(0), F(1, 10), F(1, 3), F(2, 5), F(1, 2), F(3, 5), F(9, 10), F(1)]

    def test_entries_are_the_allocate_objects(self):
        base = [RSD, PS, DICTATORSHIP, UNIFORM, UTILITARIAN]
        blends = [
            blend_rule(first, second, alpha)
            for first, second in itertools.permutations(base, 2)
            for alpha in self.WEIGHTS
        ]
        blends.append(blend_rule(rule_by_name("blend:rsd:ps:1/3"), DICTATORSHIP, F(2, 7)))
        blends.append(blend_rule(rule_by_name("blend:utilitarian:ps:1/3"), RSD, F(2, 7)))
        for blend in blends:
            outputs = rules.cell_outputs(blend)
            assert all(
                entry is blend.allocate(profile)
                for entry, profile in zip(outputs, MID_PROFILES, strict=True)
            )

    def test_a_blend_with_a_cardinal_part_allocates_no_cell(self):
        calls = []

        class Counted(Rule):
            def allocate(self, profile):
                calls.append(profile)
                return super().allocate(profile)

        for spec in ("blend:utilitarian:rsd:1/2", "blend:ps:utilitarian:0"):
            blend = rule_by_name(spec)
            assert not blend.reads_only_rankings
            counted = Counted(blend.name, blend.key, blend.compute)
            assert rules.cell_outputs(counted) == rules.cell_outputs(blend)
        assert calls == []

    @staticmethod
    def _raising(name: str, cell: int | None) -> Rule:
        """rsd, but its compute raises at the ranking profile of `cell`, if
        any."""
        bad = None if cell is None else tuple(
            order.ranking for order in map(ordinal_of, MID_PROFILES[cell])
        )

        def compute(rankings):
            if rankings == bad:
                raise ZeroDivisionError(f"{name} fails at cell {cell}")
            return RSD.compute(rankings)

        return Rule(name, RSD.key, compute)

    @pytest.mark.parametrize(
        "first_cell, second_cell", [(100, 50), (50, 100), (70, 70), (None, 50)]
    )
    def test_a_raising_part_passes_its_error_on(self, first_cell, second_cell):
        # The blend's tables read its parts' tables, the first part's
        # before the second's: its cell outputs raise the first part's
        # error if it raises anywhere, and its path reader the first part's
        # error at a point where both raise.
        first, second = self._raising("first", first_cell), self._raising("second", second_cell)
        blend = blend_rule(first, second, F(1, 3))
        reader = rules.path_reader(blend, ("mid profiles",), MID_PROFILES.__getitem__)
        raised = (
            f"second fails at cell {second_cell}" if first_cell is None
            else f"first fails at cell {first_cell}"
        )
        for _ in range(2):  # nothing is kept, so a second call raises again
            with pytest.raises(ZeroDivisionError, match=raised):
                rules.cell_outputs(blend)
            for cell in {first_cell, second_cell} - {None}:
                name = "first" if cell == first_cell else "second"
                with pytest.raises(ZeroDivisionError, match=f"{name} fails at cell {cell}"):
                    reader(cell)
        assert reader(0) is blend.allocate(MID_PROFILES[0])


@settings(max_examples=40, deadline=None)
@given(
    names=st.lists(st.sampled_from(sorted(BASE_RULES)), min_size=2, max_size=2),
    weight=st.integers(min_value=1, max_value=60).flatmap(
        lambda q: st.tuples(st.integers(min_value=0, max_value=q), st.just(q))
    ),
)
def test_blend_spec_keeps_its_weight(names, weight):
    first, second = names
    p, q = weight
    alpha = F(p, q)
    rule = rule_by_name(f"blend:{first}:{second}:{p}/{q}")
    assert rule.name == f"blend:{first}:{second}:{alpha}"
    profile = make_profile(SAME_TOPS)
    assert rule.allocate(profile) == mix_allocations(
        BASE_RULES[first].allocate(profile), BASE_RULES[second].allocate(profile), alpha
    )


def _affine_twin(profile, scale, shift):
    return tuple(make_utility([scale * v + shift for v in u.values]) for u in profile)


class TestStructuralMemo:
    def test_ordinal_rules_share_one_allocation_per_ranking_profile(self, abc_profile):
        twin = _affine_twin(abc_profile, F(7), F(3))
        other_rates = tuple(
            utility_from(ordinal_of(u), F(1, 4)) for u in abc_profile
        )
        for rule in (RSD, PS, DICTATORSHIP):
            first = rule.allocate(abc_profile)
            assert rule.allocate(twin) is first
            assert rule.allocate(other_rates) is first

    def test_utilitarian_shares_one_allocation_per_canonical_profile(self, abc_profile):
        twin = _affine_twin(abc_profile, F(2, 3), F(-5))
        assert UTILITARIAN.allocate(twin) is UTILITARIAN.allocate(abc_profile)

    def test_blend_mixes_its_parts_and_keys_on_their_keys(self, abc_profile):
        blend = rule_by_name("blend:rsd:ps:1/3")
        alloc = blend.allocate(abc_profile)
        assert alloc == mix_allocations(
            RSD.allocate(abc_profile), PS.allocate(abc_profile), F(1, 3)
        )
        assert blend.allocate(_affine_twin(abc_profile, F(5), F(1))) is alloc

    def test_utilitarian_shares_one_allocation_per_permutation(self):
        # different canonical profiles, the same optimal picks (0, 1, 2)
        first = make_profile(DISJOINT_TOPS)
        second = make_profile([[5, 2, 1], [2, 3, 1], [2, 1, 3]])
        assert UTILITARIAN.key(first) != UTILITARIAN.key(second)
        assert UTILITARIAN.allocate(second) is UTILITARIAN.allocate(first)

    def test_dictatorship_memo_is_bounded_by_ranking_profiles(self):
        assert _distinct_outputs_on_scan_grid(DICTATORSHIP) <= 216

    @pytest.mark.parametrize(
        "spec, bound",
        [
            ("utilitarian", 6),  # one per permutation
            ("blend:rsd:utilitarian:1/2", 216 * 6),  # one per pair of outputs
        ],
    )
    def test_cardinal_outputs_are_interned(self, spec, bound):
        assert _distinct_outputs_on_scan_grid(rule_by_name(spec)) <= bound

    def test_utilitarian_keeps_nothing_per_canonical_profile(self):
        # `check --profiles` can feed utilitarian any number of canonical
        # profiles. No memo keeps them, and its outputs are permutation
        # matrices, so they add at most one canonical allocation each.
        assert not hasattr(UTILITARIAN.compute, "cache_info")
        abc, bac, cba = (OrdinalPreference(r) for r in ((0, 1, 2), (1, 0, 2), (2, 1, 0)))
        before = len(rules._ALLOCATIONS)
        for k in range(1, 20_002):
            profile = (
                utility_from(abc, F(k, 20_002)),
                utility_from(bac, F(1, 3)),
                utility_from(cba, F(1, 2)),
            )
            UTILITARIAN.allocate(profile)
        assert len(rules._ALLOCATIONS) - before <= 6

    def test_unmemoized_computes_return_one_object(self, abc_profile):
        # Dictatorship's output is cached by `_permutation_allocation`, and
        # uniform's by interning, so a repeated compute returns the same one.
        for rule in (DICTATORSHIP, UNIFORM):
            assert rule.compute(rule.key(abc_profile)) is rule.compute(rule.key(abc_profile))

    def test_a_blend_keeps_no_memory_per_profile(self):
        # A blend's memos are its entries in the mix tables, at most one per
        # pair of its parts' outputs or rows, however many profiles are
        # scanned; a memo per profile would keep 13,824 entries here,
        # several megabytes. The scan also keeps the blend's grid table, one
        # reference per grid profile (about 108 KB here), and reads its
        # parts' tables, which the two scans before it left kept. The mix
        # tables, which every blend shares, start empty, so that what they
        # grow by here is this blend's.
        forget()
        config = CheckConfig(mu_grid=SCAN_GRID)
        assert check_non_bossiness(UTILITARIAN, config).passed
        assert check_strategy_proofness(RSD, config).passed
        fresh = blend_rule(RSD, UTILITARIAN, F(1, 2))  # a new rule: no mix of it is kept
        tracemalloc.start()
        try:
            assert check_non_bossiness(fresh, config).passed
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 1.5 * 2**20


class TestCanonicalOutputs:
    """Equal outputs are one object, whichever rule or call built them."""

    def test_a_blend_at_an_end_weight_returns_its_part(self, abc_profile):
        for profile in (abc_profile, make_profile(SAME_TOPS)):
            assert rule_by_name("blend:rsd:ps:1").allocate(profile) is RSD.allocate(profile)
            assert rule_by_name("blend:rsd:ps:0").allocate(profile) is PS.allocate(profile)

    def test_a_custom_rule_keeps_nothing_per_call(self, abc_profile):
        half = F(1, 2)
        fresh = Rule("fresh", len, lambda n: make_allocation(
            [[half, half, 0], [half, 0, half], [0, half, half]]
        ))
        first = fresh.allocate(abc_profile)

        def batch():
            for _ in range(10_000):
                assert fresh.allocate(abc_profile) is first

        # What a second batch adds after an equal warm-up batch is what the
        # calls keep, however full the interpreter's free lists were before.
        # Both snapshots are taken before either is filtered: filtering
        # compiles the filter's pattern, and inside the window those `re`
        # allocations would count as growth. A full collection before each
        # snapshot leaves only live objects in it, so where the collector's
        # counters stood, and what earlier tests left to collect, do not
        # count either.
        tracemalloc.start()
        try:
            batch()
            gc.collect()
            before = tracemalloc.take_snapshot()
            batch()
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        own = [tracemalloc.Filter(False, tracemalloc.__file__)]
        before, after = before.filter_traces(own), after.filter_traces(own)
        growth = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
        assert growth < 4 * 2**10


SCAN_GRID = (F(1, 10), F(2, 5), F(3, 5), F(9, 10))


def _distinct_outputs_on_scan_grid(rule):
    """Number of distinct output objects over the 4-rate grid's profiles."""
    cells = [utility_from(order, mu) for order in all_orders(3) for mu in SCAN_GRID]
    return len({id(rule.allocate(profile)) for profile in itertools.product(cells, repeat=3)})


def test_rule_outputs_are_valid_allocations():
    rng = random.Random(8)
    orders = all_orders(3)
    rules = [RSD.allocate, PS.allocate, UTILITARIAN.allocate, DICTATORSHIP.allocate]
    for _ in range(25):
        profile = tuple(
            random_utility_consistent(rng.choice(orders), rng) for _ in range(3)
        )
        for allocate in rules:
            alloc = allocate(profile)  # Allocation validates on construction
            assert alloc.n == 3


def test_rules_generalize_to_four_agents():
    rng = random.Random(21)
    orders = all_orders(4)
    profile = tuple(random_utility_consistent(rng.choice(orders), rng) for _ in range(4))
    assert RSD.allocate(profile).n == 4
    assert PS.allocate(profile).n == 4
    assert UTILITARIAN.allocate(profile).n == 4


def test_a_blend_validates_each_profile_once(abc_profile, monkeypatch):
    calls = []

    def counted(profile):
        calls.append(profile)
        validate_profile(profile)

    monkeypatch.setattr("alloclab.rules.validate_profile", counted)
    blend_rule(RSD, UTILITARIAN, F(1, 2)).allocate(abc_profile)
    assert calls == [abc_profile]


@pytest.mark.parametrize("spec", [*BASE_RULES, "blend:rsd:utilitarian:1/2"])
@pytest.mark.parametrize("rows", [[[3, 2, 1], [3, 2, 1]], [[3, 2], [2, 3], [1, 3]]])
def test_non_square_profile_is_rejected_by_every_rule(spec, rows):
    profile = tuple(make_utility(row) for row in rows)
    with pytest.raises(DimensionMismatch, match="not square"):
        rule_by_name(spec).allocate(profile)


@pytest.mark.parametrize(
    "spec",
    [
        *BASE_RULES,
        "blend:rsd:ps:1/3",
        "blend:uniform:ps:3/4",
        "blend:rsd:utilitarian:1/2",
    ],
)
def test_every_grid_output_passes_validation(spec):
    """Rule outputs are built without validation; every distinct output on
    every reduced grid must pass the validating constructor."""
    rule = rule_by_name(spec)
    outputs = {}
    for grid in REDUCED_GRIDS:
        cells = grid_cells(CheckConfig(mu_grid=grid))
        for profile in itertools.product(cells, repeat=3):
            alloc = rule.allocate(profile)
            outputs[id(alloc)] = alloc
    for alloc in outputs.values():
        assert Allocation(alloc.rows) == alloc


MIXED_BLENDS = [
    (RSD, PS, F(1, 3)),
    (PS, RSD, F(3, 5)),
    (RSD, UTILITARIAN, F(1, 2)),
    (UTILITARIAN, PS, F(2, 5)),
    (PS, DICTATORSHIP, F(1, 2)),
    (UNIFORM, RSD, F(3, 4)),
]


@pytest.mark.parametrize("grid", REDUCED_GRIDS, ids=lambda grid: ",".join(map(str, grid)))
def test_row_mixes_return_the_canonical_mix(grid):
    """A blend mixes row by row and interns the result on its row ids: every
    output, from `allocate` and from its block allocator, is the canonical
    form of the whole-matrix mix of its parts' outputs."""
    cells = grid_cells(CheckConfig(mu_grid=grid))
    for first, second, alpha in MIXED_BLENDS:
        blend = blend_rule(first, second, alpha)  # a new rule: no mix of it is kept
        block = blend.blocks(cells)
        # agent 0's blocks hold every profile once
        for i, j in itertools.product(range(len(cells)), repeat=2):
            for cell, entry in zip(cells, block(0, i, j), strict=True):
                profile = (cell, cells[i], cells[j])
                output = blend.allocate(profile)
                mixed = mix_allocations(first.allocate(profile), second.allocate(profile), alpha)
                assert output is entry is rules._canonical(mixed)
        assert any(key[0] is blend.compute for key in rules._MIXED_ROWS)  # rows were mixed


BLOCK_RULES = [
    "rsd",
    "ps",
    "dictatorship",
    "uniform",
    "utilitarian",
    "blend:rsd:utilitarian:1/2",
    "blend:ps:utilitarian:1/2",
]


@pytest.mark.parametrize(
    "grid", [*REDUCED_GRIDS, DEFAULT_MU_GRID], ids=[*map(str, range(4)), "default"]
)
def test_block_entries_are_the_allocate_objects(grid):
    """Every entry of every deviation block, from each built-in rule's own
    block allocator, is the object `allocate` returns for its profile."""
    cells = grid_cells(CheckConfig(mu_grid=grid))
    tested = [rule_by_name(spec) for spec in BLOCK_RULES]
    # Rules interleaved per profile, so the blends find utilitarian's output
    # in its bounded memo.
    expected = {
        profile: [rule.allocate(profile) for rule in tested]
        for profile in itertools.product(cells, repeat=3)
    }
    blocks = [rule.blocks(cells) for rule in tested]
    for agent in range(3):
        for i, j in itertools.product(range(len(cells)), repeat=2):
            wanted = [expected[profile_with((cells[i], cells[j]), agent, cell)] for cell in cells]
            for k, block in enumerate(blocks):
                got = block(agent, i, j)
                assert all(entry is want[k] for entry, want in zip(got, wanted, strict=True))
    if grid == DEFAULT_MU_GRID:
        # The tie-break is exercised: on some profiles of three distinct
        # reports, two permutations share the optimal total.
        _, scaled = over_common_denominator([cell.values for cell in cells])
        perms = list(itertools.permutations(range(3)))
        ties = 0
        for a, b, c in itertools.combinations(scaled, 3):
            totals = [a[p[0]] + b[p[1]] + c[p[2]] for p in perms]
            ties += totals.count(max(totals)) > 1
        assert ties > 0


def _by_top(agent, den, top):
    """A compute that gives `agent` top/den of its top object, the others
    top/den of the two objects left in agent order, and everyone the rest
    evenly: a fresh matrix per call, read off one ranking."""
    other = (den - top) // 2

    def compute(rankings):
        picks = [obj for obj in range(3) if obj != rankings[agent][0]]
        picks.insert(agent, rankings[agent][0])
        rows = [[top if obj == pick else other for obj in range(3)] for pick in picks]
        return Allocation._over(den, rows)

    return compute


# Neither shares an output or a row with the other, so no mix of the two is
# one of them, and every output of either is freed by `forget`.
FIRST_TOP = Rule("first-top-test", RSD.key, _by_top(0, 9, 7))
SECOND_TOP = Rule("second-top-test", RSD.key, _by_top(1, 6, 4))


class TestForget:
    """`forget` frees every memo of the process at once: what the process
    keeps is bounded by the work since the last call, and no output built
    after it reads a mix keyed on the id of an object it freed."""

    def test_sessions_keep_what_their_work_keeps(self):
        # 200 blends, 20 per session, each checked for non-bossiness on
        # grid 1/2. Twenty of them keep about 1 MB in one session and all
        # 200 about 7.6 MB; after the last `forget` the ten sessions keep
        # next to nothing (a few KB).
        config = CheckConfig(mu_grid=(F(1, 2),))
        pairs = list(itertools.permutations([RSD, PS, DICTATORSHIP, UTILITARIAN], 2))
        forget()
        tracemalloc.start()
        try:
            for session in range(10):
                forget()
                for k in range(20 * session + 1, 20 * session + 21):
                    check_non_bossiness(blend_rule(*pairs[k % len(pairs)], F(k, 211)), config)
            forget()
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 0.71 * 2**20

    def test_no_output_reads_a_mix_of_freed_objects(self, monkeypatch):
        # Every blend output, from `allocate`, from its blocks, its cell
        # outputs and its continuity path tables, is the mix of its parts'
        # outputs, and within a session the object `allocate` gives. Each
        # session's parts are fresh objects that take the memory the last
        # session's freed, in another order, so a mix kept across `forget`
        # would be read for parts it was not made of.
        cells = grid_cells(CheckConfig(mu_grid=(F(1, 3),)))
        opaque = Rule("opaque-second-top", lambda profile: RSD.key(profile), SECOND_TOP.compute)
        ranking = [
            blend_rule(FIRST_TOP, SECOND_TOP, F(1, 3)),
            blend_rule(SECOND_TOP, FIRST_TOP, F(1, 2)),
        ]
        cardinal = [
            blend_rule(UTILITARIAN, FIRST_TOP, F(2, 5)),
            blend_rule(opaque, FIRST_TOP, F(3, 7)),
        ]

        def allocated(rule, profile):
            output = rule.allocate(profile)
            mix = mix_of(rule)
            if mix is not None:
                parts = mix.first.allocate(profile), mix.second.allocate(profile)
                assert output == mix_allocations(*parts, mix.alpha)
            return output

        real = rules.path_reader

        def checked(rule, path, profile_at):
            read = real(rule, path, profile_at)

            def verified(k):
                alloc = read(k)
                assert alloc is allocated(rule, profile_at(k))
                return alloc

            return verified

        for module in (rules, checkers):  # a blend's parts, and the check's own read
            monkeypatch.setattr(module, "path_reader", checked)
        config = CheckConfig(continuity_interval_delta=F(1, 64))
        for blends in [ranking] * 8 + [cardinal] * 2:
            forget()
            for blend in blends:
                for profile in itertools.product(cells, repeat=3):
                    allocated(blend, profile)
                block = blend.blocks(cells)
                # agent 0's blocks hold every profile once
                for i, j in itertools.product(range(len(cells)), repeat=2):
                    for cell, entry in zip(cells, block(0, i, j), strict=True):
                        assert entry is blend.allocate((cell, cells[i], cells[j]))
                for entry, profile in zip(rules.cell_outputs(blend), MID_PROFILES, strict=True):
                    assert entry is allocated(blend, profile)
                check_continuity_battery(blend, config)
