"""Axiom checkers on small grids; the full default grid runs in acceptance."""

import random
from fractions import Fraction

import pytest

from alloclab import (
    CheckConfig,
    DICTATORSHIP,
    EndpointsInDifferentCones,
    NotOrdinal,
    PS,
    RSD,
    Rule,
    UNIFORM,
    UTILITARIAN,
    blend_rule,
    check_efficiency,
    check_ncc_continuity,
    check_non_bossiness,
    check_ordinality,
    check_sd_strategy_proofness,
    check_strategy_proofness,
    expected_utility,
    make_allocation,
    make_profile,
    make_utility,
    rule_by_name,
    utility_from,
)
from alloclab.checkers import (
    _deviation_blocks,
    check_continuity_battery,
    default_continuity_paths,
    default_efficiency_profiles,
    grid_cells,
)
from alloclab.ordinal import OrdinalPreference, all_orders, ordinal_of

F = Fraction
SMALL = CheckConfig(mu_grid=(F(1, 10), F(1, 2), F(9, 10)), samples_per_cell=1, seed=5)
ABC = OrdinalPreference((0, 1, 2))


def _bossy_allocate(profile):
    """Agent 0's middle rate toggles how agents 1 and 2 split, while agent 0
    always keeps their top object."""
    from alloclab.ordinal import middle_rate

    top = ordinal_of(profile[0]).best
    rest = sorted(set(range(3)) - {top})
    rows = [[F(0)] * 3 for _ in range(3)]
    rows[0][top] = F(1)
    if middle_rate(profile[0]) < F(1, 2):
        rows[1][rest[0]], rows[2][rest[1]] = F(1), F(1)
    else:
        rows[1][rest[1]], rows[2][rest[0]] = F(1), F(1)
    return make_allocation(rows)


BOSSY = Rule("bossy-test", lambda profile: profile, _bossy_allocate)


def _rankings_bossy_allocate(rankings):
    """Agent 2 always gets their top object. When agent 1 ranks c first, the
    order in which agent 2 ranks the other two objects decides how agents 0
    and 1 split them."""
    top, second, third = rankings[2]
    low, high = sorted((second, third))
    if rankings[1][0] == 2 and second > third:
        low, high = high, low
    rows = [[F(0)] * 3 for _ in range(3)]
    rows[2][top] = rows[0][low] = rows[1][high] = F(1)
    return make_allocation(rows)


RANKINGS_BOSSY = Rule("rankings-bossy-test", RSD.key, _rankings_bossy_allocate)


class TestEfficiency:
    def test_utilitarian_passes(self):
        profiles = default_efficiency_profiles(SMALL)[:40]
        assert check_efficiency(UTILITARIAN, profiles).passed

    def test_rsd_fails_with_reverifying_witness(self, abc_profile):
        verdict = check_efficiency(RSD, [abc_profile])
        assert not verdict.passed
        better = make_allocation(verdict.witness["dominating"])
        held = make_allocation(verdict.witness["allocation"])
        profile = make_profile(verdict.witness["profile"])
        gains = [
            expected_utility(u, better.row(i)) - expected_utility(u, held.row(i))
            for i, u in enumerate(profile)
        ]
        assert all(g >= 0 for g in gains) and any(g > 0 for g in gains)

    def test_disjoint_tops_efficient_for_any_rule(self):
        profile = make_profile([[3, 2, 1], [2, 3, 1], [2, 1, 3]])
        assert check_efficiency(RSD, [profile]).passed
        assert check_efficiency(PS, [profile]).passed


class TestStrategyProofness:
    def test_rsd_passes(self):
        assert check_strategy_proofness(RSD, SMALL).passed

    def test_uniform_passes(self):
        assert check_strategy_proofness(UNIFORM, SMALL).passed

    def test_utilitarian_fails_with_exact_witness(self):
        verdict = check_strategy_proofness(UTILITARIAN, SMALL)
        assert not verdict.passed
        witness = verdict.witness
        profile = make_profile(witness["profile"])
        agent = witness["agent"]
        truthful = make_allocation(witness["truthful_allocation"])
        deviated = make_allocation(witness["deviated_allocation"])
        gap = expected_utility(profile[agent], deviated.row(agent)) - expected_utility(
            profile[agent], truthful.row(agent)
        )
        assert gap > 0
        assert str(gap) == witness["gap"]
        # the named allocations are genuine rule outputs
        assert UTILITARIAN.allocate(profile) == truthful
        deviation = make_utility(witness["deviation"])
        deviated_profile = profile[:agent] + (deviation,) + profile[agent + 1 :]
        assert UTILITARIAN.allocate(deviated_profile) == deviated

    def test_within_cone_deviations_never_bite_ordinal_rules(self):
        # Consistency meta-check: for a rule passing ordinality, same-order
        # deviations cannot change the outcome at all.
        cells = grid_cells(SMALL)
        for agent in range(3):
            others = (cells[0], cells[7])
            for truth in cells[:6]:
                for deviation in cells[:6]:
                    if ordinal_of(truth) != ordinal_of(deviation):
                        continue
                    base = RSD.allocate(
                        others[:agent] + (truth,) + others[agent:]
                    )
                    moved = RSD.allocate(
                        others[:agent] + (deviation,) + others[agent:]
                    )
                    assert base == moved


class TestNonBossiness:
    def test_uniform_passes(self):
        assert check_non_bossiness(UNIFORM, SMALL).passed

    def test_rsd_passes(self):
        assert check_non_bossiness(RSD, SMALL).passed

    def test_bossy_rule_fails_with_toggling_pair(self):
        verdict = check_non_bossiness(BOSSY, SMALL)
        assert not verdict.passed
        witness = verdict.witness
        profile = make_profile(witness["profile"])
        deviation = make_utility(witness["deviation"])
        agent = witness["agent"]
        base = BOSSY.allocate(profile)
        moved = BOSSY.allocate(profile[:agent] + (deviation,) + profile[agent + 1 :])
        assert base.rows[agent] == moved.rows[agent]
        assert base != moved


RANKING_RULES = [
    RSD,
    PS,
    DICTATORSHIP,
    UNIFORM,
    rule_by_name("blend:rsd:ps:1/3"),
    rule_by_name("blend:ps:dictatorship:1/2"),
    rule_by_name("blend:rsd:dictatorship:1/3"),
    rule_by_name("blend:uniform:ps:3/4"),
    RANKINGS_BOSSY,
]
REDUCED_GRIDS = [
    (F(1, 2),),
    (F(1, 4), F(3, 4)),
    (F(1, 3), F(1, 2), F(2, 3)),
    (F(1, 10), F(9, 10)),  # ps and its blends fail strategy-proofness here
]


class TestRankingQuotient:
    """Rules that read only rankings are scanned one deviation block per
    (agent, others' orders) class; the reports must be the full sweep's."""

    @pytest.mark.parametrize("rule", RANKING_RULES, ids=lambda rule: rule.name)
    def test_reports_match_the_full_sweep(self, rule):
        twin = Rule(rule.name, lambda profile: rule.key(profile), rule.compute)
        assert rule.reads_only_rankings and not twin.reads_only_rankings
        for grid in REDUCED_GRIDS:
            config = CheckConfig(mu_grid=grid)
            for check in (check_strategy_proofness, check_non_bossiness):
                assert check(rule, config).to_dict() == check(twin, config).to_dict()

    def test_both_fail_paths_are_compared(self):
        config = CheckConfig(mu_grid=REDUCED_GRIDS[3])
        sp = check_strategy_proofness(rule_by_name("blend:ps:dictatorship:1/2"), config)
        assert sp.coverage.endswith("scanned_blocks=147 of 432")
        bossy = check_non_bossiness(RANKINGS_BOSSY, config)
        # agent 2, agent 0 at the first cell, agent 1 at the first c-first cell
        assert bossy.coverage.endswith(f"scanned_blocks={2 * 144 + 4 * 2 + 1} of 432")
        assert bossy.witness["agent"] == 2

    def test_rsd_scans_one_block_per_class_on_the_default_grid(self):
        calls = []

        class Counted(Rule):
            def allocate(self, profile):
                calls.append(1)
                return super().allocate(profile)

        counted = Counted("rsd-counted", RSD.key, RSD.compute)
        assert check_strategy_proofness(counted, CheckConfig()).passed
        assert len(calls) <= 3 * 36 * 42

    def test_cardinal_keys_sweep_every_block(self):
        config = CheckConfig(mu_grid=REDUCED_GRIDS[1])
        cells = grid_cells(config)
        cardinal = [UTILITARIAN, rule_by_name("blend:rsd:utilitarian:1/2"), BOSSY]
        for rule in cardinal:
            assert not rule.reads_only_rankings
            assert len(list(_deviation_blocks(rule, cells, 2))) == 3 * 12**2
        for rule in RANKING_RULES:
            assert len(list(_deviation_blocks(rule, cells, 2))) == 3 * 6**2


class TestInternedOutputs:
    """Interning rule outputs only lets the checkers' identity dedup hit:
    every report must be the one for a twin that builds a fresh equal
    allocation, with fresh rows, for every key."""

    @pytest.mark.parametrize(
        "spec",
        ["utilitarian", "blend:rsd:utilitarian:1/2", "blend:ps:utilitarian:1/3"],
    )
    def test_reports_match_a_fresh_allocation_twin(self, spec):
        rule = rule_by_name(spec)
        twin = Rule(
            rule.name, rule.key, lambda key: make_allocation(rule.from_key(key).rows)
        )
        for grid in REDUCED_GRIDS[1:3]:
            config = CheckConfig(mu_grid=grid)
            for check in (check_strategy_proofness, check_non_bossiness, check_ordinality):
                assert check(rule, config).to_dict() == check(twin, config).to_dict()


class TestOrdinality:
    def test_rsd_passes(self):
        assert check_ordinality(RSD, SMALL).passed

    def test_blend_of_ordinal_rules_passes(self):
        assert check_ordinality(blend_rule(RSD, PS, F(1, 2)), SMALL).passed

    def test_utilitarian_fails_within_cell(self):
        verdict = check_ordinality(UTILITARIAN, SMALL)
        assert not verdict.passed
        witness = verdict.witness
        a = make_profile(witness["profile_a"])
        b = make_profile(witness["profile_b"])
        assert [ordinal_of(u) for u in a] == [ordinal_of(u) for u in b]
        assert UTILITARIAN.allocate(a) != UTILITARIAN.allocate(b)

    def test_lemma1_consequence_for_compliant_rules(self):
        # Effectively-same replacements leave rsd's output bit-identical.
        rng = random.Random(2)
        orders = all_orders(3)
        for _ in range(40):
            profile = tuple(
                utility_from(rng.choice(orders), F(rng.randrange(1, 32), 32))
                for _ in range(3)
            )
            agent = rng.randrange(3)
            scale = F(rng.randrange(1, 9), rng.randrange(1, 9))
            shift = F(rng.randrange(-6, 7), rng.randrange(1, 6))
            twin = make_utility([scale * v + shift for v in profile[agent].values])
            replaced = profile[:agent] + (twin,) + profile[agent + 1 :]
            assert RSD.allocate(profile) == RSD.allocate(replaced)


class TestSdStrategyProofness:
    def test_rsd_passes_full_enumeration(self):
        assert check_sd_strategy_proofness(RSD, SMALL).passed

    def test_ps_verdict_is_stable(self):
        first = check_sd_strategy_proofness(PS, SMALL)
        second = check_sd_strategy_proofness(PS, SMALL)
        assert first.to_dict() == second.to_dict()

    def test_utilitarian_raises_not_ordinal(self):
        with pytest.raises(NotOrdinal):
            check_sd_strategy_proofness(UTILITARIAN, SMALL)


class TestContinuity:
    def test_ordinal_rule_constant_on_cone_paths(self):
        for agent, others, endpoints in default_continuity_paths():
            assert check_ncc_continuity(RSD, agent, others, endpoints, SMALL).passed

    def test_utilitarian_jump_localized(self):
        agent, others, endpoints = default_continuity_paths()[0]
        verdict = check_ncc_continuity(UTILITARIAN, agent, others, endpoints, SMALL)
        assert not verdict.passed
        lo, hi = (F(x) for x in verdict.witness["interval"])
        assert hi - lo < SMALL.continuity_interval_delta
        assert F(verdict.witness["gap"]) >= SMALL.continuity_gap_tau

    def test_different_cones_rejected(self):
        config = SMALL
        with pytest.raises(EndpointsInDifferentCones):
            check_ncc_continuity(
                RSD,
                0,
                (utility_from(ABC, F(1, 2)), utility_from(ABC, F(1, 2))),
                (utility_from(ABC, F(1, 2)), utility_from(OrdinalPreference((1, 0, 2)), F(1, 2))),
                config,
            )

    def test_battery_verdicts(self):
        assert check_continuity_battery(UNIFORM, SMALL).passed
        assert not check_continuity_battery(UTILITARIAN, SMALL).passed


class TestConfig:
    def test_grid_values_validated(self):
        with pytest.raises(ValueError):
            CheckConfig(mu_grid=(F(0), F(1, 2)))
        with pytest.raises(ValueError):
            CheckConfig(continuity_gap_tau=F(0))

    def test_constant_rule_passes_everything_but_efficiency(self):
        profiles = default_efficiency_profiles(SMALL)[:10]
        assert not check_efficiency(UNIFORM, profiles).passed
        assert check_strategy_proofness(UNIFORM, SMALL).passed
        assert check_non_bossiness(UNIFORM, SMALL).passed
        assert check_ordinality(UNIFORM, SMALL).passed
        assert check_continuity_battery(UNIFORM, SMALL).passed
