"""Axiom checkers on small grids; the full default grid runs in acceptance."""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from functools import lru_cache

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
    SdVerdict,
    allocation_distance,
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
    sd_compare,
    utility_from,
)
from alloclab import checkers
from alloclab import rules as rules_module
from alloclab.bvn import random_bistochastic
from alloclab.checkers import (
    MAX_PATH_PROBES,
    PROBE_CAP_NOTE,
    Verdict,
    _manipulation,
    check_continuity_battery,
    default_continuity_paths,
    default_efficiency_profiles,
    grid_cells,
    report_json,
)
from alloclab.core import profile_with
from alloclab.harness import theorem_stress
from alloclab.ordinal import OrdinalPreference, all_orders, ordinal_of, random_canonical
from alloclab.rules import GridTable, built_in_family, cell_outputs, forget, mix_of

from conftest import REDUCED_GRIDS, fraction_ncc_continuity, printed_witness, read_back

F = Fraction
SMALL = CheckConfig(mu_grid=(F(1, 10), F(1, 2), F(9, 10)), samples_per_cell=1, seed=5)
ABC = OrdinalPreference((0, 1, 2))
# The mid profile of each ordinal cell, every agent at rate 1/2, in canonical
# cell order: the profiles `cell_outputs` allocates.
MID_PROFILES = [
    tuple(utility_from(order, F(1, 2)) for order in orders)
    for orders in itertools.product(all_orders(3), repeat=3)
]


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


BOSSY = Rule("bossy-test", lambda profile: profile, lru_cache(maxsize=None)(_bossy_allocate))


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


RANKINGS_BOSSY = Rule(
    "rankings-bossy-test", RSD.key, lru_cache(maxsize=None)(_rankings_bossy_allocate)
)


def _counted(rule):
    """A twin of `rule` with the same key and compute, the list that gets
    one entry per `allocate` call, and the list that gets one (agent, i, j)
    entry per block its block allocators compute: for an allocator that
    keeps a table, each call of the allocator that fills it, not each read."""
    calls, blocks = [], []

    def counting(block):
        def counted(agent, i, j):
            blocks.append((agent, i, j))
            return block(agent, i, j)

        return counted

    class Counted(Rule):
        def allocate(self, profile):
            calls.append(profile)
            return super().allocate(profile)

        def blocks(self, cells):
            block = super().blocks(cells)
            table = getattr(block, "__self__", None)
            if table is None:
                return counting(block)
            table.allocator = counting(table.allocator)
            return block

    return Counted(f"{rule.name}-counted", rule.key, rule.compute), calls, blocks


def _sliding_allocate(profile):
    """Continuous in agent 0's middle rate mu: agents 0 and 1 swap objects a
    and b with probability mu, so the allocation moves along every path
    that moves agent 0."""
    from alloclab.ordinal import middle_rate

    mu = middle_rate(profile[0])
    return make_allocation([[1 - mu, mu, 0], [mu, 1 - mu, 0], [0, 0, 1]])


SLIDING = Rule("sliding-test", lambda profile: profile, lru_cache(maxsize=None)(_sliding_allocate))


def _den_parity_allocate(forms):
    """Reads the agents' integer forms, not only their values: one of two
    permutation matrices by the parity of the bit lengths of their
    denominators plus the number whose middle value is above half their top
    one. So it jumps on every default continuity path, and tells a utility
    built in lowest terms from one that is not."""
    if sum(den.bit_length() + (2 * sorted(nums)[1] > max(nums)) for den, nums in forms) % 2:
        return make_allocation([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    return make_allocation([[0, 1, 0], [1, 0, 0], [0, 0, 1]])


DEN_PARITY = Rule(
    "den-parity-test", lambda profile: tuple((u.den, u.nums) for u in profile), _den_parity_allocate
)


def _spy_judge(monkeypatch, name: str) -> list:
    """Make the checkers' block judge `name` (`_manipulation` or
    `_bossiness`) also list the agent of every block it judges."""
    judged, judge = [], getattr(checkers, name)

    def spy(agent, *rest):
        judged.append(agent)
        return judge(agent, *rest)

    monkeypatch.setattr(checkers, name, spy)
    return judged


def _fail_witness(verdict) -> dict:
    """A Fail's witness, which holds the counterexample's own values; the
    printed report must parse back to equal values."""
    assert not verdict.passed
    assert read_back(printed_witness(verdict), verdict.witness) == verdict.witness
    return verdict.witness


class TestEfficiency:
    def test_utilitarian_passes(self):
        profiles = default_efficiency_profiles(SMALL)[:40]
        assert check_efficiency(UTILITARIAN, profiles).passed

    def test_rsd_fails_with_reverifying_witness(self, abc_profile):
        witness = _fail_witness(check_efficiency(RSD, [abc_profile]))
        better, profile = witness["dominating"], witness["profile"]
        held = RSD.allocate(profile)
        assert held == witness["allocation"]
        gains = [
            expected_utility(u, better.row(i)) - expected_utility(u, held.row(i))
            for i, u in enumerate(profile)
        ]
        assert all(g >= 0 for g in gains) and any(g > 0 for g in gains)
        assert gains == witness["per_agent_gains"]

    def test_disjoint_tops_efficient_for_any_rule(self):
        profile = make_profile([[3, 2, 1], [2, 3, 1], [2, 1, 3]])
        assert check_efficiency(RSD, [profile]).passed
        assert check_efficiency(PS, [profile]).passed

    def test_no_profiles_is_refused(self):
        with pytest.raises(ValueError, match="at least one profile"):
            check_efficiency(RSD, [])


def _manipulation_reference(agent, others, cells, allocations):
    """The judge's `Fraction` formula: the first truth, then the first
    deviation, whose expected utility for that truth is strictly higher."""
    for t, truth in enumerate(cells):
        held = expected_utility(truth, allocations[t].row(agent))
        for d, alloc in enumerate(allocations):
            gained = expected_utility(truth, alloc.row(agent))
            if gained > held:
                return {
                    "profile": others[:agent] + (truth,) + others[agent:],
                    "agent": agent,
                    "deviation": cells[d],
                    "truthful_allocation": allocations[t],
                    "deviated_allocation": alloc,
                    "gap": gained - held,
                }
    return None


class TestStrategyProofness:
    def test_integer_judge_matches_fraction_formula(self):
        """Seeded blocks over a menu of random bistochastic matrices, whose
        rows have unlike denominators, on grid utilities 1/(1+mu) with unlike
        denominators too. The agent either takes its expected-utility-best
        menu entry (no gain anywhere; ties are common) or a random one."""
        rng = random.Random(14)
        cells = grid_cells(CheckConfig(mu_grid=(F(1, 10), F(2, 7), F(3, 5), F(9, 10))))
        assert len({cell.den for cell in cells}) > 1  # the judge reads each cell's own form
        outcomes = set()
        for _ in range(40):
            menu = [random_bistochastic(3, rng) for _ in range(rng.randrange(2, 6))]
            agent = rng.randrange(3)
            others = (rng.choice(cells), rng.choice(cells))
            best = [
                max(menu, key=lambda alloc: expected_utility(cell, alloc.row(agent)))
                for cell in cells
            ]
            drawn = [rng.choice(menu) for _ in cells]
            for allocations in (best, drawn):
                expected = _manipulation_reference(agent, others, cells, allocations)
                witness = _manipulation(agent, others, cells, allocations)
                assert witness == expected
                assert expected is None or allocations is drawn
                outcomes.add(expected is None)
        assert outcomes == {True, False}

    def test_rsd_passes(self):
        assert check_strategy_proofness(RSD, SMALL).passed

    def test_uniform_passes(self):
        assert check_strategy_proofness(UNIFORM, SMALL).passed

    def test_utilitarian_fails_with_exact_witness(self):
        witness = _fail_witness(check_strategy_proofness(UTILITARIAN, SMALL))
        profile = witness["profile"]
        agent = witness["agent"]
        truthful = witness["truthful_allocation"]
        deviated = witness["deviated_allocation"]
        gap = expected_utility(profile[agent], deviated.row(agent)) - expected_utility(
            profile[agent], truthful.row(agent)
        )
        assert gap > 0
        assert gap == witness["gap"]
        # the named allocations are genuine rule outputs
        assert UTILITARIAN.allocate(profile) == truthful
        deviation = witness["deviation"]
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
        witness = _fail_witness(check_non_bossiness(BOSSY, SMALL))
        profile, deviation, agent = witness["profile"], witness["deviation"], witness["agent"]
        base = BOSSY.allocate(profile)
        moved = BOSSY.allocate(profile[:agent] + (deviation,) + profile[agent + 1 :])
        assert (base, moved) == (witness["allocation"], witness["deviated_allocation"])
        assert base.rows[agent] == moved.rows[agent] == witness["own_row"]
        assert base != moved

    def test_bossy_report_bytes_are_pinned(self):
        report = report_json(check_non_bossiness(BOSSY, SMALL).to_dict())
        assert hashlib.sha256(report.encode()).hexdigest() == (
            "7bc5dc87792c9433646702c77dd4094546791bc2fdc38ff82ce2acde79e01553"
        )


def test_a_value_without_a_report_form_is_refused():
    with pytest.raises(TypeError, match="object has no report form"):
        checkers.encode(object())


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
class TestRankingQuotient:
    """Rules that read only rankings are scanned one deviation block per
    (agent, others' orders) class, and their ordinality is proved by their
    key; the reports must be the full sweep's."""

    @pytest.mark.parametrize("rule", RANKING_RULES, ids=lambda rule: rule.name)
    def test_reports_match_the_full_sweep(self, rule):
        twin = Rule(rule.name, lambda profile: rule.key(profile), rule.compute)
        assert rule.reads_only_rankings and not twin.reads_only_rankings
        for grid in REDUCED_GRIDS:
            config = CheckConfig(mu_grid=grid)
            for check in (check_strategy_proofness, check_non_bossiness, check_ordinality):
                assert check(rule, config).to_dict() == check(twin, config).to_dict()
            # only ordinality reads samples_per_cell
            bare = CheckConfig(mu_grid=grid, samples_per_cell=0)
            assert check_ordinality(rule, bare).to_dict() == check_ordinality(twin, bare).to_dict()

    def test_both_fail_paths_are_compared(self):
        config = CheckConfig(mu_grid=REDUCED_GRIDS[3])
        sp = check_strategy_proofness(rule_by_name("blend:ps:dictatorship:1/2"), config)
        assert sp.coverage.endswith("scanned_blocks=147 of 432")
        bossy = check_non_bossiness(RANKINGS_BOSSY, config)
        # agent 2, agent 0 at the first cell, agent 1 at the first c-first cell
        assert bossy.coverage.endswith(f"scanned_blocks={2 * 144 + 4 * 2 + 1} of 432")
        assert bossy.witness["agent"] == 2

    def test_rsd_scans_one_block_per_class_on_the_default_grid(self):
        # The blocks are read off the rule's cell outputs: one call per
        # ordinal cell, at its mid profile, whatever the grid.
        counted, calls, blocks = _counted(RSD)
        assert check_strategy_proofness(counted, CheckConfig()).passed
        assert calls == MID_PROFILES and len(blocks) == 3 * 36

    def test_ordinality_of_a_ranking_blend_calls_no_rule(self):
        # A ranking rule's key proves its ordinality: neither the blend nor
        # its parts are called, and its cell outputs are still those of
        # the blend, each part called once per cell.
        rsd, rsd_calls, _ = _counted(RSD)
        dictatorship, dictatorship_calls, _ = _counted(DICTATORSHIP)
        counted, calls, _ = _counted(blend_rule(rsd, dictatorship, F(1, 3)))
        verdict = check_ordinality(counted, CheckConfig())
        assert verdict.to_dict() == {
            "status": "Pass",
            "coverage": "cells=216; per_cell=343+2 random; seed=0",
        }
        assert calls == rsd_calls == dictatorship_calls == []
        assert cell_outputs(counted) == cell_outputs(rule_by_name("blend:rsd:dictatorship:1/3"))
        assert calls == [] and rsd_calls == dictatorship_calls == MID_PROFILES

    def test_ordinality_passes_a_ranking_rule_whose_compute_raises(self):
        orders = list(itertools.product(all_orders(3), repeat=3))
        bad = tuple(order.ranking for order in orders[100])

        def compute(rankings):
            if rankings == bad:
                raise ZeroDivisionError("compute fails on one ranking profile")
            return RSD.compute(rankings)

        counted, calls, _ = _counted(Rule("raises-on-cell-100", RSD.key, compute))
        assert counted.reads_only_rankings
        assert check_ordinality(counted, CheckConfig()).passed and calls == []
        # its cell outputs still raise at the first cell that needs it
        with pytest.raises(ZeroDivisionError, match="one ranking profile"):
            cell_outputs(counted)
        assert len(calls) == 101

    @pytest.mark.parametrize("samples", [0, 2])
    def test_cardinal_keys_take_the_full_ordinality_loop(self, samples):
        # Pinned from the full sweep before the quotient existed: every
        # rule fails in the first cell, at a profile other than its first.
        config = CheckConfig(samples_per_cell=samples)
        verdict = check_ordinality(UTILITARIAN, config)
        assert json.loads(report_json(verdict.to_dict())) == {
            "status": "Fail",
            "coverage": f"cells=216; per_cell=343+{samples} random; seed=0; "
            "scanned_cells=1 of 216",
            "witness": {
                "cell": ["a>b>c", "a>b>c", "a>b>c"],
                "profile_a": [["10/11", "1/11", "0"]] * 3,
                "profile_b": [["10/11", "1/11", "0"]] * 2 + [["4/5", "1/5", "0"]],
                "allocation_a": [["0", "0", "1"], ["0", "1", "0"], ["1", "0", "0"]],
                "allocation_b": [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]],
            },
        }
        blend = check_ordinality(rule_by_name("blend:rsd:utilitarian:1/2"), config)
        assert blend.witness["profile_b"] == verdict.witness["profile_b"]
        bossy = check_ordinality(BOSSY, config)
        assert bossy.witness["profile_b"][0].values == (F(2, 3), F(1, 3), 0)
        for fail in (blend, bossy):
            assert fail.coverage == verdict.coverage

    def test_cardinal_keys_sweep_every_block(self, monkeypatch):
        # A Pass scan visits every block in canonical order: all 3 x 12^2
        # blocks for a cardinal key, and one block per class, 3 x 6^2, for
        # a key that reads only rankings. Every visited block is judged,
        # except that strategy-proofness, whose judge reads only the agent's
        # own rows, judges for every key the first block of each distinct
        # sequence of them.
        # Up to three of those blocks hold a profile, but the rule's block
        # allocator computes only a block that holds a profile no earlier
        # block held: a table's allocator fills it, and a ranking rule's
        # blocks hold new profiles only. A rule with no block of its own (an
        # opaque key) is allocated once on each of those profiles, a rule
        # whose key reads only rankings once per ordinal cell, at its mid
        # profile, and the others, utilitarian, its blends and the ranking
        # blends, whose cell outputs mix their parts', are never allocated.
        # A ranking blend's strategy-proofness reads no block: its parts,
        # judged first, both pass, so it passes without a scan. Nor does
        # blend:rsd:utilitarian:1/2's non-bossiness:
        # its mix is one-to-one within every deviation class and its parts,
        # judged first, pass. blend:utilitarian:rsd:2/5 mixes two pairs of
        # part rows of one class into one row, so its non-bossiness is still
        # scanned. Utilitarian, a part of both, is judged right after its
        # twin has filled utilitarian's table for the grid.
        forget()
        config = CheckConfig(mu_grid=REDUCED_GRIDS[1])
        cells = grid_cells(config)
        for part in (RSD, PS, DICTATORSHIP, UNIFORM):
            assert check_strategy_proofness(part, config).passed
        assert check_non_bossiness(RSD, config).passed
        judged = []

        def spied(judge):
            def spy(agent, others, *rest):
                judged.append((agent, others))
                return judge(agent, others, *rest)
            return spy

        for name in ("_manipulation", "_bossiness"):
            monkeypatch.setattr(checkers, name, spied(getattr(checkers, name)))
        opaque = Rule("rsd-opaque", lambda profile: RSD.key(profile), RSD.compute)
        certified = rule_by_name("blend:rsd:utilitarian:1/2")
        scanned = rule_by_name("blend:utilitarian:rsd:2/5")
        scans = [(check_strategy_proofness, rule, 12) for rule in (opaque, BOSSY)]
        scans += [
            (check_non_bossiness, rule, 12) for rule in (opaque, UTILITARIAN, certified, scanned)
        ]
        for rule in RANKING_RULES:
            if rule is not RANKINGS_BOSSY:
                scans += [(check_strategy_proofness, rule, 6), (check_non_bossiness, rule, 6)]
        skipped = 0
        for check, rule, classes in scans:
            counted, calls, block_calls = _counted(rule)
            assert counted.reads_only_rankings == (classes == 6)
            judged.clear()
            assert check(counted, config).passed
            if rule is certified or (check is check_strategy_proofness and mix_of(rule) is not None):
                assert judged == [] and block_calls == [] and calls == []
                continue
            firsts = cells[:: 12 // classes]
            blocks = [(agent, (a, b)) for agent in range(3) for a in firsts for b in firsts]
            if check is check_strategy_proofness:
                sequences = {}
                for agent, others in blocks:
                    rows = tuple(
                        rule.allocate(profile_with(others, agent, cell)).row(agent)
                        for cell in cells
                    )
                    sequences.setdefault(rows, (agent, others))
                assert judged == list(sequences.values())
                skipped += len(blocks) - len(judged)
            else:
                assert judged == blocks
            profiles, filled = set(), []
            for agent, others in blocks:
                held = {profile_with(others, agent, cell) for cell in cells}
                if not held <= profiles:
                    filled.append((agent, *map(cells.index, others)))
                profiles |= held
            assert len(profiles) == (12**3 if classes == 12 else 3 * 6**2 * 12 - 2 * 6**3)
            assert block_calls == filled
            assert len(filled) == (12**2 if classes == 12 else 3 * 6**2)
            if rule in (opaque, BOSSY):
                assert len(calls) == len(profiles) and set(calls) == profiles
            else:
                assert calls == (MID_PROFILES if classes == 6 and mix_of(rule) is None else [])
            if rule is UTILITARIAN:
                assert check(rule, config).passed
        assert skipped > 0
        forget()  # drop the counted allocator


def _top_or_bottom_allocate(rankings):
    """Agent 0 gets its top object when agents 1 and 2 report the same
    ranking, and its bottom object otherwise; agents 1 and 2 take the other
    two, agent 1 the lower-numbered one."""
    own = rankings[0]
    pick = own[0] if rankings[1] == rankings[2] else own[-1]
    rest = sorted(set(range(3)) - {pick})
    rows = [[0] * 3 for _ in range(3)]
    rows[0][pick] = rows[1][rest[0]] = rows[2][rest[1]] = 1
    return make_allocation(rows)


TOP_OR_BOTTOM = Rule("top-or-bottom-test", RSD.key, _top_or_bottom_allocate)


class TestGridTables:
    """Each scan fills one table of its own, utilitarian keeps one per grid,
    and strategy-proofness judges a sequence of own rows once: no report may
    depend on which scan filled a table or judged a sequence first."""

    PARTS = [RSD, PS, UTILITARIAN]
    BLENDS = [
        rule_by_name(spec)
        for spec in (
            "blend:rsd:ps:1/3",
            "blend:ps:rsd:3/5",
            "blend:rsd:utilitarian:1/2",
            "blend:utilitarian:ps:2/5",
        )
    ]

    def test_scan_order_does_not_matter(self):
        # A blend checked first, or right after `forget`, judges its parts
        # on demand from an empty verdict record.
        config = CheckConfig(mu_grid=REDUCED_GRIDS[3])

        def reports(rules, forget_each):
            forget()
            found = {}
            for rule in rules:
                for check in (check_strategy_proofness, check_non_bossiness):
                    if forget_each:
                        forget()
                    found[rule.name, check.__name__] = check(rule, config).to_dict()
            return found

        parts_first = reports(self.PARTS + self.BLENDS, False)
        assert reports(self.BLENDS + self.PARTS, False) == parts_first
        assert reports(self.BLENDS + self.PARTS, True) == parts_first
        statuses = {report["status"] for report in parts_first.values()}
        assert statuses == {"Pass", "Fail"}

    def test_a_stress_run_keeps_one_utilitarian_table(self, monkeypatch):
        # Each scan and each ordinality check of a blend with utilitarian
        # builds one table, freed when the check ends; utilitarian's table,
        # which every check of utilitarian or such a blend reads, is built
        # once for the grid and kept until `forget`. A rule that reads only
        # rankings, a ranking blend included, builds none, and neither does
        # a non-bossiness check that passes off the blend's parts (no
        # strategy-proofness check of such a blend does: utilitarian fails
        # it). So at most two tables are alive.
        alive, built = [0, 0], []

        class Counted(GridTable):
            __slots__ = ()

            def __init__(self, allocator, count):
                super().__init__(allocator, count)
                built.append(count)
                alive[0] += 1
                alive[1] = max(alive)

            def __del__(self):
                alive[0] -= 1

        forget()
        monkeypatch.setattr(rules_module, "GridTable", Counted)
        config = CheckConfig(mu_grid=REDUCED_GRIDS[1])
        family = built_in_family(8080)
        blends = [rule for rule in family if isinstance(rule.compute, rules_module._Mix)]
        cardinal = [rule for rule in blends if not rule.reads_only_rankings]
        assert len(cardinal) == 6 and len(blends) == 9
        certified = [rule for rule in cardinal if mix_of(rule).is_injective()]
        assert len(certified) == 6
        theorem_stress(family, config)
        assert alive[1] == 2
        assert len(built) == 3 * len(cardinal) - len(certified) + 1 == 13
        kept = rules_module._utilitarian_blocks(grid_cells(config)).__self__
        assert alive[0] == 1 and isinstance(kept, Counted)
        del kept
        forget()
        assert alive[0] == 0

    def test_each_own_row_sequence_is_judged_once(self):
        # Only the second block of agent 0 is manipulable (agent 0 gets its
        # bottom object), and its own rows are those of the first block
        # (its top object) in another cell order: a scan that judged each
        # set of own rows once would skip it.
        config = CheckConfig(mu_grid=REDUCED_GRIDS[1])
        cells = grid_cells(config)
        verdict = check_strategy_proofness(TOP_OR_BOTTOM, config)
        every_block = checkers._scan_blocks(TOP_OR_BOTTOM, config, _manipulation)
        assert verdict.to_dict() == every_block.to_dict()
        assert verdict.coverage.endswith(f"scanned_blocks=3 of {3 * len(cells)**2}")
        witness = _fail_witness(verdict)
        # a>b>c, truthful, gets c; reporting a>c>b gets b
        assert witness["profile"] == (cells[0], cells[0], cells[2])
        assert (witness["agent"], witness["deviation"]) == (0, cells[2])

    @pytest.mark.parametrize("grid", REDUCED_GRIDS[1:], ids=["2", "3", "ps-fails"])
    def test_judging_once_per_sequence_keeps_every_report(self, grid, monkeypatch):
        # Two blends whose weight leaves only rsd read cardinal keys, so
        # their scans visit every block, yet rsd's own rows recur: the memo
        # judges fewer blocks than it visits, whatever the key.
        config = CheckConfig(mu_grid=grid)
        count = len(grid_cells(config))
        rsd_twins = [
            rule_by_name("blend:utilitarian:rsd:0"), rule_by_name("blend:rsd:utilitarian:1")
        ]
        tested = RANKING_RULES + self.PARTS + self.BLENDS + [BOSSY, TOP_OR_BOTTOM] + rsd_twins
        judged = []

        def spy(agent, *rest):
            judged.append(agent)
            return _manipulation(agent, *rest)

        monkeypatch.setattr(checkers, "_manipulation", spy)
        statuses = set()
        for rule in tested:
            judged.clear()
            report = check_strategy_proofness(rule, config).to_dict()
            assert report == checkers._scan_blocks(rule, config, _manipulation).to_dict()
            statuses.add(report["status"])
            if rule in rsd_twins:
                assert not rule.reads_only_rankings and report["status"] == "Pass"
                assert 0 < len(judged) < 3 * count**2
        assert statuses == {"Pass", "Fail"}

    def test_a_ranking_blend_builds_no_table(self, monkeypatch):
        # A blend of two ranking rules reads its blocks off its own cell
        # outputs, as its parts do, so its scans build no table. Its parts
        # pass strategy-proofness, judged here first, so only its
        # non-bossiness check reads blocks.
        config = CheckConfig(mu_grid=REDUCED_GRIDS[1])
        for part in (RSD, PS):
            assert check_strategy_proofness(part, config).passed
        built, seen = [], []

        class Counted(GridTable):
            __slots__ = ()

            def __init__(self, allocator, count):
                super().__init__(allocator, count)
                built.append(count)

        original = Rule.blocks

        def recorded(self, cells):
            block = original(self, cells)

            def read(agent, i, j):
                entries = block(agent, i, j)
                seen.extend(entries)
                return entries

            return read

        monkeypatch.setattr(rules_module, "GridTable", Counted)
        monkeypatch.setattr(Rule, "blocks", recorded)
        blend = rule_by_name("blend:rsd:ps:1/3")
        for check in (check_strategy_proofness, check_non_bossiness):
            assert check(blend, config).passed
        assert built == [] and len(seen) == 3 * 6**2 * 12
        outputs = {id(alloc) for alloc in cell_outputs(blend)}
        assert {id(alloc) for alloc in seen} <= outputs


class TestInternedOutputs:
    """The judges compare canonical rule outputs by identity: every report
    must be the one for a twin whose compute builds a fresh equal
    allocation, with fresh rows, for every key."""

    @pytest.mark.parametrize(
        "spec",
        ["utilitarian", "blend:rsd:utilitarian:1/2", "blend:ps:utilitarian:1/3"],
    )
    def test_reports_match_a_fresh_allocation_twin(self, spec):
        rule = rule_by_name(spec)
        fresh = lru_cache(maxsize=None)(lambda key: make_allocation(rule.compute(key).rows))
        twin = Rule(rule.name, rule.key, fresh)
        for grid in REDUCED_GRIDS[1:3]:
            config = CheckConfig(mu_grid=grid)
            for check in (check_strategy_proofness, check_non_bossiness, check_ordinality):
                assert check(rule, config).to_dict() == check(twin, config).to_dict()

    def test_reports_match_a_twin_with_no_memo(self):
        # The judges compare rows and allocations by identity. Here the
        # compute builds a fresh object on every call, so only the canonical
        # outputs of `Rule.allocate` make equal values one object, and a
        # bossy rule's Fail shows that unequal ones are still told apart.
        rules = [rule_by_name(spec) for spec in (
            "utilitarian", "blend:rsd:utilitarian:1/2", "blend:ps:utilitarian:1/3"
        )] + [BOSSY]
        statuses = set()
        for rule in rules:
            twin = Rule(rule.name, rule.key, lambda key, rule=rule: make_allocation(
                rule.compute(key).rows
            ))
            for grid in REDUCED_GRIDS[1:3]:
                config = CheckConfig(mu_grid=grid)
                for check in (check_strategy_proofness, check_non_bossiness):
                    report = check(twin, config).to_dict()
                    assert report == check(rule, config).to_dict()
                    statuses.add((check, report["status"]))
        assert (check_non_bossiness, "Fail") in statuses


def _permutation(picks):
    rows = [[0] * 3 for _ in range(3)]
    for agent, obj in enumerate(picks):
        rows[agent][obj] = 1
    return make_allocation(rows)


def _serial_allocate(rankings):
    """Serial dictatorship with priority (0, 1, 2)."""
    picks = []
    for ranking in rankings:
        picks.append(next(obj for obj in ranking if obj not in picks))
    return _permutation(picks)


def _second_first_allocate(rankings):
    """Agent 0 gets its second-ranked object, then agent 2 picks, and agent 1
    takes the rest."""
    first = rankings[0][1]
    last = next(obj for obj in rankings[2] if obj != first)
    return _permutation((first, 3 - first - last, last))


# Two non-bossy rules whose half-half blend is bossy: agent 0 gets the same
# half of a and half of b from a>b>c and from b>a>c.
SERIAL = Rule("serial-test", RSD.key, _serial_allocate)
SECOND_FIRST = Rule("second-first-test", RSD.key, _second_first_allocate)


class TestBlendCertificates:
    """A blend passes strategy-proofness, and a blend with a cardinal part
    non-bossiness, off its parts' Passes without a scan where that Pass is
    certain: every report must be the scan's."""

    WEIGHTS = [F(0), F(1, 10), F(1, 3), F(2, 5), F(1, 2), F(3, 5), F(9, 10), F(1)]

    def test_reports_match_the_scan(self):
        base = [RSD, PS, DICTATORSHIP, UTILITARIAN, UNIFORM]
        blends = [
            blend_rule(first, second, alpha)
            for first, second in itertools.permutations(base, 2)
            for alpha in self.WEIGHTS
        ]
        blends.append(blend_rule(rule_by_name("blend:rsd:utilitarian:1/10"), PS, F(1, 3)))
        statuses = set()
        for grid in REDUCED_GRIDS:
            config = CheckConfig(mu_grid=grid)
            for rule in blends:
                for check, judge in (
                    (check_strategy_proofness, _manipulation),
                    (check_non_bossiness, checkers._bossiness),
                ):
                    report = check(rule, config).to_dict()
                    assert report == checkers._scan_blocks(rule, config, judge).to_dict()
                    statuses.add((check, report["status"]))
        assert statuses == {
            (check, status)
            for check in (check_strategy_proofness, check_non_bossiness)
            for status in ("Pass", "Fail")
        } - {(check_non_bossiness, "Fail")}

    def test_an_injective_blend_judges_no_block(self, monkeypatch):
        forget()
        config = CheckConfig(mu_grid=REDUCED_GRIDS[1])
        for part in (RSD, UTILITARIAN):
            assert check_non_bossiness(part, config).passed
        judged = _spy_judge(monkeypatch, "_bossiness")
        for spec in ("blend:rsd:utilitarian:1/10", "blend:rsd:utilitarian:1/2"):
            certified = rule_by_name(spec)
            assert mix_of(certified).is_injective()
            assert check_non_bossiness(certified, config).passed and judged == []
        # rsd's rows include the unit rows, and a half-half mix of a with b
        # is one of b with a, yet no class of rsd holds two unit rows: only
        # the pairs within a class are tested. At 2/5, two pairs of rows of
        # one class mix into one row, so this blend is scanned.
        scanned = rule_by_name("blend:utilitarian:rsd:2/5")
        assert not mix_of(scanned).is_injective()
        assert check_non_bossiness(scanned, config).passed and len(judged) == 3 * 12**2

    def test_non_bossy_parts_need_an_injective_mix(self, monkeypatch):
        forget()
        config = CheckConfig(mu_grid=REDUCED_GRIDS[1])
        assert all(check_non_bossiness(rule, config).passed for rule in (SERIAL, SECOND_FIRST))
        bossy = check_non_bossiness(blend_rule(SERIAL, SECOND_FIRST, F(1, 2)), config)
        assert bossy.coverage.endswith("; scanned_blocks=1 of 432")
        assert _fail_witness(bossy)["agent"] == 0
        assert check_non_bossiness(blend_rule(SERIAL, SECOND_FIRST, F(1, 3)), config).passed
        # Those blends read only rankings, so they are always scanned. At
        # weight 1 a blend with utilitarian allocates as its first part on
        # a cardinal key. The class rows of such a blend are not known, so
        # the blends of these twins are scanned too, with the same reports.
        twins = [blend_rule(rule, UTILITARIAN, F(1)) for rule in (SERIAL, SECOND_FIRST)]
        assert all(check_non_bossiness(twin, config).passed for twin in twins)
        halves, thirds = (blend_rule(*twins, alpha) for alpha in (F(1, 2), F(1, 3)))
        assert not halves.reads_only_rankings
        assert rules_module.class_rows(twins[0]) is None
        assert not mix_of(halves).is_injective() and not mix_of(thirds).is_injective()
        judged = _spy_judge(monkeypatch, "_bossiness")
        assert check_non_bossiness(halves, config).to_dict() == bossy.to_dict()
        assert judged == [0]
        assert check_non_bossiness(thirds, config).passed and len(judged) == 1 + 3 * 12**2

    def test_forget_empties_the_verdict_record(self, monkeypatch):
        # A blend checked right after `forget` judges its parts on demand,
        # rsd one block per class and utilitarian every block, and a second
        # check reads their recorded Passes.
        config = CheckConfig(mu_grid=REDUCED_GRIDS[1])
        blend = rule_by_name("blend:rsd:utilitarian:1/2")
        judged = _spy_judge(monkeypatch, "_bossiness")
        for _ in range(2):
            forget()
            judged.clear()
            for _ in range(2):
                assert check_non_bossiness(blend, config).passed
                assert len(judged) == 3 * 6**2 + 3 * 12**2

    def test_a_part_that_fails_on_the_grid_blocks_the_certificate(self):
        # ps passes on one grid and fails on another: its Pass on the first
        # must not certify a blend on the second.
        assert check_strategy_proofness(PS, CheckConfig(mu_grid=REDUCED_GRIDS[1])).passed
        config = CheckConfig(mu_grid=REDUCED_GRIDS[3])
        blend = rule_by_name("blend:rsd:ps:1/2")
        verdict = check_strategy_proofness(blend, config)
        assert verdict.to_dict() == checkers._scan_blocks(blend, config, _manipulation).to_dict()
        assert not verdict.passed
        assert check_strategy_proofness(RSD, config).passed
        assert not check_strategy_proofness(PS, config).passed


class TestVerdictMemo:
    """Strategy-proofness and non-bossiness are memoized per (rule, config)
    until `forget`: a repeat judges no block and gives an equal report."""

    CHECKS = [(check_strategy_proofness, "_manipulation"), (check_non_bossiness, "_bossiness")]

    @pytest.mark.parametrize("spec", ["rsd", "utilitarian", "blend:rsd:utilitarian:1/2", "bossy"])
    def test_a_repeat_judges_no_block(self, spec, monkeypatch):
        rule = BOSSY if spec == "bossy" else rule_by_name(spec)
        for check, judge in self.CHECKS:
            forget()
            judged = _spy_judge(monkeypatch, judge)
            first = check(rule, CheckConfig(mu_grid=REDUCED_GRIDS[1]))
            assert judged
            judged.clear()
            # An equal config is the same key, though another object.
            again = check(rule, CheckConfig(mu_grid=REDUCED_GRIDS[1]))
            assert judged == [] and again.to_dict() == first.to_dict()
            assert again.to_dict() == checkers._scan_blocks(
                rule, CheckConfig(mu_grid=REDUCED_GRIDS[1]), getattr(checkers, judge)
            ).to_dict()

    def test_parts_checked_after_their_blend_judge_no_block(self, monkeypatch):
        # As `stress --rules blend:rsd:ps:1/2,rsd,ps` checks them: the blend's
        # certificate judges its parts, and their own checks read that.
        forget()
        config = CheckConfig(mu_grid=REDUCED_GRIDS[1])
        judged = _spy_judge(monkeypatch, "_manipulation")
        assert check_strategy_proofness(rule_by_name("blend:rsd:ps:1/2"), config).passed
        parts = len(judged)
        assert parts > 0
        for part in (RSD, PS):
            assert check_strategy_proofness(part, config).to_dict() == {
                "status": "Pass",
                "coverage": checkers._block_sweep(config),
            }
        assert len(judged) == parts

    def test_another_field_is_another_key(self, monkeypatch):
        # A config hashes on its grid alone, but equal configs agree on
        # every field: another seed judges again, with the same report.
        forget()
        judged = _spy_judge(monkeypatch, "_bossiness")
        configs = [CheckConfig(mu_grid=REDUCED_GRIDS[1], seed=seed) for seed in (1, 2)]
        assert hash(configs[0]) == hash(configs[1]) and configs[0] != configs[1]
        reports = []
        for config in configs:
            judged.clear()
            reports.append(check_non_bossiness(UTILITARIAN, config).to_dict())
            assert len(judged) == 3 * 12**2
        assert reports[0] == reports[1]


def _reverse_dictatorship_allocate(rankings):
    """Serial dictatorship with priority (2, 1, 0)."""
    picks = rules_module._dictatorship_picks(rankings, (2, 1, 0))
    return rules_module._permutation_allocation(picks)


REVERSE_DICTATORSHIP = Rule("reverse-dictatorship-test", RSD.key, _reverse_dictatorship_allocate)


class TestClassCertificates:
    """A blend with a ranking part has its non-bossiness certified when its
    mix is one-to-one within every deviation class: on every pair of the
    parts' class rows (`rules.class_rows`). Every report must be the
    scan's, and every Fail must come from it."""

    # The blends at tenths whose mix confuses two pairs of the parts' rows,
    # and the ones among them whose classes keep every pair apart.
    NON_INJECTIVE = [
        "blend:rsd:utilitarian:1/2", "blend:ps:utilitarian:1/2",
        "blend:utilitarian:rsd:1/2", "blend:utilitarian:ps:1/2",
        "blend:utilitarian:rsd:2/5", "blend:utilitarian:ps:1/5", "blend:utilitarian:ps:2/5",
        "blend:rsd:utilitarian:3/5", "blend:ps:utilitarian:3/5", "blend:ps:utilitarian:4/5",
    ]
    CERTIFIED = NON_INJECTIVE[:4]
    GRIDS = [
        *REDUCED_GRIDS,
        checkers.DEFAULT_MU_GRID,
        tuple(F(k, 11) for k in range(1, 11)),
        (F(3, 4), F(1, 10), F(1, 2)),  # unsorted
    ]

    @staticmethod
    def _rows(rule) -> list:
        """Every row `rule` gives an agent: each row of its classes once."""
        classes = rules_module.class_rows(rule)
        return list({id(row): row for rows in classes for row in rows}.values())

    def test_the_classes_keep_only_the_half_blends_apart(self):
        for spec in self.NON_INJECTIVE:
            mix = mix_of(rule_by_name(spec))
            firsts, seconds = self._rows(mix.first), self._rows(mix.second)
            pairs = [mix.mix_row(p, q) for p in firsts for q in seconds]
            assert len(set(map(id, pairs))) < len(pairs)
            assert mix.is_injective() == (spec in self.CERTIFIED)

    def test_reports_match_the_scan_on_every_grid(self, monkeypatch):
        # A blend of a ranking part with a cardinal twin of a non-bossy rule
        # whose classes confuse two pairs of rows: it is scanned, and bossy.
        twin = blend_rule(SECOND_FIRST, UTILITARIAN, F(1))
        bossy = blend_rule(SERIAL, twin, F(1, 2))
        assert not mix_of(bossy).is_injective()
        blends = [rule_by_name(spec) for spec in self.NON_INJECTIVE] + [bossy]
        judged = _spy_judge(monkeypatch, "_bossiness")
        statuses = set()
        for grid in self.GRIDS:
            config = CheckConfig(mu_grid=grid)
            for part in (RSD, PS, UTILITARIAN, SERIAL, twin):
                assert check_non_bossiness(part, config).passed
            for rule in blends:
                judged.clear()
                report = check_non_bossiness(rule, config).to_dict()
                certified = rule.name in self.CERTIFIED
                assert (judged == []) == certified
                assert report == checkers._scan_blocks(rule, config, checkers._bossiness).to_dict()
                statuses.add((certified, report["status"]))
        assert statuses == {(True, "Pass"), (False, "Pass"), (False, "Fail")}

    def test_every_agent_is_tested(self, monkeypatch):
        # Agent 2 picks first: each of its classes holds three unit rows,
        # which a half-half mix with utilitarian's unit rows confuses, while
        # agent 0, which takes what is left, has one row per class.
        config = CheckConfig(mu_grid=REDUCED_GRIDS[1])
        classes = rules_module.class_rows(REVERSE_DICTATORSHIP)
        assert {len(rows) for rows in classes} == {1, 2, 3}
        for part in (REVERSE_DICTATORSHIP, UTILITARIAN):
            assert check_non_bossiness(part, config).passed
        judged = _spy_judge(monkeypatch, "_bossiness")
        for first, second in itertools.permutations((REVERSE_DICTATORSHIP, UTILITARIAN)):
            blend = blend_rule(first, second, F(1, 2))
            assert not mix_of(blend).is_injective()
            assert mix_of(blend_rule(first, second, F(1, 3))).is_injective()
            judged.clear()
            assert check_non_bossiness(blend, config).passed and len(judged) == 3 * 12**2

    @pytest.mark.parametrize(
        "rule", [RSD, PS, DICTATORSHIP, UNIFORM, REVERSE_DICTATORSHIP, SERIAL],
        ids=lambda rule: rule.name,
    )
    def test_class_rows_are_each_class_own_rows(self, rule):
        cells = list(itertools.product(all_orders(3), repeat=3))
        want = set()
        for agent in range(3):
            classes: dict = {}
            for cell, alloc in zip(cells, cell_outputs(rule)):
                others = cell[:agent] + cell[agent + 1 :]
                classes.setdefault(others, set()).add(id(alloc.row(agent)))
            assert len(classes) == 36
            want |= set(map(frozenset, classes.values()))
        got = [frozenset(map(id, rows)) for rows in rules_module.class_rows(rule)]
        assert set(got) == want and len(got) == len(want)

    def test_utilitarian_has_one_class_of_the_rows_its_blocks_give(self):
        # Utilitarian's own rows in a deviation block are unit rows, and
        # some block gives all three, so no smaller class would hold them.
        (unit_rows,) = rules_module.class_rows(UTILITARIAN)
        cells = grid_cells(CheckConfig(mu_grid=REDUCED_GRIDS[1]))
        block = UTILITARIAN.blocks(cells)
        counts = set()
        for agent, i, j in itertools.product(range(3), range(len(cells)), range(len(cells))):
            own = {id(alloc.row(agent)) for alloc in block(agent, i, j)}
            assert own <= set(map(id, unit_rows))
            counts.add(len(own))
        assert len(unit_rows) == 3 and 3 in counts


class TestOrdinality:
    def test_rsd_passes(self):
        assert check_ordinality(RSD, SMALL).passed

    def test_blend_of_ordinal_rules_passes(self):
        assert check_ordinality(blend_rule(RSD, PS, F(1, 2)), SMALL).passed

    def test_utilitarian_fails_within_cell(self):
        witness = _fail_witness(check_ordinality(UTILITARIAN, SMALL))
        a, b = witness["profile_a"], witness["profile_b"]
        assert tuple(map(ordinal_of, a)) == tuple(map(ordinal_of, b)) == witness["cell"]
        assert UTILITARIAN.allocate(a) == witness["allocation_a"]
        assert UTILITARIAN.allocate(b) == witness["allocation_b"]
        assert witness["allocation_a"] != witness["allocation_b"]

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


def _ordinality_reference(rule, config):
    """`check_ordinality`'s per-profile loop for a rule that does not read
    only rankings, as it ran before the grid outputs were read off the
    rule's blocks: one `allocate` call per grid and sample profile."""
    coverage = (
        f"cells=216; per_cell={len(config.mu_grid)**3}+{config.samples_per_cell} random; "
        f"seed={config.seed}"
    )
    for index, orders in enumerate(itertools.product(all_orders(3), repeat=3)):
        profiles = [
            tuple(utility_from(order, mu) for order, mu in zip(orders, mus))
            for mus in itertools.product(config.mu_grid, repeat=3)
        ]
        rng = random.Random(f"{config.seed}:cell:{index}")
        for _ in range(config.samples_per_cell):
            profiles.append(tuple(random_canonical(order, rng) for order in orders))
        reference = rule.allocate(profiles[0])
        for profile in profiles[1:]:
            alloc = rule.allocate(profile)
            if alloc != reference:
                witness = {
                    "cell": orders,
                    "profile_a": profiles[0],
                    "profile_b": profile,
                    "allocation_a": reference,
                    "allocation_b": alloc,
                }
                return Verdict(witness, f"{coverage}; scanned_cells={index + 1} of 216")
    return Verdict(None, coverage)


class TestOrdinalityBlocks:
    """A rule that does not read only rankings has its outputs at grid
    profiles read off its blocks, and only its random samples allocated;
    the reports must be the per-profile loop's."""

    CARDINAL = [UTILITARIAN, BOSSY] + [
        rule_by_name(spec)
        for spec in ("blend:utilitarian:rsd:0", "blend:rsd:utilitarian:1/2",
                     "blend:ps:utilitarian:1/3")
    ]

    @pytest.mark.parametrize("samples", [0, 2])
    def test_only_the_samples_are_allocated(self, samples):
        counted, calls, _ = _counted(rule_by_name("blend:utilitarian:rsd:0"))
        config = CheckConfig(mu_grid=REDUCED_GRIDS[2], samples_per_cell=samples, seed=3)
        assert check_ordinality(counted, config).passed
        assert len(calls) == 216 * samples
        drawn = []
        for index, orders in enumerate(itertools.product(all_orders(3), repeat=3)):
            rng = random.Random(f"3:cell:{index}")
            drawn += [
                tuple(random_canonical(order, rng) for order in orders)
                for _ in range(samples)
            ]
        assert calls == drawn

    def test_reports_match_the_per_profile_loop(self):
        statuses = set()
        for grid in REDUCED_GRIDS:
            for samples in (0, 2):
                config = CheckConfig(mu_grid=grid, samples_per_cell=samples, seed=7)
                for rule in self.CARDINAL:
                    report = report_json(check_ordinality(rule, config).to_dict())
                    assert report == report_json(_ordinality_reference(rule, config).to_dict())
                    statuses.add(json.loads(report)["status"])
        assert statuses == {"Pass", "Fail"}


class TestSdStrategyProofness:
    def test_rsd_passes_full_enumeration(self):
        assert check_sd_strategy_proofness(RSD, SMALL).passed

    def test_ps_verdict_is_stable(self):
        first = check_sd_strategy_proofness(PS, SMALL)
        second = check_sd_strategy_proofness(PS, SMALL)
        assert first.to_dict() == second.to_dict()

    def test_ps_fails_with_reverifying_witness(self):
        witness = _fail_witness(check_sd_strategy_proofness(PS, SMALL))
        cell, agent = witness["cell"], witness["agent"]
        profile = tuple(utility_from(order, F(1, 2)) for order in cell)
        deviation = utility_from(witness["deviation_order"], F(1, 2))
        truthful = PS.allocate(profile).row(agent)
        deviated = PS.allocate(profile[:agent] + (deviation,) + profile[agent + 1 :]).row(agent)
        assert (truthful.probs, deviated.probs) == (
            witness["truthful_share"], witness["deviated_share"]
        )
        verdict = sd_compare(truthful, deviated, cell[agent])
        assert verdict == witness["sd_verdict"]
        assert verdict not in (SdVerdict.DOMINATES, SdVerdict.EQUAL)

    def test_utilitarian_raises_not_ordinal(self):
        with pytest.raises(NotOrdinal):
            check_sd_strategy_proofness(UTILITARIAN, SMALL)

    @pytest.mark.parametrize(
        "spec",
        [
            "rsd",
            "ps",
            "dictatorship",
            "uniform",
            "blend:rsd:ps:3/5",
            # cardinal keys whose outputs are ordinal
            "blend:utilitarian:rsd:0",
            "blend:rsd:utilitarian:1",
        ],
    )
    def test_cell_outputs_give_the_per_profile_reports(self, spec):
        rule = rule_by_name(spec)
        config = CheckConfig(mu_grid=REDUCED_GRIDS[1])
        report = check_sd_strategy_proofness(rule, config).to_dict()
        assert report == _sd_reference(rule, config).to_dict()
        assert report["status"] == ("Fail" if "ps" in spec else "Pass")
        assert list(cell_outputs(rule)) == [rule.allocate(profile) for profile in MID_PROFILES]


def _sd_reference(rule, config):
    """`check_sd_strategy_proofness` as a loop that allocates the truthful
    and every deviated profile of each cell, at rate 1/2."""
    checkers.require_ordinal(rule, config, NotOrdinal, "varies within an ordinal cone")
    orders = all_orders(3)
    mid = F(1, 2)
    coverage = "cells=216; ordinal deviations=6 per agent"
    for index, truth_orders in enumerate(itertools.product(orders, repeat=3)):
        profile = tuple(utility_from(order, mid) for order in truth_orders)
        truthful = rule.allocate(profile)
        for agent in range(3):
            for deviation in orders:
                if deviation == truth_orders[agent]:
                    continue
                others = profile[:agent] + profile[agent + 1 :]
                deviated = rule.allocate(
                    profile_with(others, agent, utility_from(deviation, mid))
                )
                verdict = sd_compare(
                    truthful.row(agent), deviated.row(agent), truth_orders[agent]
                )
                if verdict not in (SdVerdict.DOMINATES, SdVerdict.EQUAL):
                    witness = {
                        "cell": truth_orders,
                        "agent": agent,
                        "deviation_order": deviation,
                        "truthful_share": truthful.row(agent).probs,
                        "deviated_share": deviated.row(agent).probs,
                        "sd_verdict": verdict,
                    }
                    return checkers.Verdict(
                        witness, f"{coverage}; scanned_cells={index + 1} of 216"
                    )
    return checkers.Verdict(None, coverage)


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

    def test_battery_witness_reallocates_the_interval(self):
        witness = _fail_witness(check_continuity_battery(UTILITARIAN, SMALL))
        agent, others, (end0, end1) = default_continuity_paths()[witness["path"]]
        assert agent == witness["agent"]

        def allocate_at(alpha):
            moving = make_utility(
                [alpha * v1 + (1 - alpha) * v0 for v0, v1 in zip(end0.values, end1.values)]
            )
            return UTILITARIAN.allocate(others[:agent] + (moving,) + others[agent:])

        lo, hi = witness["interval"]
        low, high = allocate_at(lo), allocate_at(hi)
        assert (low, high) == (witness["allocation_low"], witness["allocation_high"])
        assert hi - lo == witness["width"] < SMALL.continuity_interval_delta
        assert allocation_distance(low, high) == witness["gap"] >= SMALL.continuity_gap_tau

    def test_probe_budget_caps_a_path_that_moves_continuously(self):
        # Resolving this path to tau = 10^-6 would take about 2^20 rule
        # evaluations; the budget stops at MAX_PATH_PROBES and says so.
        counted, calls, _ = _counted(SLIDING)
        agent, others, endpoints = default_continuity_paths()[0]
        verdict = check_ncc_continuity(counted, agent, others, endpoints, CheckConfig())
        assert verdict.passed
        assert verdict.coverage.endswith(PROBE_CAP_NOTE)
        assert len(calls) == MAX_PATH_PROBES
        battery = check_continuity_battery(SLIDING, CheckConfig())
        assert battery.to_dict() == {
            "status": "Pass",
            "coverage": "paths=3; probe_capped_paths=0",
        }

    def test_tiny_delta_localizes_the_jump_without_recursion(self):
        delta = F(1, 10**400)  # about 1,330 halvings, past the recursion limit
        agent, others, endpoints = default_continuity_paths()[0]
        config = CheckConfig(continuity_interval_delta=delta)
        verdict = check_ncc_continuity(UTILITARIAN, agent, others, endpoints, config)
        assert not verdict.passed
        assert not verdict.coverage.endswith(PROBE_CAP_NOTE)
        lo, hi = (F(x) for x in verdict.witness["interval"])
        assert hi - lo < delta

    @pytest.mark.parametrize(
        "tau, delta",
        [
            (None, None),
            (F(1, 3), F(3, 7)),
            (F(1, 1000), F(2)),
            (F(1, 7), F(1, 1023)),
            (F(1, 7), F(1, 1025)),
            (F(1, 10**6), F(1, 10**40)),
            # delta a power of two: an interval exactly delta wide still splits
            (F(1, 7), F(1, 1024)),
        ],
        ids=["default", "1/3-3/7", "1/1000-2", "1/7-1/1023", "1/7-1/1025", "1e-6-1e-40",
             "1/7-1/1024"],
    )
    @pytest.mark.parametrize(
        "spec", ["utilitarian", "blend:rsd:utilitarian:1/2", "blend:utilitarian:rsd:1/10000000",
                 "sliding", "den-parity"],
    )
    def test_integer_bisection_matches_the_fraction_reference(self, spec, tau, delta, monkeypatch):
        """The dyadic-integer bisection gives the verdict, witness and
        coverage of bisecting on `Fraction`s, path by path and for the
        battery: on a rule that jumps, one that moves continuously (and
        reaches the probe cap) and one that reads its reports' integer forms."""
        rule = {"sliding": SLIDING, "den-parity": DEN_PARITY}.get(spec) or rule_by_name(spec)
        config = CheckConfig() if tau is None else CheckConfig(
            continuity_gap_tau=tau, continuity_interval_delta=delta
        )
        for agent, others, endpoints in default_continuity_paths():
            got = check_ncc_continuity(rule, agent, others, endpoints, config)
            want = fraction_ncc_continuity(rule, agent, others, endpoints, config)
            assert (got.witness, got.coverage) == (want.witness, want.coverage)
            assert report_json(got.to_dict()) == report_json(want.to_dict())
        battery = check_continuity_battery(rule, config).to_dict()
        monkeypatch.setattr(checkers, "check_ncc_continuity", fraction_ncc_continuity)
        assert battery == check_continuity_battery(rule, config).to_dict()

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


def _per_call_reader(rule, path, profile_at):
    """`rules.path_reader` with no table: the rule allocated at each
    point a check probes, as every check did before the tables."""
    return lambda k: rule.allocate(profile_at(k))


class TestPathTables:
    """Continuity checks read a rule's outputs at its path's points from a
    table per rule and path, and a blend's entries mix its parts'. Every
    report must be the one of allocating the rule at each point the check
    probes, and every entry the object `allocate` gives there."""

    BASE = [RSD, PS, DICTATORSHIP, UTILITARIAN, UNIFORM]
    CONFIGS = [
        CheckConfig(),
        CheckConfig(continuity_gap_tau=F(1, 7), continuity_interval_delta=F(1, 1023)),
    ]

    @staticmethod
    def _custom_paths():
        """Seeded paths, each set of others and endpoints moved by every
        agent in turn, and a path whose others are raw utilities."""
        rng = random.Random(35)
        orders = all_orders(3)
        paths = []
        for _ in range(2):
            others = tuple(
                utility_from(rng.choice(orders), F(rng.randrange(1, 1024), 1024)) for _ in range(2)
            )
            order = rng.choice(orders)
            draws = [F(rng.randrange(1, 1024), 1024) for _ in range(2)]
            low, high = sorted({*draws, F(1, 2)})[:2]
            ends = (utility_from(order, low), utility_from(order, high))
            paths += [(agent, others, ends) for agent in range(3)]
        raw = (make_utility([5, 1, 3]), make_utility([F(1, 3), 2, 0]))
        paths.append((1, raw, (utility_from(ABC, F(1, 7)), utility_from(ABC, F(5, 6)))))
        return paths

    @staticmethod
    def _checked_reader(monkeypatch):
        """Make every table read also check that its entry is the object
        `allocate` gives at the point."""
        real = rules_module.path_reader

        def checked(rule, path, profile_at):
            read = real(rule, path, profile_at)

            def verified(k):
                alloc = read(k)
                assert alloc is rule.allocate(profile_at(k))
                return alloc

            return verified

        for module in (rules_module, checkers):  # a blend's parts, and the check's own read
            monkeypatch.setattr(module, "path_reader", checked)

    def test_reports_match_allocating_each_probe(self, monkeypatch):
        blends = [
            blend_rule(first, second, alpha)
            for first, second in itertools.permutations(self.BASE, 2)
            for alpha in TestBlendCertificates.WEIGHTS
        ]
        sliding = blend_rule(SLIDING, RSD, F(1, 2))
        rules = self.BASE + blends + [sliding, blend_rule(UTILITARIAN, sliding, F(1, 3))]
        paths = default_continuity_paths() + self._custom_paths()

        def reports():
            return [
                check_ncc_continuity(rule, agent, others, endpoints, config).to_dict()
                for config in self.CONFIGS
                for rule in rules
                for agent, others, endpoints in paths
            ]

        forget()
        self._checked_reader(monkeypatch)
        tabled = reports()
        monkeypatch.setattr(checkers, "path_reader", _per_call_reader)
        assert tabled == reports()
        statuses = {report["status"] for report in tabled}
        assert statuses == {"Pass", "Fail"}
        # At the default thresholds the two sliding blends reach the cap on
        # each path that moves agent 0: the battery's first and two custom.
        capped = [report for report in tabled if report["coverage"].endswith(PROBE_CAP_NOTE)]
        assert len(capped) == 2 * 3
        assert check_continuity_battery(sliding, CheckConfig()).to_dict() == {
            "status": "Pass",
            "coverage": "paths=3; probe_capped_paths=0",
        }

    def test_a_check_probes_as_many_points_with_tables_filled(self):
        # The parts' tables are full when the blend is checked, yet the
        # budget counts the blend's own probes: it still reaches the cap.
        forget()
        sliding = blend_rule(SLIDING, UNIFORM, F(1, 3))
        agent, others, endpoints = default_continuity_paths()[0]
        for rule in (SLIDING, sliding, sliding):
            verdict = check_ncc_continuity(rule, agent, others, endpoints, CheckConfig())
            assert verdict.passed and verdict.coverage.endswith(PROBE_CAP_NOTE)


class TestConfig:
    def test_grid_values_validated(self):
        with pytest.raises(ValueError):
            CheckConfig(mu_grid=(F(0), F(1, 2)))
        with pytest.raises(ValueError):
            CheckConfig(continuity_gap_tau=F(0))
        # An empty grid would leave the scans a quotient step of 0 and the
        # efficiency battery no rate to cycle.
        with pytest.raises(ValueError, match="at least one value"):
            CheckConfig(mu_grid=(), samples_per_cell=0)

    def test_a_grid_given_as_a_list_is_kept_as_a_tuple(self):
        config = CheckConfig(mu_grid=[F(1, 4), F(3, 4)])
        assert config.mu_grid == REDUCED_GRIDS[1] and config == CheckConfig(mu_grid=REDUCED_GRIDS[1])
        assert check_strategy_proofness(PS, config).passed

    @pytest.mark.parametrize("samples", [1.5, 2.0, True, F(2), "2"])
    def test_sample_count_must_be_an_int(self, samples):
        with pytest.raises(TypeError, match="must be an int"):
            CheckConfig(samples_per_cell=samples)

    def test_constant_rule_passes_everything_but_efficiency(self):
        profiles = default_efficiency_profiles(SMALL)[:10]
        assert not check_efficiency(UNIFORM, profiles).passed
        assert check_strategy_proofness(UNIFORM, SMALL).passed
        assert check_non_bossiness(UNIFORM, SMALL).passed
        assert check_ordinality(UNIFORM, SMALL).passed
        assert check_continuity_battery(UNIFORM, SMALL).passed
