"""Lemma trials, the stress report, and the extended-domain check."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from alloclab import (
    CheckConfig,
    LEMMA_HYPOTHESES,
    LEMMA_IDS,
    NotOrdinalOnU,
    PS,
    RSD,
    UNIFORM,
    UTILITARIAN,
    blend_rule,
    theorem2_check,
    theorem_stress,
    verify_lemma,
)
from alloclab import harness
from alloclab.core import (
    expected_utility,
    make_allocation,
    make_profile,
    make_utility,
    uniform_allocation,
)
from alloclab.harness import default_v_profiles, exploration_stress
from alloclab.checkers import report_json
from alloclab.cli import main
from alloclab.ordinal import (
    VUtility,
    all_orders,
    middle_rate,
    ordinal_of,
    random_lottery,
    random_utility_consistent,
    sd_comparable_pair,
    v_from_bernoulli,
)
from alloclab.rules import DICTATORSHIP, Rule, built_in_family, rule_by_name

from conftest import printed_witness, read_back

F = Fraction
SMALL = CheckConfig(mu_grid=(F(1, 10), F(1, 2), F(9, 10)), samples_per_cell=1, seed=5)
# The same grid as flags of `alloclab stress`.
SMALL_FLAGS = ("--grid", "1/10,1/2,9/10", "--samples", "1", "--seed", "5")


def printed(capsys, *argv: str) -> str:
    """The report `alloclab <argv>` writes, less print's final newline."""
    main(list(argv))
    out = capsys.readouterr().out
    assert out.endswith("\n")
    return out[:-1]


def lemma_argv(lemma_id: str, rule_name: str | None, trials: int, seed: int) -> list[str]:
    argv = ["lemma", "--lemma", lemma_id, "--trials", str(trials), "--seed", str(seed)]
    return argv + ["--rule", rule_name] if rule_name else argv


class TestVerifyLemma:
    @pytest.mark.parametrize(
        "lemma_id,rule",
        [
            ("L1_effectively_same", RSD),
            ("L2_middle_bump", RSD),
            ("L4_top_or_bottom", RSD),
            ("L3_identical_pair", DICTATORSHIP),
            ("L5_positive_b", DICTATORSHIP),
            ("L6_one_agent_invariance", DICTATORSHIP),
            ("L7_same_order_pair", DICTATORSHIP),
            ("L9_support_two", DICTATORSHIP),
            ("L10_separating", None),
        ],
    )
    def test_compliant_rules_report_zero_failures(self, lemma_id, rule):
        report = verify_lemma(lemma_id, rule, trials=120, seed=1)
        assert report.failures == []
        assert report.sampled == 120
        assert not report.hypothesis_unsatisfiable

    def test_l8_unsatisfiable_for_deterministic_rule(self):
        # The fixed dictatorship never produces a full-support row, so the
        # interior-support hypothesis cannot be instantiated.
        report = verify_lemma("L8_interior_ordinality", DICTATORSHIP, trials=5, seed=1)
        assert report.hypothesis_unsatisfiable
        assert report.failures == []

    def test_unsatisfiable_hypothesis_stops_after_rejection_factor_attempts(self):
        calls = []

        def counted_key(profile):
            calls.append(1)
            return DICTATORSHIP.key(profile)

        rule = Rule("counted-dictatorship", counted_key, DICTATORSHIP.compute)
        report = verify_lemma("L8_interior_ordinality", rule, trials=1000, seed=1)
        assert len(calls) == harness.REJECTION_FACTOR
        assert report.sampled == 0 and report.hypothesis_unsatisfiable
        assert report.failures == []

    def test_reports_are_deterministic(self, capsys):
        a = printed(capsys, *lemma_argv("L10_separating", None, 60, 3))
        b = printed(capsys, *lemma_argv("L10_separating", None, 60, 3))
        assert a == b

    def test_failure_witnesses_are_capped_and_counted(self, monkeypatch, capsys):
        assert harness.MAX_WITNESSES == 100
        argv = lemma_argv("L3_identical_pair", "rsd", 300, 3)
        capped = verify_lemma("L3_identical_pair", RSD, trials=300, seed=3)
        capped_json = printed(capsys, *argv)
        monkeypatch.setattr(harness, "MAX_WITNESSES", 10**6)
        whole = verify_lemma("L3_identical_pair", RSD, trials=300, seed=3)
        whole_json = printed(capsys, *argv)
        assert len(whole.failures) == whole.failures_total > 100
        assert capped.failures == whole.failures[:100]
        assert capped.failures_total == whole.failures_total
        assert json.loads(capped_json)["failures_total"] == whole.failures_total
        # a report that kept every witness has no count
        assert "failures_total" not in json.loads(whole_json)

    def test_lemma_metadata(self):
        assert set(LEMMA_HYPOTHESES) == set(LEMMA_IDS)
        assert LEMMA_HYPOTHESES["L2_middle_bump"] == ("strategy_proofness",)
        with pytest.raises(ValueError):
            verify_lemma("L99", RSD, 1, 1)

    def test_non_ordinal_rule_yields_lemma_failures(self):
        # Utilitarian does not satisfy L1's hypotheses; the checker should
        # find effectively-same replacements that move the allocation,
        # demonstrating the witness machinery on a true positive.
        report = verify_lemma("L1_effectively_same", UTILITARIAN, trials=40, seed=2)
        assert report.sampled == 40
        assert report.failures == []  # effectively-same => same canonical form

        report = verify_lemma("L2_middle_bump", UTILITARIAN, trials=60, seed=2)
        assert report.failures  # raising the middle rate moves the share

    def test_failure_witnesses_hold_exact_values(self, capsys):
        """Each witness re-runs from its own values, and the printed report
        parses back to the same values."""
        rule = rule_by_name("blend:rsd:utilitarian:1/2")
        reports = {
            lemma: verify_lemma(lemma, rule, trials=40, seed=1)
            for lemma in ("L2_middle_bump", "L6_one_agent_invariance", "L8_interior_ordinality")
        }
        for lemma, report in reports.items():
            assert report.failures
            failures = json.loads(printed(capsys, *lemma_argv(lemma, rule.name, 40, 1)))["failures"]
            assert read_back(failures, report.failures) == report.failures

        for witness in reports["L2_middle_bump"].failures:
            profile, agent = witness["profile"], witness["agent"]
            raised = profile[:agent] + (witness["raised_mu_report"],) + profile[agent + 1 :]
            before = rule.allocate(profile).rows[agent]
            after = rule.allocate(raised).rows[agent]
            assert (before, after) == (witness["share_before"], witness["share_after"])
            assert middle_rate(raised[agent]) > middle_rate(profile[agent])
            assert before != after
        for witness in reports["L6_one_agent_invariance"].failures:
            profile, (i, _) = witness["profile"], witness["pair"]
            replaced = profile[:i] + (witness["replacement"],) + profile[i + 1 :]
            assert rule.allocate(profile) == witness["allocation"]
            assert rule.allocate(replaced) == witness["replaced_allocation"]
            assert ordinal_of(replaced[i]) == ordinal_of(profile[i])
        for witness in reports["L8_interior_ordinality"].failures:
            profile, twin = witness["profile"], witness["ordinal_twin"]
            assert list(map(ordinal_of, profile)) == list(map(ordinal_of, twin))
            assert rule.allocate(profile) == witness["allocation"]
            assert rule.allocate(twin) == witness["twin_allocation"]
            assert witness["allocation"] != witness["twin_allocation"]


# sha256 of the JSON report of `alloclab lemma --lemma <lemma> --rule <rule>
# --trials 40 --seed 1`. Between them these reports hold every
# failure-witness shape the samplers emit.
LEMMA_REPORT_SHA256 = {
    ("L1_effectively_same", "utilitarian"):
        "77528dbb5715d0051e03bda2f1a8345427a4f570a6b9308e8b889373951c23e4",
    ("L2_middle_bump", "utilitarian"):
        "51391ec25accea2fc5c6bfdfc5932e677427a8f607893c5e4974381b7b73cf82",
    ("L3_identical_pair", "utilitarian"):
        "0fc1d878b8df4f4e2ad759871e490231e8ea6a39f98bd03a54bfcfd28343212b",
    ("L4_top_or_bottom", "utilitarian"):
        "9f8ab9c17bc76ee2d5df913c6ace7bce00b5fcf7eabcf81a4e34faac588443ec",
    ("L5_positive_b", "utilitarian"):
        "4a6f250c0749e01a3875fa5b3f151eed11a763e9e10237f07408b0f1b94a19b1",
    ("L6_one_agent_invariance", "utilitarian"):
        "f17e6c0f5ad134e806a6fa5a904625eb9ce3cc862b977ddde035988b12c59ee2",
    ("L7_same_order_pair", "utilitarian"):
        "a51247c13c09fc796fb4d60368c0d486183270accff1ac3bf315bb9adf7cf05d",
    ("L8_interior_ordinality", "utilitarian"):
        "441ea54f0586d89595f01f4e25ac90f707d3586d9951f65e63964837347235a8",
    ("L9_support_two", "utilitarian"):
        "404a1e33f5bcebbcd21600b0a13c8e2f4da1287f462435ec2a4b15d92a077ae3",
    ("L1_effectively_same", "blend:rsd:utilitarian:1/2"):
        "e64b1f4dd5f01ba7869cf19c39e5bf4188afb2812ff359019d200cd7e41c8b11",
    ("L2_middle_bump", "blend:rsd:utilitarian:1/2"):
        "37c53fcec733e0b6b54e6391595383b78776673538bd520b7694eda7bfd0e06b",
    ("L3_identical_pair", "blend:rsd:utilitarian:1/2"):
        "d017667e3d51fda92efa1f0787f68e40d736cc43c1f96ccca1997016c29ec72a",
    ("L4_top_or_bottom", "blend:rsd:utilitarian:1/2"):
        "1c3d52274c6bab09916815045c596f7c9168a9dfc45703b1a95b67005e6d27a5",
    ("L5_positive_b", "blend:rsd:utilitarian:1/2"):
        "8b11585c85037cff9aa38de70e8d5a16ee5357f9de93af6b2c9e76e4c0eb8da1",
    ("L6_one_agent_invariance", "blend:rsd:utilitarian:1/2"):
        "a0ae584ad8d1540c8774e8b9161dc9f306f13d7e0e09a0fc189a38af0a0bd043",
    ("L7_same_order_pair", "blend:rsd:utilitarian:1/2"):
        "38042b8b1b0ffb56693ff5449062b64e0731fd4e49bd920da263ea8e5c6a3058",
    ("L8_interior_ordinality", "blend:rsd:utilitarian:1/2"):
        "d01b5f8f4e139666ac25f4cbe1c55ebb44f4664c57f511e504d94a852f082f69",
    ("L9_support_two", "blend:rsd:utilitarian:1/2"):
        "0722965b3a324880128a589d06b7013d5e242eff7f4e7c2c7c73fb1d8db96b24",
    ("L10_separating", None):
        "80051673475ae4fe3efe5f1433e627c3b2b2ff756b30d11ecc4c6e1eb498f886",
}


@pytest.mark.parametrize("rule_name", ["utilitarian", "blend:rsd:utilitarian:1/2"])
def test_l10_refuses_a_rule(rule_name, capsys):
    # L10's trials never call a rule, so a report must not name one.
    message = "L10_separating takes no rule: its trials never call one"
    assert main(lemma_argv("L10_separating", rule_name, 40, 1)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    with pytest.raises(ValueError, match=message):
        verify_lemma("L10_separating", rule_by_name(rule_name), 40, 1)


@pytest.mark.parametrize("lemma_id, rule_name", list(LEMMA_REPORT_SHA256))
def test_lemma_report_bytes_are_pinned(lemma_id, rule_name, capsys):
    report = printed(capsys, *lemma_argv(lemma_id, rule_name, 40, 1))
    assert hashlib.sha256(report.encode()).hexdigest() == LEMMA_REPORT_SHA256[
        (lemma_id, rule_name)
    ]


# sha256 of the JSON report of `alloclab lemma --lemma <lemma> --rule <rule>
# --trials 200 --seed 2024`: the benchmark's lemma runs. rsd and L10 pass,
# so their reports pin the sampled counts; utilitarian's failure witnesses,
# and the sampler stream below, pin the drawn values and the order of the
# rng calls.
SAMPLER_REPORT_SHA256 = {
    ("L1_effectively_same", "rsd"):
        "354198498611da4eabb76f696ae550301b7e317d624bafa4eaf179b37d8ae84b",
    ("L2_middle_bump", "rsd"):
        "2ee09e7074b10f0cb3229746a709a2d58bd0f2ed4cacf5bbdfef53604b77d6f9",
    ("L4_top_or_bottom", "rsd"):
        "c87d4d52a26d2ac068eb388e89bc0e39e383dd04006c61a11f21be146739d567",
    ("L10_separating", None):
        "c9cd20cd0797a5c7220e7b6e40b46e29d166affae1e7701365b1b0d513fa5407",
    ("L2_middle_bump", "utilitarian"):
        "0cf98d8318f7548176a65954098d7b4b3d055810894e901545afcc6aa2a68223",
    ("L4_top_or_bottom", "utilitarian"):
        "c63acaf411febeca1da2f84477014968e0e298d1e2d936bf933c2721115938de",
}


@pytest.mark.parametrize("lemma_id, rule_name", list(SAMPLER_REPORT_SHA256))
def test_sampler_reports_are_pinned(lemma_id, rule_name, capsys):
    report = printed(capsys, *lemma_argv(lemma_id, rule_name, 200, 2024))
    assert hashlib.sha256(report.encode()).hexdigest() == SAMPLER_REPORT_SHA256[
        (lemma_id, rule_name)
    ]


def _sampler_draws(seed: int) -> str:
    """Every sampler's draws from one seeded stream, in report form."""
    rng = random.Random(seed)
    draws = []
    for _ in range(100):
        order = rng.choice(all_orders(3))
        utility = random_utility_consistent(order, rng)
        draws.append([
            utility,
            harness._random_affine(utility, rng),
            harness._random_member(order, rng, middle_rate(utility)),
            harness._random_profile(rng),
            random_lottery(3, rng),
            *sd_comparable_pair(order, rng),
        ])
    return report_json({"draws": draws})


def test_sampler_draws_are_pinned():
    assert hashlib.sha256(_sampler_draws(2024).encode()).hexdigest() == (
        "d3469cb3efa959b97ee08205b6055a4803b312029ce7032f844bf4841c0f0216"
    )


class TestTheoremStress:
    def test_family_matrix_and_no_violations(self):
        family = [RSD, PS, UTILITARIAN, blend_rule(RSD, UTILITARIAN, F(1, 2))]
        report = theorem_stress(family, SMALL)
        assert report.metamorphic_violations == []
        utilitarian = report.verdicts["utilitarian"]
        assert utilitarian["ordinality"]["status"] == "Fail"
        assert utilitarian["strategy_proofness"]["status"] == "Fail"
        assert utilitarian["efficiency"]["status"] == "Pass"
        blend = report.verdicts["blend:rsd:utilitarian:1/2"]
        assert blend["ordinality"]["status"] == "Fail"
        assert any(
            blend[axiom]["status"] == "Fail"
            for axiom in ("efficiency", "strategy_proofness", "non_bossiness", "continuity")
        )

    def test_constant_rule_fails_only_efficiency(self):
        report = theorem_stress([UNIFORM], SMALL)
        verdicts = report.verdicts["uniform"]
        assert verdicts["efficiency"]["status"] == "Fail"
        for axiom in ("strategy_proofness", "non_bossiness", "continuity", "ordinality"):
            assert verdicts[axiom]["status"] == "Pass"
        assert report.metamorphic_violations == []

    def test_family_report_bytes_are_pinned(self, capsys):
        # seed 3's family holds seven blends with utilitarian, in both
        # orders; --seed 0 keeps CheckConfig's default seed
        names = ",".join(rule.name for rule in built_in_family(3))
        report = printed(capsys, "stress", "--rules", names, "--grid", "1/4,3/4", "--seed", "0")
        assert hashlib.sha256(report.encode()).hexdigest() == (
            "e9149d247ee080f0615123bd3374d89ff3e760b280e4957e942fba91004692d3"
        )

    def test_report_bytes_stable_for_fixed_seed(self, capsys):
        argv = ("stress", "--rules", "rsd,uniform", *SMALL_FLAGS)
        first = printed(capsys, *argv)
        second = printed(capsys, *argv)
        assert first == second

    def test_csv_summary_shape(self, capsys):
        report = printed(capsys, "stress", "--rules", "uniform", *SMALL_FLAGS, "--format", "csv")
        lines = report.strip().splitlines()
        assert lines[0] == "rule,axiom,status"
        assert len(lines) == 1 + 5  # five checks for one rule

    def test_built_in_family_composition(self):
        family = built_in_family(5)
        names = [rule.name for rule in family]
        assert names[:3] == ["rsd", "ps", "utilitarian"]
        assert len(family) == 12
        assert all(name.startswith("blend:") for name in names[3:])

    def test_built_in_family_draws_twelve_distinct_rules(self):
        # A draw of a blend already in the family is drawn again; 488 of
        # these seeds, 777 among them, draw some blend twice.
        for seed in range(1, 1001):
            assert len(set(built_in_family(seed))) == 12


class TestTheorem2:
    def test_ordinal_rules_pass(self):
        profiles = default_v_profiles(seed=3, count=3)
        assert theorem2_check(RSD, profiles, SMALL).passed
        assert theorem2_check(PS, profiles, SMALL).passed

    def test_non_ordinal_rule_raises(self):
        profiles = default_v_profiles(seed=3, count=2)
        with pytest.raises(NotOrdinalOnU):
            theorem2_check(UTILITARIAN, profiles, SMALL)

    def test_v_profiles_outside_the_domain_are_refused(self):
        base = make_utility(["1", "2/5", "0"])
        reversed_eu = VUtility(
            "minus-eu", lambda lot: -expected_utility(base, lot), ordinal_of(base)
        )
        profile = (v_from_bernoulli(base), reversed_eu, v_from_bernoulli(base))
        with pytest.raises(ValueError, match="v_profiles fail the domain conditions: .*minus-eu"):
            theorem2_check(RSD, [profile], SMALL)

    def test_rule_ordinal_only_on_grid_rates_fails_with_reverifying_witness(self):
        # Uniform when every middle rate is a grid rate, the identity
        # assignment otherwise: the grid-only ordinality scan passes, and
        # theorem2's random-rate twins expose the rule.
        grid = (F(1, 4), F(1, 2), F(3, 4))
        identity = make_allocation([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        rule = Rule(
            "grid-rates-only",
            lambda profile: all(middle_rate(u) in grid for u in profile),
            lambda on_grid: uniform_allocation(3) if on_grid else identity,
        )
        config = CheckConfig(mu_grid=grid, samples_per_cell=0, seed=4)
        verdict = theorem2_check(rule, default_v_profiles(seed=4, count=2), config)
        assert verdict.status == "Fail"
        witness = printed_witness(verdict)
        profile_a = make_profile(witness["profile_a"])
        profile_b = make_profile(witness["profile_b"])
        assert [str(ordinal_of(u)) for u in profile_a] == witness["cell"]
        assert [str(ordinal_of(u)) for u in profile_b] == witness["cell"]
        assert rule.allocate(profile_a) == make_allocation(witness["allocation_a"])
        assert rule.allocate(profile_b) == make_allocation(witness["allocation_b"])
        assert witness["allocation_a"] != witness["allocation_b"]


class TestExploration:
    def test_n4_records_without_asserting(self):
        record = exploration_stress([RSD, UNIFORM], n=4, config=SMALL)
        assert record["exploration"] is True
        assert record["n"] == 4
        assert record["rules"]["rsd"]["probes"] == 40
        assert record["rules"]["rsd"]["ordinal_twin_differences"] == 0

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            exploration_stress([RSD], n=3, config=SMALL)
