"""Lemma trials, the stress report, and the extended-domain check."""

import hashlib
import json
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
from alloclab.core import make_allocation, make_profile, uniform_allocation
from alloclab.harness import default_v_profiles, exploration_stress
from alloclab.ordinal import middle_rate, ordinal_of
from alloclab.rules import DICTATORSHIP, Rule, built_in_family, rule_by_name

F = Fraction
SMALL = CheckConfig(mu_grid=(F(1, 10), F(1, 2), F(9, 10)), samples_per_cell=1, seed=5)


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

    def test_reports_are_deterministic(self):
        a = verify_lemma("L10_separating", None, trials=60, seed=3)
        b = verify_lemma("L10_separating", None, trials=60, seed=3)
        assert a.to_json() == b.to_json()

    def test_failure_witnesses_are_capped_and_counted(self, monkeypatch):
        assert harness.MAX_WITNESSES == 100
        capped = verify_lemma("L3_identical_pair", RSD, trials=300, seed=3)
        monkeypatch.setattr(harness, "MAX_WITNESSES", 10**6)
        whole = verify_lemma("L3_identical_pair", RSD, trials=300, seed=3)
        assert len(whole.failures) == whole.failures_total > 100
        assert capped.failures == whole.failures[:100]
        assert capped.failures_total == whole.failures_total
        assert json.loads(capped.to_json())["failures_total"] == whole.failures_total
        # a report that kept every witness has no count
        assert "failures_total" not in json.loads(whole.to_json())

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


# sha256 of verify_lemma(lemma, rule, 40, 1).to_json(). Between them these
# reports hold every failure-witness shape the samplers emit.
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
    ("L10_separating", "utilitarian"):
        "17dbd22a364ecfa0dc5638c61595abc6419c1baa564ec1dceaa552e6cc7a3dba",
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
    ("L10_separating", "blend:rsd:utilitarian:1/2"):
        "bf771ebeedfa15741ce543b3ba30289550d146d3bd7c817f590134c478449b28",
    ("L10_separating", None):
        "80051673475ae4fe3efe5f1433e627c3b2b2ff756b30d11ecc4c6e1eb498f886",
}


@pytest.mark.parametrize("lemma_id, rule_name", list(LEMMA_REPORT_SHA256))
def test_lemma_report_bytes_are_pinned(lemma_id, rule_name):
    rule = rule_by_name(rule_name) if rule_name else None
    report = verify_lemma(lemma_id, rule, 40, 1).to_json()
    assert hashlib.sha256(report.encode()).hexdigest() == LEMMA_REPORT_SHA256[
        (lemma_id, rule_name)
    ]


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

    def test_family_report_bytes_are_pinned(self):
        # seed 3's family holds seven blends with utilitarian, in both orders
        report = theorem_stress(
            built_in_family(3), CheckConfig(mu_grid=(F(1, 4), F(3, 4)))
        ).to_json()
        assert hashlib.sha256(report.encode()).hexdigest() == (
            "e9149d247ee080f0615123bd3374d89ff3e760b280e4957e942fba91004692d3"
        )

    def test_report_bytes_stable_for_fixed_seed(self):
        family = [RSD, UNIFORM]
        first = theorem_stress(family, SMALL).to_json()
        second = theorem_stress(family, SMALL).to_json()
        assert first == second

    def test_csv_summary_shape(self):
        report = theorem_stress([UNIFORM], SMALL)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "rule,axiom,status"
        assert len(lines) == 1 + 5  # five checks for one rule

    def test_built_in_family_composition(self):
        family = built_in_family(5)
        names = [rule.name for rule in family]
        assert names[:3] == ["rsd", "ps", "utilitarian"]
        assert len(family) == 12
        assert all(name.startswith("blend:") for name in names[3:])


class TestTheorem2:
    def test_ordinal_rules_pass(self):
        profiles = default_v_profiles(seed=3, count=3)
        assert theorem2_check(RSD, profiles, SMALL).passed
        assert theorem2_check(PS, profiles, SMALL).passed

    def test_non_ordinal_rule_raises(self):
        profiles = default_v_profiles(seed=3, count=2)
        with pytest.raises(NotOrdinalOnU):
            theorem2_check(UTILITARIAN, profiles, SMALL)

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
        witness = verdict.witness
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
