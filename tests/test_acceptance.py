"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion. The full default grid is exercised here; the unit-test
modules use reduced grids.
"""

import random
import re
import time
from fractions import Fraction
from pathlib import Path

import alloclab
from alloclab import (
    CheckConfig,
    RSD,
    UNIFORM,
    UTILITARIAN,
    check_efficiency,
    check_ncc_continuity,
    check_non_bossiness,
    check_ordinality,
    check_strategy_proofness,
    decompose,
    expected_utility,
    find_dominating,
    make_allocation,
    make_profile,
    make_utility,
    recompose,
    theorem_stress,
    verify_lemma,
)
from alloclab.bvn import random_bistochastic
from alloclab.checkers import (
    check_continuity_battery,
    default_continuity_paths,
    default_efficiency_profiles,
)
from alloclab.ordinal import (
    OrdinalPreference,
    SdVerdict,
    ordinal_of,
    random_lottery,
    random_utility_consistent,
    rdu_utility,
    sd_compare,
    separating_utility,
    all_orders,
)
from alloclab.rules import built_in_family

from conftest import best_assignments, dominates_directly, perm_matrix_rows, printed_witness

F = Fraction
ABC = OrdinalPreference((0, 1, 2))
DEFAULT = CheckConfig(seed=2024)


def record(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_bvn_round_trip():
    rng = random.Random(101)
    started = time.perf_counter()
    for _ in range(1000):
        alloc = random_bistochastic(3, rng)
        d = decompose(alloc)
        assert len(d.terms) <= 5
        assert all(w > 0 for w, _ in d.terms)
        assert sum(w for w, _ in d.terms) == 1
        assert recompose(d) == alloc
    elapsed = time.perf_counter() - started
    record(
        1,
        elapsed < 5.0,
        f"1000 exact BvN round trips, <=5 terms each, in {elapsed:.2f}s",
    )


def test_criterion_2_efficiency_oracle_agreement():
    rng = random.Random(202)
    orders = all_orders(3)
    some, none = 0, 0
    for index in range(200):
        profile = tuple(
            random_utility_consistent(rng.choice(orders), rng) for _ in range(3)
        )
        if index % 7 == 0:
            alloc = UTILITARIAN.allocate(profile)  # efficient by construction
        else:
            alloc = random_bistochastic(3, rng)
        better = find_dominating(profile, alloc)
        if better is not None:
            some += 1
            assert dominates_directly(profile, better, alloc)
            # the randomized search can only confirm; find one quickly
            for _ in range(10_000):
                candidate = random_bistochastic(3, rng)
                if dominates_directly(profile, candidate, alloc):
                    break
        else:
            none += 1
            for _ in range(10_000):
                candidate = random_bistochastic(3, rng)
                assert not dominates_directly(
                    profile, candidate, alloc
                ), "search oracle contradicts a none verdict"
    record(
        2,
        some + none == 200 and none >= 20,
        f"200 pairs: {some} dominated (reverified), {none} efficient "
        f"(10k-sample search agreed)",
    )


def test_criterion_3_footnote_4_vector():
    profile = make_profile([["1", "1/2", "0"], ["1/2", "1", "0"], ["0", "1/2", "1"]])
    wrong = make_allocation([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    started = time.perf_counter()
    better = find_dominating(profile, wrong)
    elapsed_ms = (time.perf_counter() - started) * 1000
    swap = make_allocation([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    record(
        3,
        better == swap and elapsed_ms < 10,
        f"opposed rankings flagged inefficient, swap returned in {elapsed_ms:.2f}ms",
    )


def test_criterion_4_rule_axiom_matrix_default_grid():
    started = time.perf_counter()
    results = []

    results.append(check_strategy_proofness(RSD, DEFAULT).passed)
    results.append(check_non_bossiness(RSD, DEFAULT).passed)
    results.append(check_ordinality(RSD, DEFAULT).passed)
    results.append(check_continuity_battery(RSD, DEFAULT).passed)

    battery = default_efficiency_profiles(DEFAULT)
    results.append(check_efficiency(UTILITARIAN, battery).passed)

    sp = check_strategy_proofness(UTILITARIAN, DEFAULT)
    results.append(not sp.passed)
    witness = printed_witness(sp)
    profile = make_profile(witness["profile"])
    agent = witness["agent"]
    truthful = make_allocation(witness["truthful_allocation"])
    deviated = make_allocation(witness["deviated_allocation"])
    gap = expected_utility(profile[agent], deviated.row(agent)) - expected_utility(
        profile[agent], truthful.row(agent)
    )
    results.append(gap > 0 and str(gap) == witness["gap"])
    results.append(UTILITARIAN.allocate(profile) == truthful)
    deviation = make_utility(witness["deviation"])
    results.append(
        UTILITARIAN.allocate(profile[:agent] + (deviation,) + profile[agent + 1 :])
        == deviated
    )

    ordinality = check_ordinality(UTILITARIAN, DEFAULT)
    results.append(not ordinality.passed)
    cell_a = make_profile(printed_witness(ordinality)["profile_a"])
    cell_b = make_profile(printed_witness(ordinality)["profile_b"])
    results.append(
        [ordinal_of(u) for u in cell_a] == [ordinal_of(u) for u in cell_b]
        and UTILITARIAN.allocate(cell_a) != UTILITARIAN.allocate(cell_b)
    )

    continuity = check_continuity_battery(UTILITARIAN, DEFAULT)
    results.append(not continuity.passed)

    results.append(not check_efficiency(UNIFORM, battery).passed)
    results.append(check_strategy_proofness(UNIFORM, DEFAULT).passed)
    results.append(check_non_bossiness(UNIFORM, DEFAULT).passed)
    results.append(check_ordinality(UNIFORM, DEFAULT).passed)
    results.append(check_continuity_battery(UNIFORM, DEFAULT).passed)

    elapsed = time.perf_counter() - started
    record(
        4,
        all(results) and elapsed < 600,
        f"default-grid axiom matrix (74088-profile deviation scans) in "
        f"{elapsed:.1f}s: rsd SP/NB/ord/cont pass; utilitarian eff pass, "
        f"SP/ord/cont fail with reverified witnesses; uniform all but eff",
    )


def test_criterion_5_metamorphic_theorem_1():
    config = CheckConfig(
        mu_grid=(F(1, 10), F(1, 2), F(9, 10)), samples_per_cell=2, seed=2024
    )
    family = built_in_family(2024)
    assert [rule.name for rule in family][:3] == ["rsd", "ps", "utilitarian"]
    assert len(family) == 12
    report = theorem_stress(family, config)
    consistent = True
    for rule in report.rules_tested:
        verdicts = report.verdicts[rule]
        if verdicts["ordinality"]["status"] == "Fail":
            consistent = consistent and any(
                verdicts[a]["status"] == "Fail"
                for a in ("efficiency", "strategy_proofness", "non_bossiness", "continuity")
            )
    record(
        5,
        report.metamorphic_violations == [] and consistent,
        f"12-rule family: metamorphic_violations empty; every non-ordinal "
        f"rule fails >=1 axiom",
    )


def test_criterion_6_lemma_suite():
    ok = True
    details = []
    for lemma_id, rule in (
        ("L1_effectively_same", RSD),
        ("L2_middle_bump", RSD),
        ("L4_top_or_bottom", RSD),
        ("L10_separating", None),
    ):
        for seed in (1, 2, 3):
            report = verify_lemma(lemma_id, rule, trials=500, seed=seed)
            ok = ok and report.failures == [] and report.sampled == 500
        details.append(lemma_id)
    # L10 additionally with rank-dependent members only
    rng = random.Random(606)
    rdu_trials = 0
    while rdu_trials < 500:
        order = rng.choice(all_orders(3))
        member = rdu_utility(
            order, random_utility_consistent(order, rng), rng.choice((2, 3))
        )
        p1, p2 = random_lottery(3, rng), random_lottery(3, rng)
        if sd_compare(p2, p1, order) in (SdVerdict.DOMINATES, SdVerdict.EQUAL):
            continue
        separating = separating_utility(member, p1, p2)
        ok = ok and ordinal_of(separating) == order
        ok = ok and expected_utility(separating, p1) > expected_utility(separating, p2)
        rdu_trials += 1
    record(
        6,
        ok,
        f"{', '.join(details)} x 500 trials x seeds 1-3: zero failures; "
        f"L10 with 500 rdu-member trials",
    )


def test_criterion_7_utilitarian_ordinality_witness():
    low = make_profile([["1", "1/10", "0"], ["1", "1/2", "0"], ["1", "9/10", "0"]])
    high = make_profile([["1", "9/10", "0"], ["1", "1/2", "0"], ["1", "1/10", "0"]])
    alloc_low = UTILITARIAN.allocate(low)
    alloc_high = UTILITARIAN.allocate(high)
    from alloclab import canonicalize

    oracle_low = min(
        perm_matrix_rows(p)
        for p in best_assignments(tuple(canonicalize(u) for u in low))
    )
    oracle_high = min(
        perm_matrix_rows(p)
        for p in best_assignments(tuple(canonicalize(u) for u in high))
    )
    record(
        7,
        alloc_low != alloc_high
        and alloc_low.rows[2][1] == 1
        and alloc_high.rows[0][1] == 1
        and alloc_low.rows == oracle_low
        and alloc_high.rows == oracle_high,
        "same ordinal cell, rates (1/10,1/2,9/10) vs (9/10,1/2,1/10): object b "
        "changes hands; both outputs match the 6-permutation oracle",
    )


def test_criterion_8_continuity_localization():
    agent, others, endpoints = default_continuity_paths()[0]
    verdict = check_ncc_continuity(UTILITARIAN, agent, others, endpoints, DEFAULT)
    assert not verdict.passed
    lo, hi = (F(x) for x in verdict.witness["interval"])
    gap = F(verdict.witness["gap"])
    rsd_verdict = check_ncc_continuity(RSD, agent, others, endpoints, DEFAULT)
    record(
        8,
        hi - lo < F(1, 10**9) and gap >= F(1, 2) and rsd_verdict.passed,
        f"utilitarian jump gap {gap} localized to width {hi - lo}; rsd passes "
        f"the same path",
    )


def test_criterion_9_exactness_scan():
    src = Path(alloclab.__file__).parent
    forbidden_markers = ("isclose", "approx", "atol", "rtol")
    e_notation = re.compile(r"\d[eE]-\d")
    float_call = re.compile(r"\bfloat\(")
    offenders = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        for marker in forbidden_markers:
            if marker in text:
                offenders.append(f"{path.name}: {marker}")
        if e_notation.search(text):
            offenders.append(f"{path.name}: e-notation literal")
        if float_call.search(text):
            offenders.append(f"{path.name}: float() call")
    config = CheckConfig()
    exact_thresholds = isinstance(config.continuity_gap_tau, F) and isinstance(
        config.continuity_interval_delta, F
    )
    record(
        9,
        not offenders and exact_thresholds,
        f"no approximate-equality tolerances in {len(list(src.glob('*.py')))} "
        f"source modules; continuity thresholds are exact rationals"
        + (f"; offenders: {offenders}" if offenders else ""),
    )
