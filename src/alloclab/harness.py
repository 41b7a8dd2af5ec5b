"""Lemma-level property generators, the ordinality metamorphic stress test,
and the extended-domain (beyond expected utility) check.

Lemmas are tested as black-box implications about a rule's input/output
behavior: sample instances that match the hypothesis pattern, then check the
stated conclusion exactly. A rule only qualifies for a lemma when it passes
the lemma's hypothesis axioms on the grid (see LEMMA_HYPOTHESES); the
samplers do not re-verify that.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .core import (
    BernoulliUtility,
    UtilityProfile,
    expected_utility,
    in_segment,
    support,
)
from .checkers import (
    CheckConfig,
    Verdict,
    allocation_json,
    check_continuity_battery,
    check_efficiency,
    check_non_bossiness,
    check_ordinality,
    check_strategy_proofness,
    default_efficiency_profiles,
    profile_json,
    utility_json,
)
from .ordinal import (
    OrdinalPreference,
    SdVerdict,
    all_orders,
    ordinal_of,
    random_lottery,
    random_rational,
    random_utility_consistent,
    rdu_utility,
    sd_compare,
    separating_utility,
    utility_from,
    v_from_bernoulli,
    validate_v_domain,
    VUtility,
)
from .rules import Rule


class NotOrdinalOnU(ValueError):
    """Extended-domain check requires a rule already ordinal on Bernoulli
    utilities."""


LEMMA_IDS = (
    "L1_effectively_same",
    "L2_middle_bump",
    "L3_identical_pair",
    "L4_top_or_bottom",
    "L5_positive_b",
    "L6_one_agent_invariance",
    "L7_same_order_pair",
    "L8_interior_ordinality",
    "L9_support_two",
    "L10_separating",
)

_ALL_FOUR = ("efficiency", "strategy_proofness", "non_bossiness", "continuity")

LEMMA_HYPOTHESES: dict[str, tuple[str, ...]] = {
    "L1_effectively_same": ("strategy_proofness", "non_bossiness", "continuity"),
    "L2_middle_bump": ("strategy_proofness",),
    "L3_identical_pair": ("efficiency", "continuity"),
    "L4_top_or_bottom": ("strategy_proofness",),
    "L5_positive_b": _ALL_FOUR,
    "L6_one_agent_invariance": _ALL_FOUR,
    "L7_same_order_pair": _ALL_FOUR,
    "L8_interior_ordinality": _ALL_FOUR,
    "L9_support_two": _ALL_FOUR,
    "L10_separating": (),
}

REJECTION_FACTOR = 50


def report_json(data: dict) -> str:
    """The byte-stable JSON form of every report: sorted keys, two-space
    indent."""
    return json.dumps(data, sort_keys=True, indent=2)


@dataclass
class LemmaReport:
    lemma_id: str
    rule: str | None
    trials: int
    failures: list[dict]
    seed: int
    sampled: int = 0
    hypothesis_unsatisfiable: bool = False

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "lemma_id": self.lemma_id,
            "rule": self.rule,
            "trials": self.trials,
            "sampled": self.sampled,
            "failures": self.failures,
            "seed": self.seed,
            "hypothesis_unsatisfiable": self.hypothesis_unsatisfiable,
        }

    def to_json(self) -> str:
        return report_json(self.to_dict())


def _random_order(rng: random.Random) -> OrdinalPreference:
    return rng.choice(all_orders(3))


def _random_affine(utility: BernoulliUtility, rng: random.Random) -> BernoulliUtility:
    """Random positive affine transform: same cone, same middle rate."""
    scale = Fraction(rng.randrange(1, 12), rng.randrange(1, 12))
    shift = Fraction(rng.randrange(-12, 13), rng.randrange(1, 12))
    return BernoulliUtility(tuple(scale * v + shift for v in utility.values))


def _random_member(order: OrdinalPreference, rng: random.Random) -> BernoulliUtility:
    """Random utility in the cone: canonical representative, then a random
    affine transform so samplers also exercise non-normalized inputs."""
    canonical = utility_from(order, random_rational(rng))
    if rng.randrange(2):
        return _random_affine(canonical, rng)
    return canonical


def _random_profile(rng: random.Random) -> UtilityProfile:
    return tuple(_random_member(_random_order(rng), rng) for _ in range(3))


def _own_segments(lottery, order: OrdinalPreference) -> bool:
    """Membership in [best, mid] union [mid, worst] of the agent's order."""
    best, mid, worst = order.ranking
    return in_segment(lottery, best, mid, "closed") or in_segment(
        lottery, mid, worst, "closed"
    )


def verify_lemma(
    lemma_id: str,
    rule: Rule | None,
    trials: int,
    seed: int,
) -> LemmaReport:
    """Sample `trials` instances matching the lemma's hypothesis pattern and
    check its conclusion exactly. Rejection sampling gives up after
    REJECTION_FACTOR * trials attempts and reports the shortfall."""
    if lemma_id not in LEMMA_IDS:
        raise ValueError(f"unknown lemma id: {lemma_id!r}")
    if lemma_id != "L10_separating" and rule is None:
        raise ValueError(f"{lemma_id} needs a rule")
    rng = random.Random(f"{seed}:{lemma_id}")
    report = LemmaReport(
        lemma_id=lemma_id,
        rule=rule.name if rule else None,
        trials=trials,
        failures=[],
        seed=seed,
    )
    checker = _LEMMA_CHECKERS[lemma_id]
    budget = REJECTION_FACTOR * trials
    attempts = 0
    while report.sampled < trials and attempts < budget:
        attempts += 1
        outcome = checker(rule, rng)
        if outcome is _REJECTED:
            continue
        report.sampled += 1
        if outcome is not None:
            report.failures.append(outcome)
    if report.sampled == 0:
        report.hypothesis_unsatisfiable = True
    return report


_REJECTED = object()


def _check_l1(rule: Rule, rng: random.Random):
    profile = _random_profile(rng)
    agent = rng.randrange(3)
    clone = _random_affine(profile[agent], rng)
    base = rule.allocate(profile)
    swapped = rule.allocate(
        profile[:agent] + (clone,) + profile[agent + 1 :]
    )
    if swapped != base:
        return {
            "profile": profile_json(profile),
            "agent": agent,
            "replacement": utility_json(clone),
            "allocation": allocation_json(base),
            "replaced_allocation": allocation_json(swapped),
        }
    return None


def _check_l2(rule: Rule, rng: random.Random):
    profile = _random_profile(rng)
    agent = rng.randrange(3)
    order = ordinal_of(profile[agent])
    base = rule.allocate(profile)
    if not _own_segments(base.row(agent), order):
        return _REJECTED
    from .ordinal import middle_rate

    mu = middle_rate(profile[agent])
    bump = mu + (Fraction(1) - mu) * random_rational(rng)
    raised = utility_from(order, bump)
    if rng.randrange(2):
        raised = _random_affine(raised, rng)
    deviated = rule.allocate(profile[:agent] + (raised,) + profile[agent + 1 :])
    if deviated.rows[agent] != base.rows[agent]:
        return {
            "profile": profile_json(profile),
            "agent": agent,
            "raised_mu_report": utility_json(raised),
            "share_before": [str(p) for p in base.rows[agent]],
            "share_after": [str(p) for p in deviated.rows[agent]],
        }
    return None


def _check_l3(rule: Rule, rng: random.Random):
    agents = rng.sample(range(3), 2)
    i, j = agents
    order = _random_order(rng)
    u_i = _random_member(order, rng)
    u_j = _random_affine(u_i, rng)
    parts: list[BernoulliUtility] = [None] * 3  # type: ignore[list-item]
    parts[i], parts[j] = u_i, u_j
    rest = next(k for k in range(3) if parts[k] is None)
    parts[rest] = _random_member(_random_order(rng), rng)
    profile = tuple(parts)
    alloc = rule.allocate(profile)
    mid = order.ranking[1]
    if alloc.rows[i][mid] + alloc.rows[j][mid] == 0:
        return _REJECTED
    if _own_segments(alloc.row(i), order) and _own_segments(alloc.row(j), order):
        return None
    return {
        "profile": profile_json(profile),
        "pair": [i, j],
        "allocation": allocation_json(alloc),
    }


def _check_l4(rule: Rule, rng: random.Random):
    profile = _random_profile(rng)
    agent = rng.randrange(3)
    order = ordinal_of(profile[agent])
    base = rule.allocate(profile)
    row = base.rows[agent]
    if row[order.best] != 1 and row[order.worst] != 1:
        return _REJECTED
    replacement = _random_member(order, rng)
    deviated = rule.allocate(profile[:agent] + (replacement,) + profile[agent + 1 :])
    if deviated.rows[agent] != row:
        return {
            "profile": profile_json(profile),
            "agent": agent,
            "replacement": utility_json(replacement),
            "share_before": [str(p) for p in row],
            "share_after": [str(p) for p in deviated.rows[agent]],
        }
    return None


def _same_order_pair_instance(rng: random.Random):
    i, j = rng.sample(range(3), 2)
    order = _random_order(rng)
    parts: list[BernoulliUtility] = [None] * 3  # type: ignore[list-item]
    parts[i] = _random_member(order, rng)
    parts[j] = _random_member(order, rng)
    rest = next(k for k in range(3) if parts[k] is None)
    parts[rest] = _random_member(_random_order(rng), rng)
    return i, j, order, tuple(parts)


def _check_l5(rule: Rule, rng: random.Random):
    i, j, order, profile = _same_order_pair_instance(rng)
    alloc = rule.allocate(profile)
    mid = order.ranking[1]
    if alloc.rows[i][mid] + alloc.rows[j][mid] == 0:
        return _REJECTED
    if _own_segments(alloc.row(i), order) and _own_segments(alloc.row(j), order):
        return None
    return {
        "profile": profile_json(profile),
        "pair": [i, j],
        "allocation": allocation_json(alloc),
    }


def _check_l6(rule: Rule, rng: random.Random):
    i, j, order, profile = _same_order_pair_instance(rng)
    alloc = rule.allocate(profile)
    mid = order.ranking[1]
    if alloc.rows[i][mid] + alloc.rows[j][mid] == 0:
        return _REJECTED
    replacement = _random_member(order, rng)
    swapped = rule.allocate(profile[:i] + (replacement,) + profile[i + 1 :])
    if swapped != alloc or not (
        _own_segments(alloc.row(i), order) and _own_segments(alloc.row(j), order)
    ):
        return {
            "profile": profile_json(profile),
            "pair": [i, j],
            "replacement": utility_json(replacement),
            "allocation": allocation_json(alloc),
            "replaced_allocation": allocation_json(swapped),
        }
    return None


def _check_l7(rule: Rule, rng: random.Random):
    i, j, order, profile = _same_order_pair_instance(rng)
    alloc = rule.allocate(profile)
    mid = order.ranking[1]
    if alloc.rows[i][mid] + alloc.rows[j][mid] == 0:
        return _REJECTED
    parts = list(profile)
    parts[i] = _random_member(order, rng)
    parts[j] = _random_member(order, rng)
    swapped = rule.allocate(tuple(parts))
    if swapped != alloc or not (
        _own_segments(alloc.row(i), order) and _own_segments(alloc.row(j), order)
    ):
        return {
            "profile": profile_json(profile),
            "pair": [i, j],
            "replacements": [utility_json(parts[i]), utility_json(parts[j])],
            "allocation": allocation_json(alloc),
            "replaced_allocation": allocation_json(swapped),
        }
    return None


def _check_l8(rule: Rule, rng: random.Random):
    profile = _random_profile(rng)
    alloc = rule.allocate(profile)
    if all(len(support(alloc.row(i))) < 3 for i in range(3)):
        return _REJECTED
    clones = tuple(_random_member(ordinal_of(u), rng) for u in profile)
    swapped = rule.allocate(clones)
    if swapped != alloc:
        return {
            "profile": profile_json(profile),
            "ordinal_twin": profile_json(clones),
            "allocation": allocation_json(alloc),
            "twin_allocation": allocation_json(swapped),
        }
    return None


def _check_l9(rule: Rule, rng: random.Random):
    profile = _random_profile(rng)
    agent = rng.randrange(3)
    alloc = rule.allocate(profile)
    if len(support(alloc.row(agent))) > 2:
        return _REJECTED
    replacement = _random_member(ordinal_of(profile[agent]), rng)
    swapped = rule.allocate(profile[:agent] + (replacement,) + profile[agent + 1 :])
    if swapped != alloc:
        return {
            "profile": profile_json(profile),
            "agent": agent,
            "replacement": utility_json(replacement),
            "allocation": allocation_json(alloc),
            "replaced_allocation": allocation_json(swapped),
        }
    return None


def _l10_member(rng: random.Random) -> VUtility:
    order = _random_order(rng)
    base = random_utility_consistent(order, rng)
    kind = rng.randrange(3)
    if kind == 0:
        return v_from_bernoulli(base)
    return rdu_utility(order, base, weight_exponent=kind + 1)


def _check_l10(rule: Rule | None, rng: random.Random):
    member = _l10_member(rng)
    p1 = random_lottery(3, rng)
    p2 = random_lottery(3, rng)
    if sd_compare(p2, p1, member.ordinal) in (SdVerdict.DOMINATES, SdVerdict.EQUAL):
        return _REJECTED
    try:
        separating = separating_utility(member, p1, p2)
    except ValueError as exc:
        return {
            "member": member.name,
            "p1": [str(p) for p in p1.probs],
            "p2": [str(p) for p in p2.probs],
            "error": str(exc),
        }
    if ordinal_of(separating) != member.ordinal or expected_utility(
        separating, p1
    ) <= expected_utility(separating, p2):
        return {
            "member": member.name,
            "p1": [str(p) for p in p1.probs],
            "p2": [str(p) for p in p2.probs],
            "separating": utility_json(separating),
        }
    return None


_LEMMA_CHECKERS = {
    "L1_effectively_same": _check_l1,
    "L2_middle_bump": _check_l2,
    "L3_identical_pair": _check_l3,
    "L4_top_or_bottom": _check_l4,
    "L5_positive_b": _check_l5,
    "L6_one_agent_invariance": _check_l6,
    "L7_same_order_pair": _check_l7,
    "L8_interior_ordinality": _check_l8,
    "L9_support_two": _check_l9,
    "L10_separating": _check_l10,
}

AXIOM_NAMES = ("efficiency", "strategy_proofness", "non_bossiness", "continuity")


@dataclass
class StressReport:
    rules_tested: list[str]
    verdicts: dict[str, dict[str, dict]]
    metamorphic_violations: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "rules_tested": self.rules_tested,
            "verdicts": self.verdicts,
            "metamorphic_violations": self.metamorphic_violations,
        }

    def to_json(self) -> str:
        return report_json(self.to_dict())

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["rule", "axiom", "status"])
        for rule in self.rules_tested:
            for axiom, verdict in self.verdicts[rule].items():
                writer.writerow([rule, axiom, verdict["status"]])
        return buffer.getvalue()


def theorem_stress(rule_family: list[Rule], config: CheckConfig) -> StressReport:
    """Run the four axiom checkers plus ordinality on every rule and flag any
    rule that passes all four while failing ordinality. At three agents the
    flag list must stay empty."""
    report = StressReport(rules_tested=[], verdicts={})
    efficiency_battery = default_efficiency_profiles(config)
    for rule in rule_family:
        verdicts: dict[str, Verdict] = {
            "ordinality": check_ordinality(rule, config),
            "efficiency": check_efficiency(rule, efficiency_battery),
            "strategy_proofness": check_strategy_proofness(rule, config),
            "non_bossiness": check_non_bossiness(rule, config),
            "continuity": check_continuity_battery(rule, config),
        }
        report.rules_tested.append(rule.name)
        report.verdicts[rule.name] = {
            name: verdict.to_dict() for name, verdict in verdicts.items()
        }
        axioms_pass = all(verdicts[name].passed for name in AXIOM_NAMES)
        if axioms_pass and not verdicts["ordinality"].passed:
            report.metamorphic_violations.append(rule.name)
    return report


def default_v_profiles(seed: int, count: int = 4) -> list[tuple[VUtility, ...]]:
    """Profiles of extended-domain members built from rank-dependent
    evaluators (with an occasional plain expected-utility member)."""
    rng = random.Random(f"{seed}:v-profiles")
    profiles = []
    for _ in range(count):
        members = []
        for agent in range(3):
            order = _random_order(rng)
            base = random_utility_consistent(order, rng)
            if rng.randrange(4) == 0:
                members.append(v_from_bernoulli(base))
            else:
                members.append(rdu_utility(order, base, rng.choice((2, 3))))
        profiles.append(tuple(members))
    return profiles


def theorem2_check(
    rule: Rule, v_profiles: list[tuple[VUtility, ...]], config: CheckConfig
) -> Verdict:
    """Extended-domain ordinality: on each profile of V-members the rule's
    output through expected-utility representatives must depend only on the
    ordinal cell, and the separating construction must hold on the members.

    Raises NotOrdinalOnU when the rule is not ordinal on Bernoulli profiles.
    """
    ordinal_verdict = check_ordinality(rule, config)
    if not ordinal_verdict.passed:
        raise NotOrdinalOnU(
            f"rule {rule.name} is not ordinal on Bernoulli utilities: "
            f"{ordinal_verdict.witness}"
        )
    rng = random.Random(f"{config.seed}:theorem2")
    validation = validate_v_domain(
        [member for profile in v_profiles for member in profile],
        sample_count=25,
        seed=config.seed,
    )
    if not validation.all_passed:
        raise ValueError(f"v_profiles fail the domain conditions: {validation.to_dict()}")

    checked_cells = 0
    lemma_trials = 0
    for profile in v_profiles:
        orders = tuple(member.ordinal for member in profile)
        canonical = tuple(utility_from(order, Fraction(1, 2)) for order in orders)
        reference = rule.allocate(canonical)
        checked_cells += 1
        for _ in range(max(2, config.samples_per_cell)):
            twin = tuple(
                utility_from(order, random_rational(rng)) for order in orders
            )
            alloc = rule.allocate(twin)
            if alloc != reference:
                return Verdict(
                    status="Fail",
                    witness={
                        "cell": [str(order) for order in orders],
                        "profile_a": profile_json(canonical),
                        "profile_b": profile_json(twin),
                        "allocation_a": allocation_json(reference),
                        "allocation_b": allocation_json(alloc),
                    },
                    coverage=f"v_profiles={len(v_profiles)}",
                )
        for member in profile:
            for _ in range(4):
                p1 = random_lottery(3, rng)
                p2 = random_lottery(3, rng)
                if sd_compare(p2, p1, member.ordinal) in (
                    SdVerdict.DOMINATES,
                    SdVerdict.EQUAL,
                ):
                    continue
                lemma_trials += 1
                separating = separating_utility(member, p1, p2)
                if ordinal_of(separating) != member.ordinal:
                    return Verdict(
                        status="Fail",
                        witness={
                            "member": member.name,
                            "p1": [str(p) for p in p1.probs],
                            "p2": [str(p) for p in p2.probs],
                        },
                        coverage=f"v_profiles={len(v_profiles)}",
                    )
    return Verdict(
        status="Pass",
        witness=None,
        coverage=(
            f"v_profiles={len(v_profiles)}; cells={checked_cells}; "
            f"separating_trials={lemma_trials}; seed={config.seed}"
        ),
    )


def exploration_stress(
    rule_family: list[Rule], n: int, config: CheckConfig, probes: int = 40
) -> dict:
    """Record-only exploration for economies larger than three agents.

    Samples random profiles and records ordinality twins and deviation
    outcomes. Nothing here asserts; the open question stays open.
    """
    if n <= 3:
        raise ValueError("exploration mode is for n > 3")
    rng = random.Random(f"{config.seed}:explore:{n}")
    orders = all_orders(n)
    record: dict = {"n": n, "exploration": True, "rules": {}}
    for rule in rule_family:
        twin_diffs = 0
        deviation_gains = 0
        for _ in range(probes):
            profile_orders = tuple(rng.choice(orders) for _ in range(n))
            profile = tuple(
                random_utility_consistent(order, rng) for order in profile_orders
            )
            twin = tuple(
                random_utility_consistent(order, rng) for order in profile_orders
            )
            base = rule.allocate(profile)
            if rule.allocate(twin) != base:
                twin_diffs += 1
            agent = rng.randrange(n)
            deviated_profile = (
                profile[:agent]
                + (random_utility_consistent(rng.choice(orders), rng),)
                + profile[agent + 1 :]
            )
            deviated = rule.allocate(deviated_profile)
            truth_eu = expected_utility(profile[agent], base.row(agent))
            if expected_utility(profile[agent], deviated.row(agent)) > truth_eu:
                deviation_gains += 1
        record["rules"][rule.name] = {
            "probes": probes,
            "ordinal_twin_differences": twin_diffs,
            "profitable_deviations_observed": deviation_gains,
        }
    return record
