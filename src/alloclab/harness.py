"""Lemma-level property generators, the ordinality metamorphic stress test,
and the extended-domain (beyond expected utility) check.

Lemmas are tested as black-box implications about a rule's input/output
behavior: sample instances that match the hypothesis pattern, then check the
stated conclusion exactly. A rule only qualifies for a lemma when it passes
the lemma's hypothesis axioms on the grid (see LEMMA_HYPOTHESES); the
samplers do not re-verify that. Two skeletons draw, reject, perturb and judge
the instances: the one-agent sampler (L1, L2, L4, L9) replaces one agent's
utility and compares the whole allocation or that agent's share; the
same-order-pair sampler (L3, L5-L7) draws two agents of one order, checks
their segments and replaces 0, 1 or 2 of them. L8 has its own sampler, and
L10 is the separation check that theorem2_check also runs. The reports here
are values; the CLI alone turns them into report bytes.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .core import (
    BernoulliUtility,
    Fields,
    Lottery,
    UtilityProfile,
    expected_utility,
    support,
)
from .checkers import (
    CheckConfig,
    Verdict,
    cell_twin_witness,
    check_continuity_battery,
    check_efficiency,
    check_non_bossiness,
    check_ordinality,
    check_strategy_proofness,
    default_efficiency_profiles,
    encoded,
    require_ordinal,
)
from .ordinal import (
    OrdinalPreference,
    SdVerdict,
    all_orders,
    middle_rate,
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

# Random profiles per rule in the record-only exploration for n > 3.
EXPLORATION_PROBES = 40

# A lemma report keeps the first MAX_WITNESSES failure witnesses, so its
# memory and output stay bounded for any --trials.
MAX_WITNESSES = 100


class LemmaReport(Fields):
    __slots__ = ("lemma_id", "rule", "trials", "failures", "seed", "sampled",
                 "hypothesis_unsatisfiable", "failures_total")

    def __init__(self, lemma_id: str, rule: str | None, trials: int, failures: list[dict],
                 seed: int, sampled: int = 0, hypothesis_unsatisfiable: bool = False,
                 failures_total: int = 0):
        self._set(lemma_id, rule, trials, failures, seed, sampled,
                  hypothesis_unsatisfiable, failures_total)

    @property
    def passed(self) -> bool:
        return not self.failures


def _random_order(rng: random.Random) -> OrdinalPreference:
    return rng.choice(all_orders(3))


def _random_affine(utility: BernoulliUtility, rng: random.Random) -> BernoulliUtility:
    """Random positive affine transform: same cone, same middle rate, same
    ranking. With scale a/b and shift c/d, value n/den becomes
    (a*d*n + c*b*den) / (den*b*d)."""
    a, b = rng.randrange(1, 12), rng.randrange(1, 12)
    c, d = rng.randrange(-12, 13), rng.randrange(1, 12)
    den = utility.den
    return BernoulliUtility._trusted(
        den * b * d, tuple([a * d * n + c * b * den for n in utility.nums]), utility._ordinal
    )


def _random_member(
    order: OrdinalPreference, rng: random.Random, floor: Fraction | int = 0
) -> BernoulliUtility:
    """Random utility in the cone whose middle rate exceeds `floor`: canonical
    representative, then a random affine transform so samplers also exercise
    non-normalized inputs."""
    mu = random_rational(rng)
    if floor:
        mu = floor + (1 - floor) * mu
    canonical = utility_from(order, mu)
    if rng.randrange(2):
        return _random_affine(canonical, rng)
    return canonical


def _random_profile(rng: random.Random) -> UtilityProfile:
    return tuple(_random_member(_random_order(rng), rng) for _ in range(3))


def _own_segments(share: Lottery, order: OrdinalPreference) -> bool:
    """Membership in [best, mid] union [mid, worst] of the agent's order."""
    best, mid, worst = order.ranking
    nums, den = share.nums, share.den
    return nums[best] + nums[mid] == den or nums[mid] + nums[worst] == den


def verify_lemma(
    lemma_id: str,
    rule: Rule | None,
    trials: int,
    seed: int,
) -> LemmaReport:
    """Sample `trials` instances matching the lemma's hypothesis pattern and
    check its conclusion exactly. Rejection sampling gives up after
    REJECTION_FACTOR * trials attempts and reports the shortfall, or after
    the first REJECTION_FACTOR attempts if none of them met the hypothesis:
    then `hypothesis_unsatisfiable` is set, meaning no instance was found in
    those attempts, not that none exists. The report keeps the first
    MAX_WITNESSES failure witnesses and counts them all."""
    if lemma_id not in LEMMA_IDS:
        raise ValueError(f"unknown lemma id: {lemma_id!r}")
    if lemma_id != "L10_separating" and rule is None:
        raise ValueError(f"{lemma_id} needs a rule")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
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
        if attempts == REJECTION_FACTOR and not report.sampled:
            break
        attempts += 1
        outcome = checker(rule, rng)
        if outcome is _REJECTED:
            continue
        report.sampled += 1
        if outcome is not None:
            report.failures_total += 1
            if len(report.failures) < MAX_WITNESSES:
                report.failures.append(outcome)
    if report.sampled == 0:
        report.hypothesis_unsatisfiable = True
    return report


_REJECTED = object()


def _affine_twin(utility: BernoulliUtility, order: OrdinalPreference, rng: random.Random):
    return _random_affine(utility, rng)


def _higher_middle(utility: BernoulliUtility, order: OrdinalPreference, rng: random.Random):
    return _random_member(order, rng, middle_rate(utility))


def _fresh_member(utility: BernoulliUtility, order: OrdinalPreference, rng: random.Random):
    return _random_member(order, rng)


def _top_or_bottom(share: Lottery, order: OrdinalPreference) -> bool:
    return share.den in (share.nums[order.best], share.nums[order.worst])


def _support_two(share: Lottery, order: OrdinalPreference) -> bool:
    return len(support(share)) <= 2


def _one_agent_check(hypothesis, perturb, whole: bool, key: str = "replacement"):
    """Sampler for L1, L2, L4 and L9. Draw a profile and an agent; reject
    unless `hypothesis(share, order)` holds for the agent's share (None: no
    hypothesis); replace the agent's utility by `perturb(utility, order,
    rng)`; then the whole allocation (`whole`) or only the agent's share must
    stay the same. The witness names the replacement `key`."""

    def check(rule: Rule, rng: random.Random):
        profile = _random_profile(rng)
        agent = rng.randrange(3)
        order = ordinal_of(profile[agent])
        base = rule.allocate(profile)
        if hypothesis and not hypothesis(base.row(agent), order):
            return _REJECTED
        replacement = perturb(profile[agent], order, rng)
        after = rule.allocate(profile[:agent] + (replacement,) + profile[agent + 1 :])
        if (after == base) if whole else (after.row(agent) == base.row(agent)):
            return None
        witness = {"profile": profile, "agent": agent, key: replacement}
        if whole:
            witness["allocation"] = base
            witness["replaced_allocation"] = after
        else:
            witness["share_before"] = base.row(agent).probs
            witness["share_after"] = after.row(agent).probs
        return witness

    return check


def _same_order_pair_check(draw_j, replaced: int):
    """Sampler for L3 and L5-L7. Agents i and j share an order, u_j is
    `draw_j(u_i, order, rng)`, and the instance is rejected unless i or j gets
    some of the middle object. Both must then receive lotteries on their own
    segments, and replacing the first `replaced` of (i, j) by fresh members of
    the order must leave the allocation the same."""

    def check(rule: Rule, rng: random.Random):
        i, j = rng.sample(range(3), 2)
        order = _random_order(rng)
        parts: list[BernoulliUtility] = [None] * 3  # type: ignore[list-item]
        parts[i] = _random_member(order, rng)
        parts[j] = draw_j(parts[i], order, rng)
        parts[3 - i - j] = _random_member(_random_order(rng), rng)
        profile = tuple(parts)
        alloc = rule.allocate(profile)
        mid = order.ranking[1]
        if alloc.row(i).nums[mid] + alloc.row(j).nums[mid] == 0:
            return _REJECTED
        holds = _own_segments(alloc.row(i), order) and _own_segments(alloc.row(j), order)
        if replaced:
            replacements = [_random_member(order, rng) for _ in range(replaced)]
            for agent, utility in zip((i, j), replacements):
                parts[agent] = utility
            swapped = rule.allocate(tuple(parts))
            holds = holds and swapped == alloc
        if holds:
            return None
        witness = {"profile": profile, "pair": [i, j], "allocation": alloc}
        if replaced:
            witness["replaced_allocation"] = swapped
        if replaced == 1:
            witness["replacement"] = replacements[0]
        elif replaced == 2:
            witness["replacements"] = replacements
        return witness

    return check


def _check_l8(rule: Rule, rng: random.Random):
    profile = _random_profile(rng)
    alloc = rule.allocate(profile)
    if all(len(support(alloc.row(i))) < 3 for i in range(3)):
        return _REJECTED
    clones = tuple(_random_member(ordinal_of(u), rng) for u in profile)
    swapped = rule.allocate(clones)
    if swapped != alloc:
        return {
            "profile": profile,
            "ordinal_twin": clones,
            "allocation": alloc,
            "twin_allocation": swapped,
        }
    return None


def _l10_member(rng: random.Random) -> VUtility:
    order = _random_order(rng)
    base = random_utility_consistent(order, rng)
    kind = rng.randrange(3)
    if kind == 0:
        return v_from_bernoulli(base)
    return rdu_utility(order, base, weight_exponent=kind + 1)


def _separation_check(member: VUtility, rng: random.Random):
    """Draw lotteries p1, p2 with p2 not weakly stochastically dominating p1
    for the member's order (otherwise rejected), and require the separating
    utility to share that order and rank p1 strictly above p2."""
    p1 = random_lottery(3, rng)
    p2 = random_lottery(3, rng)
    if sd_compare(p2, p1, member.ordinal) in (SdVerdict.DOMINATES, SdVerdict.EQUAL):
        return _REJECTED
    try:
        separating = separating_utility(member, p1, p2)
    except ValueError as exc:
        failure = {"error": str(exc)}
    else:
        if ordinal_of(separating) == member.ordinal and expected_utility(
            separating, p1
        ) > expected_utility(separating, p2):
            return None
        failure = {"separating": separating}
    return {"member": member.name, "p1": p1, "p2": p2, **failure}


_LEMMA_CHECKERS = {
    "L1_effectively_same": _one_agent_check(None, _affine_twin, whole=True),
    "L2_middle_bump": _one_agent_check(
        _own_segments, _higher_middle, whole=False, key="raised_mu_report"
    ),
    "L3_identical_pair": _same_order_pair_check(_affine_twin, replaced=0),
    "L4_top_or_bottom": _one_agent_check(_top_or_bottom, _fresh_member, whole=False),
    "L5_positive_b": _same_order_pair_check(_fresh_member, replaced=0),
    "L6_one_agent_invariance": _same_order_pair_check(_fresh_member, replaced=1),
    "L7_same_order_pair": _same_order_pair_check(_fresh_member, replaced=2),
    "L8_interior_ordinality": _check_l8,
    "L9_support_two": _one_agent_check(_support_two, _fresh_member, whole=True),
    "L10_separating": lambda rule, rng: _separation_check(_l10_member(rng), rng),
}

LEMMA_IDS = tuple(_LEMMA_CHECKERS)


class StressReport(Fields):
    __slots__ = ("rules_tested", "verdicts", "metamorphic_violations")

    def __init__(self, rules_tested: list[str], verdicts: dict[str, dict[str, dict]],
                 metamorphic_violations: tuple[str, ...] | list[str] = ()):
        self._set(rules_tested, verdicts, list(metamorphic_violations))


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
        axioms_pass = all(verdicts[name].passed for name in _ALL_FOUR)
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
    if not v_profiles:
        raise ValueError("theorem2 needs at least one V-profile")
    require_ordinal(rule, config, NotOrdinalOnU, "is not ordinal on Bernoulli utilities")
    rng = random.Random(f"{config.seed}:theorem2")
    failures = validate_v_domain(
        [member for profile in v_profiles for member in profile],
        sample_count=25,
        seed=config.seed,
    )
    if failures:
        raise ValueError(f"v_profiles fail the domain conditions: {encoded(failures)}")

    coverage = f"v_profiles={len(v_profiles)}"
    separating_trials = 0
    for profile in v_profiles:
        orders = tuple(member.ordinal for member in profile)
        twins = [tuple(utility_from(order, Fraction(1, 2)) for order in orders)]
        for _ in range(max(2, config.samples_per_cell)):
            twins.append(tuple(utility_from(order, random_rational(rng)) for order in orders))
        witness = cell_twin_witness(orders, twins, map(rule.allocate, twins))
        if witness is not None:
            return Verdict(witness, coverage)
        for member in profile:
            for _ in range(4):
                outcome = _separation_check(member, rng)
                if outcome is _REJECTED:
                    continue
                separating_trials += 1
                if outcome is not None:
                    return Verdict(outcome, coverage)
    return Verdict(
        None,
        f"{coverage}; cells={len(v_profiles)}; "
        f"separating_trials={separating_trials}; seed={config.seed}",
    )


def exploration_stress(rule_family: list[Rule], n: int, config: CheckConfig) -> dict:
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
        for _ in range(EXPLORATION_PROBES):
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
            "probes": EXPLORATION_PROBES,
            "ordinal_twin_differences": twin_diffs,
            "profitable_deviations_observed": deviation_gains,
        }
    return record
