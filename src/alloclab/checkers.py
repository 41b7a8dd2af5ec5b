"""Executable axioms: efficiency, strategy-proofness (expected-utility and
stochastic-dominance flavors), non-bossiness, ordinality, and normalized-cone
continuity.

Checkers quantify over a declared finite grid plus seeded random samples and
say so in their coverage string. A Pass means no violation was found on the
declared grid, never a proof; a Fail carries an exact witness that
re-verifies from the value types alone. Scans run in canonical cell order
and stop at the first failure, so verdicts are reproducible; a Fail's
coverage says how far its scan got.

The strategy-proofness and non-bossiness scans walk deviation blocks: one
agent, fixed reports of the other two, and every grid cell for the agent.
For a rule that reads only rankings (`Rule.reads_only_rankings`), all
blocks with the same agent and the same orders of the others hold the same
allocations, so they share one verdict. Such a rule is scanned one block
per class, the class's first block in canonical order (both others at the
first grid rate). The full sweep's first failing block is the first block
of the first failing class, so a Fail's witness and its `scanned_blocks=k`
(k is the canonical block index) are the full sweep's, and a Pass reports
the same coverage.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .core import (
    ONE,
    ZERO,
    Allocation,
    BernoulliUtility,
    UtilityProfile,
    allocation_distance,
    expected_utility,
)
from .lp import find_dominating
from .ordinal import (
    NormalizedUtility,
    OrdinalPreference,
    SdVerdict,
    all_orders,
    ordinal_of,
    random_rational,
    sd_compare,
    utility_from,
)
from .rules import Rule


class NotOrdinal(ValueError):
    """The rule varies within an ordinal cone, so the test is meaningless."""


class EndpointsInDifferentCones(ValueError):
    """Continuity paths must stay inside one ordinal cone."""


DEFAULT_MU_GRID = (
    Fraction(1, 10),
    Fraction(1, 4),
    Fraction(2, 5),
    Fraction(1, 2),
    Fraction(3, 5),
    Fraction(3, 4),
    Fraction(9, 10),
)


@dataclass(frozen=True)
class CheckConfig:
    """Declared quantification grid and continuity thresholds."""

    mu_grid: tuple[Fraction, ...] = DEFAULT_MU_GRID
    samples_per_cell: int = 2
    seed: int = 0
    continuity_gap_tau: Fraction = Fraction(1, 10**6)
    continuity_interval_delta: Fraction = Fraction(1, 10**9)

    def __post_init__(self) -> None:
        for mu in self.mu_grid:
            if not ZERO < mu < ONE:
                raise ValueError(f"grid value {mu} outside (0, 1)")
        if self.continuity_gap_tau <= 0 or self.continuity_interval_delta <= 0:
            raise ValueError("continuity thresholds must be positive")
        if self.samples_per_cell < 0:
            raise ValueError(
                f"samples per cell must be 0 or more, got {self.samples_per_cell}"
            )


@dataclass
class Verdict:
    status: str  # "Pass" or "Fail"
    witness: dict | None
    coverage: str

    @property
    def passed(self) -> bool:
        return self.status == "Pass"

    def to_dict(self) -> dict:
        data = {"status": self.status, "coverage": self.coverage}
        if self.witness is not None:
            data["witness"] = self.witness
        return data


def profile_json(profile: UtilityProfile) -> list[list[str]]:
    return [[str(v) for v in u.values] for u in profile]


def utility_json(utility: BernoulliUtility) -> list[str]:
    return [str(v) for v in utility.values]


def allocation_json(alloc: Allocation) -> list[list[str]]:
    return [[str(p) for p in row] for row in alloc.rows]


def grid_cells(config: CheckConfig) -> tuple[NormalizedUtility, ...]:
    """Canonical single-agent report grid: all orders times all grid rates."""
    return tuple(
        utility_from(order, mu) for order in all_orders(3) for mu in config.mu_grid
    )


def _profile_with(
    others: tuple[BernoulliUtility, ...], agent: int, utility: BernoulliUtility
) -> UtilityProfile:
    return others[:agent] + (utility,) + others[agent:]


def _grid_description(config: CheckConfig, cells: int) -> str:
    """Coverage of a deviation scan: every cell as truth and as deviation."""
    return (
        f"grid: 6 orders x {len(config.mu_grid)} mu per agent; "
        f"cells_per_agent={cells}; profiles={cells**3}; deviations_per_agent={cells}"
    )


def _stopped(coverage: str, scanned: int, total: int, unit: str) -> str:
    """A Fail's coverage: the declared sweep plus how far the scan got
    before it stopped at the failure."""
    return f"{coverage}; scanned_{unit}={scanned} of {total}"


def _deviation_blocks(
    rule: Rule, cells: Sequence[BernoulliUtility], rates: int
) -> Iterator[tuple[int, int, tuple]]:
    """(canonical block index from 1, agent, fixed reports of the others), in
    canonical order. For a rule that reads only rankings, every block of one
    class (agent, orders of the others) has the same allocations, so only
    the class's first block is yielded: the one with both others at the
    first grid rate."""
    count = len(cells)
    step = rates if rule.reads_only_rankings else 1
    for agent in range(3):
        for i in range(0, count, step):
            for j in range(0, count, step):
                yield (agent * count + i) * count + j + 1, agent, (cells[i], cells[j])


def check_efficiency(rule: Rule, profiles: Sequence[UtilityProfile]) -> Verdict:
    """Pass iff no profile in the list yields a dominated allocation."""
    if not profiles:
        raise ValueError("efficiency check needs at least one profile")
    coverage = f"profiles={len(profiles)}"
    for scanned, profile in enumerate(profiles, start=1):
        alloc = rule.allocate(profile)
        better = find_dominating(profile, alloc)
        if better is not None:
            gains = [
                str(
                    expected_utility(u, better.row(i))
                    - expected_utility(u, alloc.row(i))
                )
                for i, u in enumerate(profile)
            ]
            return Verdict(
                status="Fail",
                witness={
                    "profile": profile_json(profile),
                    "allocation": allocation_json(alloc),
                    "dominating": allocation_json(better),
                    "per_agent_gains": gains,
                },
                coverage=_stopped(coverage, scanned, len(profiles), "profiles"),
            )
    return Verdict(status="Pass", witness=None, coverage=coverage)


def check_strategy_proofness(rule: Rule, config: CheckConfig) -> Verdict:
    """Exact weak-inequality test over every grid profile, agent, and
    single-agent grid deviation."""
    cells = grid_cells(config)
    coverage = _grid_description(config, len(cells))
    blocks = 3 * len(cells) ** 2
    for scanned, agent, others in _deviation_blocks(rule, cells, len(config.mu_grid)):
        allocations = [
            rule.allocate(_profile_with(others, agent, cell)) for cell in cells
        ]
        rows = [alloc.rows[agent] for alloc in allocations]
        # Deduplicate the agent's rows: first by identity (memoized rules
        # return shared objects, and the block keeps them alive), then by
        # value so rules that rebuild equal allocations still collapse.
        seen_id: dict[int, int] = {}
        seen_value: dict[tuple[Fraction, ...], int] = {}
        distinct: list[tuple[Fraction, ...]] = []
        index_of: list[int] = []
        for row in rows:
            key = seen_id.get(id(row))
            if key is None:
                key = seen_value.setdefault(row, len(distinct))
                if key == len(distinct):
                    distinct.append(row)
                seen_id[id(row)] = key
            index_of.append(key)
        for t, truth in enumerate(cells):
            values = truth.values
            eus = []
            for row in distinct:
                eu = ZERO
                for v, p in zip(values, row):
                    if p:
                        eu += v * p
                eus.append(eu)
            eu_true = eus[index_of[t]]
            if max(eus) <= eu_true:
                continue
            for d, key in enumerate(index_of):
                if eus[key] > eu_true:
                    return Verdict(
                        status="Fail",
                        witness={
                            "profile": profile_json(_profile_with(others, agent, truth)),
                            "agent": agent,
                            "deviation": utility_json(cells[d]),
                            "truthful_allocation": allocation_json(allocations[t]),
                            "deviated_allocation": allocation_json(allocations[d]),
                            "gap": str(eus[key] - eu_true),
                        },
                        coverage=_stopped(coverage, scanned, blocks, "blocks"),
                    )
    return Verdict(status="Pass", witness=None, coverage=coverage)


def check_non_bossiness(rule: Rule, config: CheckConfig) -> Verdict:
    """Whenever a deviation leaves the deviator's own row unchanged, the full
    matrix must be unchanged."""
    cells = grid_cells(config)
    coverage = _grid_description(config, len(cells))
    blocks = 3 * len(cells) ** 2
    for scanned, agent, others in _deviation_blocks(rule, cells, len(config.mu_grid)):
        allocations = [
            rule.allocate(_profile_with(others, agent, cell)) for cell in cells
        ]
        first_with_row: dict[tuple, int] = {}
        for d, alloc in enumerate(allocations):
            row = alloc.rows[agent]
            t = first_with_row.setdefault(row, d)
            if t != d and allocations[t] is not alloc and allocations[t] != alloc:
                return Verdict(
                    status="Fail",
                    witness={
                        "profile": profile_json(_profile_with(others, agent, cells[t])),
                        "agent": agent,
                        "deviation": utility_json(cells[d]),
                        "own_row": [str(p) for p in row],
                        "allocation": allocation_json(allocations[t]),
                        "deviated_allocation": allocation_json(alloc),
                    },
                    coverage=_stopped(coverage, scanned, blocks, "blocks"),
                )
    return Verdict(status="Pass", witness=None, coverage=coverage)


def cell_twin_witness(
    rule: Rule, orders: tuple[OrdinalPreference, ...], profiles: list[UtilityProfile]
) -> dict | None:
    """The witness that `rule` gives some profile of the ordinal cell
    `orders` another allocation than the reference `profiles[0]`, or None."""
    reference = rule.allocate(profiles[0])
    for profile in profiles[1:]:
        alloc = rule.allocate(profile)
        if alloc != reference:
            return {
                "cell": [str(order) for order in orders],
                "profile_a": profile_json(profiles[0]),
                "profile_b": profile_json(profile),
                "allocation_a": allocation_json(reference),
                "allocation_b": allocation_json(alloc),
            }
    return None


def check_ordinality(rule: Rule, config: CheckConfig) -> Verdict:
    """Bit-identical output inside every ordinal cell, over grid rates plus
    seeded random rates."""
    mu_grid = config.mu_grid
    coverage = (
        f"cells=216; per_cell={len(mu_grid)**3}+{config.samples_per_cell} random; "
        f"seed={config.seed}"
    )
    cells = itertools.product(all_orders(3), repeat=3)
    for index, orders in enumerate(cells):
        rng = random.Random(f"{config.seed}:cell:{index}")
        profiles = [
            tuple(utility_from(order, mu) for order, mu in zip(orders, mus))
            for mus in itertools.product(mu_grid, repeat=3)
        ]
        for _ in range(config.samples_per_cell):
            profiles.append(
                tuple(utility_from(order, random_rational(rng)) for order in orders)
            )
        witness = cell_twin_witness(rule, orders, profiles)
        if witness is not None:
            return Verdict(
                status="Fail",
                witness=witness,
                coverage=_stopped(coverage, index + 1, 216, "cells"),
            )
    return Verdict(status="Pass", witness=None, coverage=coverage)


def check_sd_strategy_proofness(rule: Rule, config: CheckConfig) -> Verdict:
    """For ordinal rules: the truthful share must weakly stochastically
    dominate every single-agent ordinal deviation's share.

    Raises NotOrdinal when the rule varies within a cone on the grid, since
    the finite test only makes sense for ordinal rules.
    """
    ordinal_verdict = check_ordinality(rule, config)
    if not ordinal_verdict.passed:
        raise NotOrdinal(
            f"rule {rule.name} varies within an ordinal cone: "
            f"{ordinal_verdict.witness}"
        )
    orders = all_orders(3)
    mid = Fraction(1, 2)
    for truth_orders in itertools.product(orders, repeat=3):
        profile = tuple(utility_from(order, mid) for order in truth_orders)
        truthful = rule.allocate(profile)
        for agent in range(3):
            for deviation in orders:
                if deviation == truth_orders[agent]:
                    continue
                deviated = rule.allocate(
                    _profile_with(
                        profile[:agent] + profile[agent + 1 :],
                        agent,
                        utility_from(deviation, mid),
                    )
                )
                verdict = sd_compare(
                    truthful.row(agent), deviated.row(agent), truth_orders[agent]
                )
                if verdict not in (SdVerdict.DOMINATES, SdVerdict.EQUAL):
                    return Verdict(
                        status="Fail",
                        witness={
                            "cell": [str(o) for o in truth_orders],
                            "agent": agent,
                            "deviation_order": str(deviation),
                            "truthful_share": [str(p) for p in truthful.rows[agent]],
                            "deviated_share": [str(p) for p in deviated.rows[agent]],
                            "sd_verdict": verdict.value,
                        },
                        coverage="cells=216; ordinal deviations=6 per agent",
                    )
    return Verdict(
        status="Pass",
        witness=None,
        coverage="cells=216; ordinal deviations=6 per agent",
    )


def check_ncc_continuity(
    rule: Rule,
    agent: int,
    others: tuple[BernoulliUtility, ...],
    endpoints: tuple[NormalizedUtility, NormalizedUtility],
    config: CheckConfig,
) -> Verdict:
    """Probe the convex utility path between two same-cone endpoints for the
    moving agent by recursive bisection.

    Pass iff every interval localized below the width threshold has an
    allocation gap below tau; Fail pins a jump of at least tau inside an
    interval narrower than delta.
    """
    end0, end1 = endpoints
    if ordinal_of(end0) != ordinal_of(end1):
        raise EndpointsInDifferentCones(
            f"{ordinal_of(end0)} versus {ordinal_of(end1)}"
        )
    tau = config.continuity_gap_tau
    delta = config.continuity_interval_delta
    cache: dict[Fraction, Allocation] = {}

    def alloc_at(alpha: Fraction) -> Allocation:
        alloc = cache.get(alpha)
        if alloc is None:
            moving = BernoulliUtility(
                tuple(
                    alpha * v1 + (ONE - alpha) * v0
                    for v0, v1 in zip(end0.values, end1.values)
                )
            )
            alloc = rule.allocate(_profile_with(others, agent, moving))
            cache[alpha] = alloc
        return alloc

    def probe(lo: Fraction, hi: Fraction) -> dict | None:
        left, right = alloc_at(lo), alloc_at(hi)
        gap = allocation_distance(left, right)
        if gap < tau:
            return None
        if hi - lo < delta:
            return {
                "agent": agent,
                "interval": [str(lo), str(hi)],
                "width": str(hi - lo),
                "gap": str(gap),
                "allocation_low": allocation_json(left),
                "allocation_high": allocation_json(right),
            }
        mid = (lo + hi) / 2
        return probe(lo, mid) or probe(mid, hi)

    witness = probe(ZERO, ONE)
    coverage = (
        f"path agent={agent}; cone={ordinal_of(end0)}; tau={tau}; delta={delta}"
    )
    if witness is not None:
        return Verdict(status="Fail", witness=witness, coverage=coverage)
    return Verdict(status="Pass", witness=None, coverage=coverage)


def default_efficiency_profiles(config: CheckConfig) -> list[UtilityProfile]:
    """Deterministic battery: one profile per ordinal cell with cycled grid
    rates, plus seeded random profiles."""
    grid = config.mu_grid
    profiles: list[UtilityProfile] = []
    for index, orders in enumerate(itertools.product(all_orders(3), repeat=3)):
        profiles.append(
            tuple(
                utility_from(order, grid[(index + k) % len(grid)])
                for k, order in enumerate(orders)
            )
        )
    rng = random.Random(f"{config.seed}:efficiency")
    profiles += [random_profile(rng) for _ in range(8 * config.samples_per_cell)]
    return profiles


def random_profile(rng: random.Random) -> UtilityProfile:
    """Three agents, each with a random order and a random middle rate."""
    orders = all_orders(3)
    return tuple(utility_from(rng.choice(orders), random_rational(rng)) for _ in range(3))


def default_continuity_paths() -> list[
    tuple[int, tuple[BernoulliUtility, ...], tuple[NormalizedUtility, NormalizedUtility]]
]:
    """Battery of within-cone paths, one per agent. The first path crosses a
    utilitarian LP vertex switch: with the others at rates 1/4 and 3/5 in the
    same cone, the moving agent's rate sweeps 1/10 to 9/10 and the optimal
    assignment changes hands twice."""
    abc = OrdinalPreference((0, 1, 2))
    bac = OrdinalPreference((1, 0, 2))
    cba = OrdinalPreference((2, 1, 0))
    low, high = Fraction(1, 10), Fraction(9, 10)
    return [
        (
            0,
            (utility_from(abc, Fraction(1, 4)), utility_from(abc, Fraction(3, 5))),
            (utility_from(abc, low), utility_from(abc, high)),
        ),
        (
            1,
            (utility_from(abc, Fraction(1, 2)), utility_from(cba, Fraction(1, 2))),
            (utility_from(bac, low), utility_from(bac, high)),
        ),
        (
            2,
            (utility_from(bac, Fraction(2, 5)), utility_from(abc, Fraction(3, 4))),
            (utility_from(cba, low), utility_from(cba, high)),
        ),
    ]


def check_continuity_battery(rule: Rule, config: CheckConfig) -> Verdict:
    """Run the default continuity paths; first failing path wins."""
    paths = default_continuity_paths()
    for index, (agent, others, endpoints) in enumerate(paths):
        verdict = check_ncc_continuity(rule, agent, others, endpoints, config)
        if not verdict.passed:
            verdict.witness["path"] = index
            return Verdict(
                status="Fail",
                witness=verdict.witness,
                coverage=f"paths={len(paths)}; failed_path={index}",
            )
    return Verdict(status="Pass", witness=None, coverage=f"paths={len(paths)}")
