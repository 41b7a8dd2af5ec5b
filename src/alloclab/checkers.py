"""Executable axioms: efficiency, strategy-proofness (expected-utility and
stochastic-dominance flavors), non-bossiness, ordinality, and normalized-cone
continuity.

Checkers quantify over a declared finite grid plus seeded random samples and
say so in their coverage string. A Pass means no violation was found on the
declared grid, never a proof; a Fail carries an exact witness that
re-verifies from the value types alone. Scans run in canonical cell order
and stop at the first failure, so verdicts are reproducible; a Fail's
coverage says how far its scan got.

The strategy-proofness and non-bossiness scans are one loop over deviation
blocks (`_scan_blocks`), each with its own judge of a block: one agent,
fixed reports of the other two, and every grid cell for the agent. A scan
reads each block from the rule's block allocator (`Rule.blocks`), which
computes each grid profile's output at most once per check, though up to
three blocks hold it; neither it nor ordinality builds a profile to allocate
on the grid. Rule outputs are canonical (`rules._canonical`), so the judges
compare outputs and own rows by identity, and the strategy-proofness judge,
which reads only the agent's own rows, runs once per distinct sequence of
them in a scan, for every rule.

A rule that reads only rankings (`Rule.reads_only_rankings`), a blend of two
such rules included, is quotiented by the 216 ordinal cells, whose outputs
(`rules.cell_outputs`) are its outputs everywhere. All blocks with the same
agent and the same orders of the others hold the same allocations, so such a
rule is scanned one block per class, the class's first block in canonical
order (both others at the first grid rate). The full sweep's first failing
block is the first block of the first failing class, so a Fail's witness and
its `scanned_blocks=k` (k is the canonical block index) are the full
sweep's, and a Pass reports the same coverage. Ordinality calls such a rule
once per cell, at the cell's mid profile, and always passes, with the
coverage string of the declared sweep of grid and random profiles, which
that one call proves. Sd-strategy-proofness reads the same 216 outputs, for
every rule.

A blend's Pass is certified from its parts' Passes on the same grid where it
is certain: strategy-proofness whenever both parts pass, and non-bossiness
of a blend with a cardinal part when its mix is also one-to-one on pairs of
its parts' possible rows (`rules._Mix.is_injective`). Every verdict of these
two checks is recorded per (rule, grid) for the life of the process, so each
part is judged once per grid. A certified Pass has the scan's coverage, and
every Fail comes from a scan.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .core import (
    ONE,
    ZERO,
    Allocation,
    BernoulliUtility,
    Fields,
    Frozen,
    Lottery,
    UtilityProfile,
    distance_form,
    exact_rational,
    expected_utility,
    forms_over_common_denominator,
    profile_with,
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
from .rules import Rule, cell_outputs, mix_of


class NotOrdinal(ValueError):
    """The rule varies within an ordinal cone, so the test is meaningless."""


class EndpointsInDifferentCones(ValueError):
    """Continuity paths must stay inside one ordinal cone."""


# Rule evaluations allowed per continuity path. A rule that moves
# continuously along the path needs about 1/tau of them to resolve it (some
# 2^20 at the default tau), while the default paths take 6 for rsd and ps
# and 32 for utilitarian and blend:rsd:utilitarian:1/2.
MAX_PATH_PROBES = 4096
PROBE_CAP_NOTE = f"; probe_cap={MAX_PATH_PROBES} reached"

DEFAULT_MU_GRID = (
    Fraction(1, 10),
    Fraction(1, 4),
    Fraction(2, 5),
    Fraction(1, 2),
    Fraction(3, 5),
    Fraction(3, 4),
    Fraction(9, 10),
)


class CheckConfig(Frozen):
    """Declared quantification grid and continuity thresholds."""

    __slots__ = ("mu_grid", "samples_per_cell", "seed", "continuity_gap_tau",
                 "continuity_interval_delta")

    def __init__(self, mu_grid: tuple[Fraction, ...] = DEFAULT_MU_GRID,
                 samples_per_cell: int = 2, seed: int = 0,
                 continuity_gap_tau: Fraction = Fraction(1, 10**6),
                 continuity_interval_delta: Fraction = Fraction(1, 10**9)):
        self._set(mu_grid, samples_per_cell, seed, continuity_gap_tau,
                  continuity_interval_delta)
        if not self.mu_grid:
            raise ValueError("grid needs at least one value")
        for index, mu in enumerate(self.mu_grid):
            if not ZERO < exact_rational(mu) < ONE:
                raise ValueError(f"grid value {mu} outside (0, 1)")
            if mu in self.mu_grid[:index]:
                raise ValueError(f"grid value {mu} repeated")
        thresholds = (self.continuity_gap_tau, self.continuity_interval_delta)
        if min(map(exact_rational, thresholds)) <= 0:
            raise ValueError("continuity thresholds must be positive")
        samples = self.samples_per_cell
        if type(samples) is not int:  # a bool is refused too
            raise TypeError(f"samples per cell must be an int, got {samples!r}")
        if samples < 0:
            raise ValueError(f"samples per cell must be 0 or more, got {samples}")


class Verdict(Fields):
    """A checker's answer: a Fail carries its witness, a Pass has none."""

    __slots__ = ("witness", "coverage")

    def __init__(self, witness: dict | None, coverage: str):
        self._set(witness, coverage)

    @property
    def passed(self) -> bool:
        return self.witness is None

    @property
    def status(self) -> str:
        return "Pass" if self.witness is None else "Fail"

    def to_dict(self) -> dict:
        data = {"status": self.status, "coverage": self.coverage}
        if self.witness is not None:
            data["witness"] = self.witness
        return data


def encode(value):
    """How a report writes an exact value (the `default` hook of `json.dumps`):
    a rational as 'p/q', a ranking as 'a>b>c', an sd verdict as its value, and
    a utility, lottery or allocation as its entries. Witnesses hold values."""
    if isinstance(value, (Fraction, OrdinalPreference)):
        return str(value)
    if isinstance(value, SdVerdict):
        return value.value
    if isinstance(value, BernoulliUtility):
        return value.values
    if isinstance(value, Lottery):
        return value.probs
    if isinstance(value, Allocation):
        return value.rows
    raise TypeError(f"{type(value).__name__} has no report form")


def report_json(data: dict) -> str:
    """The byte-stable JSON form of every report: sorted keys, two-space
    indent, exact values through `encode`.

    The exact values are spelled out first (`encoded`), by the C encoder,
    which the indenting encoder never uses, so that walks only plain lists
    and strings. The bytes are those of encoding `data` directly as long as
    every key is a `str`: an int key would be sorted after its conversion."""
    return json.dumps(encoded(data), sort_keys=True, indent=2, check_circular=False)


def encoded(data):
    """`data` with every exact value in its report form, as plain lists and
    strings; error messages embed a witness in this form."""
    return json.loads(json.dumps(data, default=encode, check_circular=False))


def require_ordinal(rule: Rule, config: CheckConfig, error: type[ValueError], claim: str) -> None:
    """Raise `error` when `rule` fails ordinality on the grid; the message
    says `claim` of the rule and embeds the encoded witness."""
    verdict = check_ordinality(rule, config)
    if not verdict.passed:
        raise error(f"rule {rule.name} {claim}: {encoded(verdict.witness)}")


def grid_cells(config: CheckConfig) -> tuple[NormalizedUtility, ...]:
    """Canonical single-agent report grid: all orders times all grid rates."""
    return tuple(
        utility_from(order, mu) for order in all_orders(3) for mu in config.mu_grid
    )


def _stopped(coverage: str, scanned: int, total: int, unit: str) -> str:
    """A Fail's coverage: the declared sweep plus how far the scan got
    before it stopped at the failure."""
    return f"{coverage}; scanned_{unit}={scanned} of {total}"


def _block_sweep(config: CheckConfig) -> str:
    """The coverage of a deviation-block scan over the grid."""
    count = 6 * len(config.mu_grid)
    return (
        f"grid: 6 orders x {len(config.mu_grid)} mu per agent; "
        f"cells_per_agent={count}; profiles={count**3}; deviations_per_agent={count}"
    )


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
                expected_utility(u, better.row(i)) - expected_utility(u, alloc.row(i))
                for i, u in enumerate(profile)
            ]
            return Verdict(
                witness={
                    "profile": profile,
                    "allocation": alloc,
                    "dominating": better,
                    "per_agent_gains": gains,
                },
                coverage=_stopped(coverage, scanned, len(profiles), "profiles"),
            )
    return Verdict(None, coverage)


def _scan_blocks(rule: Rule, config: CheckConfig, judge) -> Verdict:
    """Judge every deviation block in canonical order (one block per class
    for a rule that reads only rankings), and stop at the first block where
    ``judge(agent, others, cells, allocations)`` returns a witness;
    `scanned_blocks` is that block's canonical index from one.

    The blocks come from the rule's block allocator (`Rule.blocks`), never
    from a profile built here. Their entries are canonical rule outputs:
    equal allocations, and equal rows, are one object."""
    cells = grid_cells(config)
    count = len(cells)
    coverage = _block_sweep(config)
    step = len(config.mu_grid) if rule.reads_only_rankings else 1
    block = rule.blocks(cells)
    for agent in range(3):
        for i in range(0, count, step):
            for j in range(0, count, step):
                allocations = block(agent, i, j)
                witness = judge(agent, (cells[i], cells[j]), cells, allocations)
                if witness is not None:
                    scanned = (agent * count + i) * count + j + 1
                    return Verdict(
                        witness, _stopped(coverage, scanned, 3 * count**2, "blocks")
                    )
    return Verdict(None, coverage)


# Every strategy-proofness and non-bossiness verdict of the process, as
# (check, rule, grid) -> passed, so that a blend's parts are judged once per
# grid however many blends hold them.
_PASSED: dict[tuple[object, Rule, tuple], bool] = {}


def _judged(check, rule: Rule, config: CheckConfig, judge, certified: bool) -> Verdict:
    """`rule`'s verdict under `check`: the full sweep's Pass when
    `certified`, else the scan's (`_scan_blocks`); recorded either way."""
    if certified:
        verdict = Verdict(None, _block_sweep(config))
    else:
        verdict = _scan_blocks(rule, config, judge)
    _PASSED[check, rule, tuple(config.mu_grid)] = verdict.passed
    return verdict


def _parts_pass(check, mix, config: CheckConfig) -> bool:
    """Whether both parts of the blend whose compute is `mix` pass `check`
    on the grid; a part that `check` has not judged on it yet is judged
    now."""
    for part in (mix.first, mix.second):
        passed = _PASSED.get((check, part, tuple(config.mu_grid)))
        if passed is None:
            passed = check(part, config).passed
        if not passed:
            return False
    return True


def _manipulation(agent, others, cells, allocations) -> dict | None:
    """The first (truth, deviation) pair of the block where the agent gains
    strictly by reporting the deviation, or None. It reads only the agent's
    own rows and the truths, and the others only for a witness.

    Expected utilities are compared as integers: each truth's integer form
    (``cell.nums``, its values over one positive denominator) dotted with the
    block's distinct rows' integer forms over theirs. Both scales are
    positive and fixed for one truth, so every comparison is the rational
    one; the witness's gap is computed as a `Fraction` only once a gain is
    found."""
    own = [alloc.row(agent) for alloc in allocations]
    distinct = {id(row): row for row in own}
    if len(distinct) == 1:
        return None
    rows = forms_over_common_denominator(list(distinct.values()))[1]
    for t, truth in enumerate(cells):
        eus = dict(zip(distinct, [sum(map(mul, truth.nums, row)) for row in rows]))
        eu_true = eus[id(own[t])]
        if max(eus.values()) <= eu_true:
            continue
        for d, row in enumerate(own):
            if eus[id(row)] > eu_true:
                gap = expected_utility(truth, row) - expected_utility(truth, own[t])
                return {
                    "profile": profile_with(others, agent, truth),
                    "agent": agent,
                    "deviation": cells[d],
                    "truthful_allocation": allocations[t],
                    "deviated_allocation": allocations[d],
                    "gap": gap,
                }
    return None


def _bossiness(agent, others, cells, allocations) -> dict | None:
    """The first cell of the block whose allocation differs from that of the
    first cell with the same own row, or None.

    Outputs are canonical, so the block is bossy iff two of its distinct
    allocations share their own row object: that is decided over the
    distinct allocations, and the cells are walked in order only to build
    a Fail's witness."""
    owners: dict[int, Allocation] = {}
    for alloc in dict(zip(map(id, allocations), allocations)).values():
        if owners.setdefault(id(alloc.row(agent)), alloc) is not alloc:
            break
    else:
        return None
    first: dict[int, int] = {}
    for d, alloc in enumerate(allocations):
        t = first.setdefault(id(alloc.row(agent)), d)
        if allocations[t] is not alloc:
            return {
                "profile": profile_with(others, agent, cells[t]),
                "agent": agent,
                "deviation": cells[d],
                "own_row": alloc.row(agent).probs,
                "allocation": allocations[t],
                "deviated_allocation": alloc,
            }
    return None


def check_strategy_proofness(rule: Rule, config: CheckConfig) -> Verdict:
    """Exact weak-inequality test over every grid profile, agent, and
    single-agent grid deviation.

    The judge reads only the agent's own rows, in cell order, and the fixed
    truths, so a repeat of a clean sequence of own rows is clean, and no
    failing one comes before its first. So a block is judged only if no
    earlier block of the scan had the same sequence, whatever the rule;
    rows are canonical, so the sequence is compared by their ids.

    A blend whose parts both pass on the grid passes without a scan: an
    expected utility is linear in the allocation, so a deviation that gains
    nothing in either part gains nothing in their mix. Its Pass is the one
    the scan would report."""
    clean: set[tuple[int, ...]] = set()

    def judge(agent, others, cells, allocations):
        rows = tuple([id(alloc.row(agent)) for alloc in allocations])
        if rows in clean:
            return None
        witness = _manipulation(agent, others, cells, allocations)
        if witness is None:
            clean.add(rows)
        return witness

    mix = mix_of(rule)
    certified = mix is not None and _parts_pass(check_strategy_proofness, mix, config)
    return _judged(check_strategy_proofness, rule, config, judge, certified)


def check_non_bossiness(rule: Rule, config: CheckConfig) -> Verdict:
    """Whenever a deviation leaves the deviator's own row unchanged, the full
    matrix must be unchanged.

    A blend with a cardinal part passes without a scan when mixing at its
    weight is one-to-one on pairs of its parts' possible rows
    (`rules._Mix.is_injective`) and both parts pass on the grid: equal mixed
    own rows then mean equal own rows in each part, so equal allocations of
    each part, and so equal mixes. Its Pass is the one the scan would
    report. A blend of two ranking rules is scanned, which costs less than
    that test."""
    mix = mix_of(rule)
    certified = (
        mix is not None
        and not rule.reads_only_rankings
        and mix.is_injective()
        and _parts_pass(check_non_bossiness, mix, config)
    )
    return _judged(check_non_bossiness, rule, config, _bossiness, certified)


def cell_twin_witness(
    orders: tuple[OrdinalPreference, ...], profiles: Iterable[UtilityProfile],
    outputs: Iterable[Allocation],
) -> dict | None:
    """The witness that some profile of the ordinal cell `orders` gets another
    allocation than the first, or None. `outputs` are the rule's allocations
    at `profiles`, in order, and are read only up to the first difference."""
    pairs = zip(profiles, outputs)
    first, reference = next(pairs)
    for profile, alloc in pairs:
        if alloc != reference:
            return {
                "cell": orders,
                "profile_a": first,
                "profile_b": profile,
                "allocation_a": reference,
                "allocation_b": alloc,
            }
    return None


def check_ordinality(rule: Rule, config: CheckConfig) -> Verdict:
    """Bit-identical output inside every ordinal cell, over grid rates plus
    seeded random rates.

    A rule that reads only rankings gives every profile of a cell the same
    key, hence the same allocation, so each cell is proved by one rule call
    on its mid profile (`rules.cell_outputs`). That call is kept so that a
    `compute` that raises still raises at the same cell, and the coverage
    still describes the declared sweep, which the quotient proves. Any other
    rule's outputs at grid profiles are read off its blocks (`Rule.blocks`),
    agent 2's at the others' cells, and only its random samples allocated."""
    mu_grid = config.mu_grid
    coverage = (
        f"cells=216; per_cell={len(mu_grid)**3}+{config.samples_per_cell} random; "
        f"seed={config.seed}"
    )
    if rule.reads_only_rankings:
        cell_outputs(rule)
        return Verdict(None, coverage)
    cells, orders, m = grid_cells(config), all_orders(3), len(mu_grid)
    block, pairs = rule.blocks(cells), list(itertools.product(range(m), repeat=2))
    for index, cell in enumerate(itertools.product(orders, repeat=3)):
        a, b, c = [orders.index(order) * m for order in cell]
        profiles = [(cells[a + i], cells[b + j], cells[c + k]) for i, j in pairs for k in range(m)]
        outputs = itertools.chain.from_iterable(block(2, a + i, b + j)[c : c + m] for i, j in pairs)
        rng = random.Random(f"{config.seed}:cell:{index}")
        samples = [
            tuple(utility_from(order, random_rational(rng)) for order in cell)
            for _ in range(config.samples_per_cell)
        ]
        outputs = itertools.chain(outputs, map(rule.allocate, samples))
        witness = cell_twin_witness(cell, profiles + samples, outputs)
        if witness is not None:
            return Verdict(witness, _stopped(coverage, index + 1, 216, "cells"))
    return Verdict(None, coverage)


def check_sd_strategy_proofness(rule: Rule, config: CheckConfig) -> Verdict:
    """For ordinal rules: the truthful share must weakly stochastically
    dominate every single-agent ordinal deviation's share.

    Raises NotOrdinal when the rule varies within a cone on the grid, since
    the finite test only makes sense for ordinal rules. Every report reads
    the rule's outputs at the cells' mid profiles (`rules.cell_outputs`).
    """
    require_ordinal(rule, config, NotOrdinal, "varies within an ordinal cone")
    outputs = cell_outputs(rule)
    orders = all_orders(3)
    coverage = "cells=216; ordinal deviations=6 per agent"
    cells = list(itertools.product(orders, repeat=3))
    position = {cell: index for index, cell in enumerate(cells)}
    for index, truth_orders in enumerate(cells):
        truthful = outputs[index]
        for agent in range(3):
            for deviation in orders:
                if deviation == truth_orders[agent]:
                    continue
                cell = truth_orders[:agent] + (deviation,) + truth_orders[agent + 1 :]
                deviated = outputs[position[cell]]
                verdict = sd_compare(
                    truthful.row(agent), deviated.row(agent), truth_orders[agent]
                )
                if verdict not in (SdVerdict.DOMINATES, SdVerdict.EQUAL):
                    return Verdict(
                        witness={
                            "cell": truth_orders,
                            "agent": agent,
                            "deviation_order": deviation,
                            "truthful_share": truthful.row(agent).probs,
                            "deviated_share": deviated.row(agent).probs,
                            "sd_verdict": verdict,
                        },
                        coverage=_stopped(coverage, index + 1, 216, "cells"),
                    )
    return Verdict(None, coverage)


def check_ncc_continuity(
    rule: Rule,
    agent: int,
    others: tuple[BernoulliUtility, ...],
    endpoints: tuple[NormalizedUtility, NormalizedUtility],
    config: CheckConfig,
) -> Verdict:
    """Probe the convex utility path between two same-cone endpoints for the
    moving agent by depth-first bisection, with at most MAX_PATH_PROBES rule
    evaluations.

    Pass iff every interval localized below the width threshold has an
    allocation gap below tau; Fail pins a jump of at least tau inside an
    interval narrower than delta. When the budget runs out before every
    interval is resolved, the coverage ends with PROBE_CAP_NOTE and a Pass
    covers only the intervals resolved.
    """
    end0, end1 = endpoints
    if ordinal_of(end0) != ordinal_of(end1):
        raise EndpointsInDifferentCones(
            f"{ordinal_of(end0)} versus {ordinal_of(end1)}"
        )
    tau = config.continuity_gap_tau
    delta = config.continuity_interval_delta
    # Every point the bisection reaches is k / scale with scale = 2**depth:
    # an interval is split only while its width 2**-d is at least delta, so
    # depth is the first d with 2**-d < delta (0 when delta > 1), and an
    # interval is narrower than delta iff it is one unit wide. Points and
    # gaps are compared as integers, and `Fraction`s are built only for a
    # witness.
    depth = 0
    while delta.denominator >= delta.numerator << depth:
        depth += 1
    scale = 1 << depth
    cache: dict[int, Allocation] = {}
    # The endpoints over one denominator: alpha = a/b in lowest terms moves
    # to ((b - a) * start + a * end) / (b * den), which keeps the cone's
    # strict ranking, so it is built trusted with that ranking.
    den, (start, end) = forms_over_common_denominator(endpoints)
    order = ordinal_of(end0)

    def alloc_at(k: int) -> Allocation:
        alloc = cache.get(k)
        if alloc is None:
            common = k & -k or scale  # k / scale in lowest terms is a / b
            a, b = k // common, scale // common
            moving = BernoulliUtility._trusted(
                b * den, tuple([(b - a) * x + a * y for x, y in zip(start, end)]), order
            )
            alloc = rule.allocate(profile_with(others, agent, moving))
            cache[k] = alloc
        return alloc

    # Depth-first bisection, left half first, on an explicit stack so that a
    # tiny delta cannot exhaust the interpreter's recursion limit. Each split
    # costs one evaluation (its midpoint); none is made once MAX_PATH_PROBES
    # are spent, but pending intervals are still tested on their cached ends.
    # Outputs are canonical and tau > 0, so ends that are one object have no
    # gap to measure.
    witness = None
    capped = False
    pending = [(0, scale)]
    while pending:
        lo, hi = pending.pop()
        left, right = alloc_at(lo), alloc_at(hi)
        if left is right:
            continue
        gap, gap_den = distance_form(left, right)
        if gap * tau.denominator < tau.numerator * gap_den:
            continue
        if hi - lo == 1:
            witness = {
                "agent": agent,
                "interval": (Fraction(lo, scale), Fraction(hi, scale)),
                "width": Fraction(hi - lo, scale),
                "gap": Fraction(gap, gap_den),
                "allocation_low": left,
                "allocation_high": right,
            }
            break
        if len(cache) >= MAX_PATH_PROBES:
            capped = True
            continue
        mid = (lo + hi) >> 1
        pending += ((mid, hi), (lo, mid))
    coverage = (
        f"path agent={agent}; cone={ordinal_of(end0)}; tau={tau}; delta={delta}"
    )
    if capped:
        coverage += PROBE_CAP_NOTE
    if witness is not None:
        return Verdict(witness, coverage)
    return Verdict(None, coverage)


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
    capped: list[str] = []
    for index, (agent, others, endpoints) in enumerate(paths):
        verdict = check_ncc_continuity(rule, agent, others, endpoints, config)
        if verdict.coverage.endswith(PROBE_CAP_NOTE):
            capped.append(str(index))
        note = f"; probe_capped_paths={','.join(capped)}" if capped else ""
        if not verdict.passed:
            verdict.witness["path"] = index
            return Verdict(verdict.witness, f"paths={len(paths)}; failed_path={index}{note}")
    return Verdict(None, f"paths={len(paths)}{note}")
