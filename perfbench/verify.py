"""Checks of alloclab's reports against the reference implementations.

A ``Fail`` verdict is accepted only when its witness re-verifies with the
benchmark's own Fraction arithmetic and reference rules. A ``Pass`` verdict
is accepted when the rule must pass by construction (an ordinal rule is
ordinal, a mixture of strategy-proof rules is strategy-proof, the
utilitarian optimum is efficient under any positive affine rescaling) or
when the reference rule shows no violation on a seeded sample of the same
grid. Every function returns a list of error strings; empty means correct.
"""

from __future__ import annotations

import random
from fractions import Fraction

import oracles as ref

HALF = Fraction(1, 2)
SAMPLE_BLOCKS = 16
SD_PASS_BASES = {"rsd", "dictatorship"}


class Context:
    """What a verdict was computed over: the grid, the continuity
    thresholds and a seeded sampler for oracle spot checks."""

    def __init__(self, grid, tau=None, delta=None, seed=0):
        self.grid = tuple(grid)
        self.cells = ref.grid_cells(self.grid)
        self.tau = tau
        self.delta = delta
        self.seed = seed

    def sampler(self, *labels) -> random.Random:
        return random.Random(":".join(str(x) for x in (self.seed, *labels)))


def _on_grid(values, grid) -> bool:
    return (
        len(values) == 3
        and ref.canonical(values) == tuple(values)
        and ref.middle_rate(values) in grid
    )


def _replace(prof, agent, utility):
    return prof[:agent] + (tuple(utility),) + prof[agent + 1 :]


def _axiom(name: str) -> str:
    return name.replace("_", "-")


# --- Fail witnesses ---------------------------------------------------------


def witness_errors(axiom: str, rule_name: str, w: dict, ctx: Context) -> list[str]:
    axiom = _axiom(axiom)
    allocate = ref.rule(rule_name)
    where = f"{rule_name} {axiom} witness"
    try:
        if axiom == "strategy-proofness":
            prof = ref.matrix(w["profile"])
            agent = w["agent"]
            deviation = ref.matrix([w["deviation"]])[0]
            if not all(_on_grid(u, ctx.grid) for u in prof + (deviation,)):
                return [f"{where}: reports off the declared grid"]
            truthful, deviated = allocate(prof), allocate(_replace(prof, agent, deviation))
            gap = ref.expected_utility(prof[agent], deviated[agent]) - ref.expected_utility(
                prof[agent], truthful[agent]
            )
            errors = []
            if ref.matrix(w["truthful_allocation"]) != truthful:
                errors.append(f"{where}: truthful allocation differs from the reference rule")
            if ref.matrix(w["deviated_allocation"]) != deviated:
                errors.append(f"{where}: deviated allocation differs from the reference rule")
            if gap <= 0 or gap != ref.fraction(w["gap"]):
                errors.append(f"{where}: gap {w['gap']} does not re-verify (got {gap})")
            return errors
        if axiom == "non-bossiness":
            prof = ref.matrix(w["profile"])
            agent = w["agent"]
            deviation = ref.matrix([w["deviation"]])[0]
            before, after = allocate(prof), allocate(_replace(prof, agent, deviation))
            errors = []
            if ref.matrix(w["allocation"]) != before or ref.matrix(w["deviated_allocation"]) != after:
                errors.append(f"{where}: allocations differ from the reference rule")
            own = tuple(ref.fraction(p) for p in w["own_row"])
            if not (before[agent] == after[agent] == own) or before == after:
                errors.append(f"{where}: not a bossy deviation")
            return errors
        if axiom == "ordinality":
            return _twin_errors(where, allocate, w)
        if axiom == "efficiency":
            prof = ref.matrix(w["profile"])
            held = ref.matrix(w["allocation"])
            better = ref.matrix(w["dominating"])
            errors = []
            if held != allocate(prof):
                errors.append(f"{where}: allocation differs from the reference rule")
            if not ref.is_bistochastic(better):
                errors.append(f"{where}: dominating matrix is not bistochastic")
            gains = [
                ref.expected_utility(u, better[i]) - ref.expected_utility(u, held[i])
                for i, u in enumerate(prof)
            ]
            if min(gains) < 0 or max(gains) <= 0:
                errors.append(f"{where}: dominating allocation does not dominate")
            if [ref.fraction(g) for g in w["per_agent_gains"]] != gains:
                errors.append(f"{where}: per-agent gains do not re-verify")
            return errors
        if axiom == "sd-strategy-proofness":
            orders = [ref.order_from_text(text) for text in w["cell"]]
            agent = w["agent"]
            deviation = ref.order_from_text(w["deviation_order"])
            prof = tuple(ref.grid_utility(order, HALF) for order in orders)
            truthful = allocate(prof)[agent]
            deviated = allocate(_replace(prof, agent, ref.grid_utility(deviation, HALF)))[agent]
            errors = []
            if tuple(ref.fraction(p) for p in w["truthful_share"]) != truthful:
                errors.append(f"{where}: truthful share differs from the reference rule")
            if tuple(ref.fraction(p) for p in w["deviated_share"]) != deviated:
                errors.append(f"{where}: deviated share differs from the reference rule")
            verdict = ref.sd_verdict(truthful, deviated, orders[agent])
            if verdict != w["sd_verdict"] or verdict in ("Dominates", "Equal"):
                errors.append(f"{where}: sd verdict {w['sd_verdict']} does not re-verify ({verdict})")
            return errors
        if axiom == "continuity":
            low, high = (ref.fraction(x) for x in w["interval"])
            a_low, a_high = ref.matrix(w["allocation_low"]), ref.matrix(w["allocation_high"])
            gap = ref.max_abs_difference(a_low, a_high)
            errors = []
            if not (0 <= low < high <= 1) or high - low != ref.fraction(w["width"]):
                errors.append(f"{where}: interval and width disagree")
            if high - low >= ctx.delta:
                errors.append(f"{where}: interval {high - low} not narrower than delta")
            if gap < ctx.tau or gap != ref.fraction(w["gap"]):
                errors.append(f"{where}: gap {w['gap']} does not re-verify (got {gap})")
            if not (ref.is_bistochastic(a_low) and ref.is_bistochastic(a_high)):
                errors.append(f"{where}: endpoint allocations are not bistochastic")
            return errors
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"{where}: malformed witness ({exc!r})"]
    return [f"{where}: unknown axiom"]


def _twin_errors(where, allocate, w) -> list[str]:
    """Same-cell twins with different allocations (ordinality, theorem2)."""
    orders = [ref.order_from_text(text) for text in w["cell"]]
    prof_a, prof_b = ref.matrix(w["profile_a"]), ref.matrix(w["profile_b"])
    errors = []
    if [ref.ranking(u) for u in prof_a] != orders or [ref.ranking(u) for u in prof_b] != orders:
        errors.append(f"{where}: twins are not in the stated ordinal cell")
    alloc_a, alloc_b = allocate(prof_a), allocate(prof_b)
    if ref.matrix(w["allocation_a"]) != alloc_a or ref.matrix(w["allocation_b"]) != alloc_b:
        errors.append(f"{where}: allocations differ from the reference rule")
    if alloc_a == alloc_b:
        errors.append(f"{where}: twin allocations are equal")
    return errors


# --- Pass verdicts ------------------------------------------------------------


def pass_errors(axiom: str, rule_name: str, ctx: Context) -> list[str]:
    axiom = _axiom(axiom)
    where = f"{rule_name} {axiom} Pass"
    allocate = ref.rule(rule_name)
    rng = ctx.sampler(rule_name, axiom)
    if axiom == "ordinality":
        if ref.is_ordinal(rule_name):
            return []
        for _ in range(SAMPLE_BLOCKS):
            orders = [rng.choice(ref.all_orders(3)) for _ in range(3)]
            first = allocate(tuple(ref.grid_utility(o, rng.choice(ctx.grid)) for o in orders))
            twin = allocate(tuple(ref.grid_utility(o, rng.choice(ctx.grid)) for o in orders))
            if first != twin:
                return [f"{where}: reference rule varies inside cell {orders}"]
        return []
    if axiom == "strategy-proofness":
        if ref.is_strategy_proof(rule_name):
            return []
        for agent, others, allocs in _sample_blocks(allocate, ctx, rng):
            rows = [alloc[agent] for alloc in allocs]
            for t, truth in enumerate(ctx.cells):
                held = ref.expected_utility(truth, rows[t])
                if any(ref.expected_utility(truth, row) > held for row in rows):
                    return [f"{where}: reference rule has a profitable deviation at {others}"]
        return []
    if axiom == "non-bossiness":
        for agent, others, allocs in _sample_blocks(allocate, ctx, rng):
            by_row = {}
            for alloc in allocs:
                if by_row.setdefault(alloc[agent], alloc) != alloc:
                    return [f"{where}: reference rule is bossy at {others}"]
        return []
    if axiom == "efficiency":
        if ref.bases(rule_name) == {"utilitarian"}:
            return []
        return [f"{where}: no independent check for this rule"]
    if axiom == "sd-strategy-proofness":
        if ref.bases(rule_name) <= SD_PASS_BASES:
            return []
        for _ in range(SAMPLE_BLOCKS):
            orders = [rng.choice(ref.all_orders(3)) for _ in range(3)]
            prof = tuple(ref.grid_utility(o, HALF) for o in orders)
            agent = rng.randrange(3)
            truthful = allocate(prof)[agent]
            for deviation in ref.all_orders(3):
                deviated = allocate(_replace(prof, agent, ref.grid_utility(deviation, HALF)))[agent]
                if ref.sd_verdict(truthful, deviated, orders[agent]) not in ("Dominates", "Equal"):
                    return [f"{where}: reference rule fails at cell {orders}"]
        return []
    if axiom == "continuity":
        if ref.is_ordinal(rule_name):
            return []
        return [f"{where}: no independent check for this rule"]
    return [f"{where}: unknown axiom"]


def _sample_blocks(allocate, ctx: Context, rng: random.Random):
    """Seeded (agent, others) blocks of the grid with the reference
    allocation for every grid report of the moving agent."""
    for _ in range(SAMPLE_BLOCKS):
        agent = rng.randrange(3)
        others = (rng.choice(ctx.cells), rng.choice(ctx.cells))
        allocs = [allocate(others[:agent] + (cell,) + others[agent:]) for cell in ctx.cells]
        yield agent, others, allocs


def verdict_errors(axiom: str, rule_name: str, verdict: dict, ctx: Context) -> list[str]:
    status = verdict.get("status")
    if status == "Fail":
        return witness_errors(axiom, rule_name, verdict.get("witness") or {}, ctx)
    if status == "Pass":
        if "witness" in verdict:
            return [f"{rule_name} {axiom}: Pass carries a witness"]
        return pass_errors(axiom, rule_name, ctx)
    return [f"{rule_name} {axiom}: unknown status {status!r}"]


# --- whole reports --------------------------------------------------------------


def _exit_matches(status: str, code: int) -> list[str]:
    expected = 0 if status == "Pass" else 1
    return [] if code == expected else [f"exit code {code} for status {status}"]


def check_report(report: dict, code: int, meta: dict) -> list[str]:
    ctx = Context(meta["grid"], meta.get("tau"), meta.get("delta"), meta["seed"])
    errors = []
    if report.get("axiom") != meta["axiom"] or report.get("rule") != meta["rule"]:
        errors.append("report names another rule or axiom")
    errors += _exit_matches(report.get("status"), code)
    # Coverage is checked on Pass only: a Fail's coverage claims the whole
    # grid even when the scan stopped early.
    coverage = report.get("grid_description", "")
    if report.get("status") == "Pass":
        if meta["axiom"] == "efficiency" and coverage != f"profiles={meta['profile_count']}":
            errors.append(f"efficiency coverage {coverage!r}")
        cells = len(ctx.cells)
        if meta["axiom"] in ("strategy-proofness", "non-bossiness") and (
            f"cells_per_agent={cells}; profiles={cells ** 3}" not in coverage
        ):
            errors.append(f"coverage {coverage!r} is not the declared grid")
    verdict = {"status": report.get("status")}
    if "witness" in report:
        verdict["witness"] = report["witness"]
    return errors + verdict_errors(meta["axiom"], meta["rule"], verdict, ctx)


FOUR_AXIOMS = ("efficiency", "strategy_proofness", "non_bossiness", "continuity")


def stress_report(report: dict, code: int, meta: dict) -> list[str]:
    """Theorem 1 at n = 3: no rule passes all four axioms while failing
    ordinality, and every verdict in the matrix re-verifies."""
    ctx = Context(meta["grid"], meta["tau"], meta["delta"], meta["seed"])
    errors = []
    if report.get("metamorphic_violations") != []:
        errors.append(f"metamorphic violations {report.get('metamorphic_violations')}")
    if code != 0:
        errors.append(f"exit code {code} for a stress run without violations")
    rules = report.get("rules_tested", [])
    if len(rules) != meta["family_size"] or rules[:3] != ["rsd", "ps", "utilitarian"]:
        errors.append(f"unexpected family {rules}")
    for name in rules:
        verdicts = report["verdicts"][name]
        if set(verdicts) != set(FOUR_AXIOMS) | {"ordinality"}:
            errors.append(f"{name}: verdict keys {sorted(verdicts)}")
            continue
        if verdicts["ordinality"]["status"] == "Fail" and all(
            verdicts[a]["status"] == "Pass" for a in FOUR_AXIOMS
        ):
            errors.append(f"{name}: fails ordinality but passes all four axioms")
        for axiom, verdict in verdicts.items():
            errors += verdict_errors(axiom, name, verdict, ctx)
    return errors


def explore_report(record: dict, code: int, meta: dict) -> list[str]:
    """Record-only n > 3 exploration: ordinal rules show no twin
    differences and strategy-proof rules no profitable deviation."""
    errors = [] if code == 0 else [f"exit code {code}"]
    if record.get("n") != meta["n"] or record.get("exploration") is not True:
        errors.append("not an exploration record for the requested n")
    if sorted(record.get("rules", {})) != sorted(meta["rules"]):
        errors.append(f"rules {sorted(record.get('rules', {}))}")
        return errors
    for name, row in record["rules"].items():
        if not row.get("probes", 0) > 0:
            errors.append(f"{name}: no probes")
        if ref.is_ordinal(name) and row["ordinal_twin_differences"] != 0:
            errors.append(f"{name}: ordinal rule differs on ordinal twins")
        if ref.is_strategy_proof(name) and row["profitable_deviations_observed"] != 0:
            errors.append(f"{name}: strategy-proof rule gained by deviating")
    return errors


def lemma_report(report: dict, code: int, meta: dict) -> list[str]:
    errors = [] if code == 0 else [f"exit code {code}"]
    if not str(report.get("lemma_id", "")).startswith(meta["lemma"] + "_"):
        errors.append(f"lemma id {report.get('lemma_id')!r}")
    if report.get("rule") != meta["rule"]:
        errors.append(f"lemma rule {report.get('rule')!r}")
    if report.get("failures") != []:
        errors.append(f"{meta['lemma']}: failures {report.get('failures')}")
    if not report.get("sampled") == report.get("trials") == meta["trials"]:
        errors.append(f"{meta['lemma']}: sampled {report.get('sampled')} of {report.get('trials')}")
    return errors


def theorem2_report(report: dict, code: int, meta: dict) -> list[str]:
    errors = _exit_matches(report.get("status"), code)
    if report.get("command") != "theorem2" or report.get("rule") != meta["rule"]:
        errors.append("report names another command or rule")
    if report.get("status") == "Pass":
        if not ref.is_ordinal(meta["rule"]):
            errors.append(f"{meta['rule']} theorem2 Pass: no independent check")
    elif "cell" in (report.get("witness") or {}):
        errors += _twin_errors(f"{meta['rule']} theorem2 witness", ref.rule(meta["rule"]), report["witness"])
    else:
        errors.append(f"{meta['rule']} theorem2 Fail: witness cannot be re-verified")
    return errors


def decompose_report(report: dict, code: int, meta: dict) -> list[str]:
    """Birkhoff-von Neumann: positive weights summing to one on at most
    (n-1)^2 + 1 permutation matrices that recompose to the input."""
    target = meta["matrix"]
    n = len(target)
    errors = [] if code == 0 else [f"exit code {code}"]
    terms = report.get("terms", [])
    grid = [[Fraction(0)] * n for _ in range(n)]
    total = Fraction(0)
    for term in terms:
        weight, perm = ref.fraction(term["weight"]), term["perm"]
        if weight <= 0 or sorted(perm) != list(range(n)):
            errors.append(f"bad term {term}")
            continue
        total += weight
        for i, obj in enumerate(perm):
            grid[i][obj] += weight
    if total != 1:
        errors.append(f"weights sum to {total}")
    if len(terms) > (n - 1) ** 2 + 1:
        errors.append(f"{len(terms)} terms for n={n}")
    if tuple(tuple(row) for row in grid) != target:
        errors.append("terms do not recompose to the input matrix")
    return errors


REPORT_CHECKS = {
    "check": check_report,
    "stress": stress_report,
    "explore": explore_report,
    "lemma": lemma_report,
    "theorem2": theorem2_report,
    "decompose": decompose_report,
}
