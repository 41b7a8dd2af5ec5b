"""The benchmark's workloads: each is a fixed list of alloclab CLI
invocations whose inputs and program seeds come from the benchmark seed.

An operation is one CLI invocation, described by a dict:
  ``argv``  arguments after ``python -m alloclab.cli``;
  ``kind``  which report check in ``verify`` applies, or ``usage-error`` for
            malformed input that must exit 2 with a one-line message;
  ``meta``  what the check needs to know about the inputs.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import oracles as ref

TAU = Fraction(1, 10**6)
DELTA = Fraction(1, 10**9)
THRESHOLDS = ["--tau", str(TAU), "--delta", str(DELTA)]

# Four of the default grid's seven middle rates: 13,824 profiles per scan,
# about a sixth of the default grid's 74,088, so a round fits in a few
# seconds while every rule x axiom pair of the default-grid table still runs.
SCAN_GRID = (Fraction(1, 10), Fraction(2, 5), Fraction(3, 5), Fraction(9, 10))
# Two rates keep Theorem 1 visible (no metamorphic violation; utilitarian
# and its blends still fail ordinality) at 1,728 profiles per scan.
STRESS_GRID = (Fraction(1, 4), Fraction(3, 4))
LP_GRID = STRESS_GRID
EFFICIENCY_PROFILES = 400
FAMILY_SIZE = 12
LEMMA_TRIALS = 500
DECOMPOSE_SIZES = (3, 3, 4, 4, 5, 5, 6, 6, 7, 7)


def _grid_flag(grid) -> list[str]:
    return ["--grid", ",".join(str(mu) for mu in grid)]


def _program_seed(rng: random.Random) -> int:
    return rng.randrange(1, 10**6)


def grid_scan(rng: random.Random, seed: int, workdir: Path) -> list[dict]:
    """Deviation scans and ordinal memos; no LP is solved."""
    ops = []
    for rule in ("rsd", "ps", "dictatorship"):
        for axiom in ("strategy-proofness", "non-bossiness", "ordinality"):
            argv = ["check", "--rule", rule, "--axiom", axiom, *_grid_flag(SCAN_GRID)]
            if axiom == "ordinality":
                argv += ["--seed", str(_program_seed(rng))]
            ops.append(_check_op(argv, rule, axiom, SCAN_GRID, seed))
    return ops


def lp_solve(rng: random.Random, seed: int, workdir: Path) -> list[dict]:
    """Floor-constrained domination LPs, then unconstrained utilitarian LPs."""
    path = workdir / "profiles.json"
    path.write_text(json.dumps(random_profiles(rng, EFFICIENCY_PROFILES)))
    efficiency = _check_op(
        ["check", "--rule", "utilitarian", "--axiom", "efficiency",
         "--profiles", str(path), "--seed", str(_program_seed(rng))],
        "utilitarian", "efficiency", LP_GRID, seed,
    )
    efficiency["meta"]["profile_count"] = EFFICIENCY_PROFILES
    non_bossiness = _check_op(
        ["check", "--rule", "utilitarian", "--axiom", "non-bossiness", *_grid_flag(LP_GRID)],
        "utilitarian", "non-bossiness", LP_GRID, seed,
    )
    return [efficiency, non_bossiness]


def stress_family(rng: random.Random, seed: int, workdir: Path) -> list[dict]:
    """One Theorem-1 stress process over the program's seeded 12-rule family."""
    argv = ["stress", *_grid_flag(STRESS_GRID), "--seed", str(_program_seed(rng)), *THRESHOLDS]
    meta = {"grid": STRESS_GRID, "tau": TAU, "delta": DELTA, "seed": seed,
            "family_size": FAMILY_SIZE}
    return [{"argv": argv, "kind": "stress", "meta": meta}]


def short_commands(rng: random.Random, seed: int, workdir: Path) -> list[dict]:
    """Short invocations where process start-up is a large share."""
    ops = []
    for index, n in enumerate(DECOMPOSE_SIZES):
        matrix = random_bistochastic(rng, n)
        path = workdir / f"matrix-{index}.json"
        path.write_text(json.dumps([[str(p) for p in row] for row in matrix]))
        ops.append({"argv": ["decompose", "--matrix", f"@{path}"], "kind": "decompose",
                    "meta": {"matrix": matrix}})
    for lemma, rule in (("L1", "rsd"), ("L2", "rsd"), ("L4", "rsd"), ("L10", None)):
        argv = ["lemma", "--lemma", lemma, "--trials", str(LEMMA_TRIALS),
                "--seed", str(_program_seed(rng))]
        if rule:
            argv += ["--rule", rule]
        ops.append({"argv": argv, "kind": "lemma",
                    "meta": {"lemma": lemma, "rule": rule, "trials": LEMMA_TRIALS}})
    # theorem2 and sd-strategy-proofness first run an ordinality scan over
    # --grid; the scan grid keeps that pre-check from dominating the round.
    for rule in ("rsd", "ps"):
        ops.append({"argv": ["theorem2", "--rule", rule, *_grid_flag(SCAN_GRID),
                             "--seed", str(_program_seed(rng))],
                    "kind": "theorem2", "meta": {"rule": rule}})
    for rule in ("rsd", "ps"):
        ops.append(_check_op(
            ["check", "--rule", rule, "--axiom", "sd-strategy-proofness", *_grid_flag(SCAN_GRID),
             "--seed", str(_program_seed(rng))],
            rule, "sd-strategy-proofness", SCAN_GRID, seed,
        ))
    for rule in ("rsd", "utilitarian"):
        ops.append(_check_op(
            ["check", "--rule", rule, "--axiom", "continuity", *THRESHOLDS],
            rule, "continuity", SCAN_GRID, seed,
        ))
    rules = ["rsd", "ps", "utilitarian"]
    ops.append({"argv": ["stress", "--n", "4", "--rules", ",".join(rules),
                         "--seed", str(_program_seed(rng))],
                "kind": "explore", "meta": {"n": 4, "rules": rules}})
    ops += malformed_inputs(workdir)
    return ops


def malformed_inputs(workdir: Path) -> list[dict]:
    """Inputs that must be refused with exit 2 and a one-line message. Their
    content does not depend on the seed, so a program that mishandles them
    fails the same share of operations in every run."""
    bad_profiles = workdir / "malformed-profiles.json"
    bad_profiles.write_text('[{"a":1}]')
    argvs = [
        ["check", "--rule", "blend:rsd:ps:1/0", "--axiom", "ordinality", "--grid", "1/2", "--seed", "1"],
        ["check", "--rule", "blend:rsd:ps:0.5", "--axiom", "ordinality", "--grid", "1/2", "--seed", "1"],
        ["check", "--rule", "utilitarian", "--axiom", "efficiency", "--profiles", str(bad_profiles), "--seed", "1"],
    ]
    return [{"argv": argv, "kind": "usage-error", "meta": {}} for argv in argvs]


def _check_op(argv, rule, axiom, grid, seed) -> dict:
    meta = {"rule": rule, "axiom": axiom, "grid": grid, "seed": seed}
    if axiom == "continuity":
        meta.update(tau=TAU, delta=DELTA)
    return {"argv": argv, "kind": "check", "meta": meta}


def random_profiles(rng: random.Random, count: int) -> list[list[list[str]]]:
    """No-tie three-agent profiles: each agent a random ranking and middle
    rate, half of them in canonical form and half rescaled by a random
    positive affine map."""
    profiles = []
    for _ in range(count):
        rows = []
        for _ in range(3):
            order = rng.choice(ref.all_orders(3))
            values = ref.grid_utility(order, Fraction(rng.randrange(1, 64), 64))
            if rng.randrange(2):
                scale = Fraction(rng.randrange(1, 20), rng.randrange(1, 20))
                shift = Fraction(rng.randrange(-20, 21), rng.randrange(1, 20))
                values = tuple(scale * v + shift for v in values)
            rows.append([str(v) for v in values])
        profiles.append(rows)
    return profiles


def random_bistochastic(rng: random.Random, n: int) -> tuple[tuple[Fraction, ...], ...]:
    """A convex combination of n + 1 random permutation matrices with random
    positive rational weights."""
    grid = [[Fraction(0)] * n for _ in range(n)]
    weights = [rng.randrange(1, 60) for _ in range(n + 1)]
    for weight in weights:
        perm = list(range(n))
        rng.shuffle(perm)
        for agent, obj in enumerate(perm):
            grid[agent][obj] += Fraction(weight, sum(weights))
    return tuple(tuple(row) for row in grid)


WORKLOADS = {
    "grid-scan": grid_scan,
    "lp-solve": lp_solve,
    "stress-family": stress_family,
    "short-commands": short_commands,
}


def build(name: str, seed: int, workdir: Path) -> list[dict]:
    rng = random.Random(f"alloclab-bench:{name}:{seed}")
    return WORKLOADS[name](rng, seed, workdir)
