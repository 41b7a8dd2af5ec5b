"""Command-line entry point: load profiles, run checkers and the harness,
emit JSON or CSV reports.

Exit codes: 0 when every verdict in the report passes, 1 on any failing
verdict or metamorphic violation, 2 on usage errors (bad flags, unreadable
or malformed input files), 3 on an internal error, so that a crash never
reads as a failed verdict.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .bvn import decompose
from .checkers import (
    CheckConfig,
    Verdict,
    check_continuity_battery,
    check_efficiency,
    check_non_bossiness,
    check_ordinality,
    check_sd_strategy_proofness,
    check_strategy_proofness,
    default_efficiency_profiles,
    NotOrdinal,
)
from .core import (
    TiesPresent,
    UtilityProfile,
    make_allocation,
    make_utility,
    parse_fraction,
    validate_profile,
)
from .harness import (
    LEMMA_IDS,
    NotOrdinalOnU,
    default_v_profiles,
    exploration_stress,
    theorem_stress,
    theorem2_check,
    verify_lemma,
)
from .ordinal import all_orders, random_rational, utility_from
from .rules import built_in_family, rule_by_name


class UsageError(ValueError):
    """Bad flags or malformed generator specs."""


class IoError(ValueError):
    """Profile or matrix file is unreadable."""


class ParseError(ValueError):
    """Profile file content is malformed; message carries the location."""


AXIOMS = (
    "efficiency",
    "strategy-proofness",
    "sd-strategy-proofness",
    "non-bossiness",
    "ordinality",
    "continuity",
)

SEEDLESS_AXIOMS = {"strategy-proofness", "non-bossiness", "continuity"}

# Largest accepted --n. all_orders(n) and rsd cost n! per call, and n = 7
# is the largest size measured to finish in seconds.
MAX_N = 7


@dataclass
class RunConfig:
    """Parsed invocation: command plus everything the checkers need."""

    command: str
    rule: str | None = None
    rules: str | None = None
    axiom: str | None = None
    profiles: str | None = None
    matrix: str | None = None
    lemma: str | None = None
    trials: int = 500
    count: int = 4
    grid: str | None = None
    samples: int = 2
    seed: int | None = None
    out: str | None = None
    format: str = "json"
    tau: str | None = None
    delta: str | None = None
    n: int = 3


def parse_profile_file(path: str) -> list[UtilityProfile]:
    """Parse a CSV (rows are agents, entries exact rationals) or JSON profile
    file into a list of square no-ties profiles, all with the same number of
    agents, between 3 and MAX_N."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise IoError(f"cannot read profile file {path}: {exc}") from exc
    if path.endswith(".json") or text.lstrip().startswith(("[", "{")):
        profiles = _profiles_from_json(text, path)
    else:
        profiles = _profiles_from_csv(text, path)
    for index, profile in enumerate(profiles):
        if len(profile) != len(profiles[0]):
            raise ParseError(
                f"{path}: profile {index}: {len(profile)} agents, "
                f"but profile 0 has {len(profiles[0])}"
            )
        if not 3 <= len(profile) <= MAX_N:
            raise ParseError(
                f"{path}: profile {index}: {len(profile)} agents; "
                f"expected 3 to {MAX_N}"
            )
    return profiles


def _profiles_from_csv(text: str, path: str) -> list[UtilityProfile]:
    rows = []
    for line_no, record in enumerate(csv.reader(io.StringIO(text)), start=1):
        if not record or all(not field.strip() for field in record):
            continue
        values = []
        for field_no, field in enumerate(record, start=1):
            try:
                values.append(parse_fraction(field))
            except ValueError as exc:
                raise ParseError(
                    f"{path}:{line_no}: field {field_no}: {exc}"
                ) from exc
        rows.append((line_no, values))
    if not rows:
        raise ParseError(f"{path}: no profile rows")
    n = len(rows[0][1])
    if len(rows) % n:
        raise ParseError(
            f"{path}: {len(rows)} agent rows do not form complete "
            f"profiles of {n} agents"
        )
    profiles = []
    for start in range(0, len(rows), n):
        chunk = rows[start : start + n]
        utilities = []
        for agent, (line_no, values) in enumerate(chunk):
            if len(values) != n:
                raise ParseError(f"{path}:{line_no}: expected {n} columns")
            try:
                utilities.append(make_utility(values))
            except TiesPresent as exc:
                raise TiesPresent(f"{path}:{line_no}: agent {agent}: {exc}") from exc
        profile = tuple(utilities)
        validate_profile(profile)
        profiles.append(profile)
    return profiles


def _profiles_from_json(text: str, path: str) -> list[UtilityProfile]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if isinstance(data, dict):
        data = data.get("profiles", data)
    if not isinstance(data, list):
        raise ParseError(f"{path}: expected a list of profiles")
    if data and isinstance(data[0], list) and data[0] and not isinstance(data[0][0], list):
        data = [data]  # a single profile given bare
    profiles = []
    for p_index, entry in enumerate(data):
        if not isinstance(entry, list):
            raise ParseError(f"{path}: profile {p_index}: expected a list of agent rows")
        utilities = []
        for agent, row in enumerate(entry):
            if not isinstance(row, list):
                raise ParseError(
                    f"{path}: profile {p_index}: agent {agent}: expected a list of utilities"
                )
            try:
                utilities.append(make_utility(row))
            except TiesPresent as exc:
                raise TiesPresent(
                    f"{path}: profile {p_index}: agent {agent}: {exc}"
                ) from exc
            except (ValueError, TypeError) as exc:
                raise ParseError(
                    f"{path}: profile {p_index}: agent {agent}: {exc}"
                ) from exc
        profile = tuple(utilities)
        validate_profile(profile)
        profiles.append(profile)
    return profiles


def _generated_profiles(spec: str, config: CheckConfig) -> list[UtilityProfile]:
    """Generator specs: 'grid:mu=1/10,1/2,9/10' or 'random:count=100'."""
    if spec.startswith("grid:mu="):
        grid = tuple(parse_fraction(part) for part in spec[len("grid:mu=") :].split(","))
        return default_efficiency_profiles(
            CheckConfig(
                mu_grid=grid,
                samples_per_cell=0,
                seed=config.seed,
                continuity_gap_tau=config.continuity_gap_tau,
                continuity_interval_delta=config.continuity_interval_delta,
            )
        )
    if spec.startswith("random:count="):
        count = int(spec[len("random:count=") :])
        rng = random.Random(f"{config.seed}:cli-profiles")
        orders = all_orders(3)
        return [
            tuple(
                utility_from(rng.choice(orders), random_rational(rng))
                for _ in range(3)
            )
            for _ in range(count)
        ]
    raise UsageError(f"unrecognized profile generator spec: {spec!r}")


def _load_profiles(spec: str | None, config: CheckConfig) -> list[UtilityProfile]:
    if spec is None:
        return default_efficiency_profiles(config)
    if spec.startswith(("grid:", "random:")):
        return _generated_profiles(spec, config)
    return parse_profile_file(spec)


def _check_config(config: RunConfig) -> CheckConfig:
    kwargs: dict = {"samples_per_cell": config.samples, "seed": config.seed or 0}
    if config.grid:
        kwargs["mu_grid"] = tuple(
            parse_fraction(part) for part in config.grid.split(",")
        )
    if config.tau:
        kwargs["continuity_gap_tau"] = parse_fraction(config.tau)
    if config.delta:
        kwargs["continuity_interval_delta"] = parse_fraction(config.delta)
    return CheckConfig(**kwargs)


def _emit(payload: str, out: str | None) -> None:
    if out:
        Path(out).write_text(payload)
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _verdict_payload(
    config: RunConfig, verdict: Verdict, elapsed_ms: int
) -> str:
    if config.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["axiom", "rule", "status"])
        writer.writerow([config.axiom, config.rule, verdict.status])
        return buffer.getvalue()
    report = {
        "axiom": config.axiom,
        "rule": config.rule,
        "status": verdict.status,
        "grid_description": verdict.coverage,
        "seed": config.seed,
        "elapsed_ms": elapsed_ms,
    }
    if verdict.witness is not None:
        report["witness"] = verdict.witness
    return json.dumps(report, sort_keys=True, indent=2)


def _run_check(config: RunConfig) -> int:
    axiom = (config.axiom or "").replace("_", "-")
    if axiom not in AXIOMS:
        raise UsageError(f"--axiom must be one of {', '.join(AXIOMS)}")
    config.axiom = axiom
    if config.seed is None and axiom not in SEEDLESS_AXIOMS:
        raise UsageError(f"--seed is required for the randomized {axiom} check")
    rule = rule_by_name(config.rule or "")
    check_config = _check_config(config)
    started = time.perf_counter()
    try:
        if axiom == "efficiency":
            profiles = _load_profiles(config.profiles, check_config)
            verdict = check_efficiency(rule, profiles)
        elif axiom == "strategy-proofness":
            verdict = check_strategy_proofness(rule, check_config)
        elif axiom == "sd-strategy-proofness":
            verdict = check_sd_strategy_proofness(rule, check_config)
        elif axiom == "non-bossiness":
            verdict = check_non_bossiness(rule, check_config)
        elif axiom == "ordinality":
            verdict = check_ordinality(rule, check_config)
        else:
            verdict = check_continuity_battery(rule, check_config)
    except NotOrdinal as exc:
        _emit(
            json.dumps(
                {"axiom": axiom, "rule": config.rule, "error": f"NotOrdinal: {exc}"},
                sort_keys=True,
                indent=2,
            ),
            config.out,
        )
        return 1
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    _emit(_verdict_payload(config, verdict, elapsed_ms), config.out)
    return 0 if verdict.passed else 1


def _run_decompose(config: RunConfig) -> int:
    spec = config.matrix or ""
    if spec.startswith("@"):
        try:
            spec = Path(spec[1:]).read_text()
        except OSError as exc:
            raise IoError(f"cannot read matrix file: {exc}") from exc
    try:
        data = json.loads(spec)
    except json.JSONDecodeError as exc:
        raise ParseError(f"matrix is not valid JSON: {exc}") from exc
    if isinstance(data, dict):
        data = data.get("matrix", data)
    alloc = make_allocation(data)
    result = decompose(alloc)
    _emit(json.dumps(result.to_dict(), sort_keys=True, indent=2), config.out)
    return 0


def _run_lemma(config: RunConfig) -> int:
    lemma = config.lemma or ""
    matches = [lid for lid in LEMMA_IDS if lid == lemma or lid.startswith(f"{lemma}_")]
    if len(matches) != 1:
        raise UsageError(f"--lemma must be one of {', '.join(LEMMA_IDS)}")
    lemma = matches[0]
    rule = rule_by_name(config.rule) if config.rule else None
    report = verify_lemma(lemma, rule, config.trials, config.seed or 0)
    if config.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["lemma", "rule", "trials", "sampled", "failures"])
        writer.writerow(
            [lemma, report.rule, report.trials, report.sampled, len(report.failures)]
        )
        _emit(buffer.getvalue(), config.out)
    else:
        _emit(report.to_json(), config.out)
    return 0 if report.passed else 1


def _run_stress(config: RunConfig) -> int:
    check_config = _check_config(config)
    if config.rules:
        family = [rule_by_name(name) for name in config.rules.split(",")]
    else:
        family = built_in_family(config.seed or 0)
    if config.n > 3:
        record = exploration_stress(family, config.n, check_config)
        _emit(json.dumps(record, sort_keys=True, indent=2), config.out)
        return 0
    report = theorem_stress(family, check_config)
    payload = report.to_csv() if config.format == "csv" else report.to_json()
    _emit(payload, config.out)
    return 0 if not report.metamorphic_violations else 1


def _run_theorem2(config: RunConfig) -> int:
    rule = rule_by_name(config.rule or "")
    check_config = _check_config(config)
    profiles = default_v_profiles(config.seed or 0, config.count)
    try:
        verdict = theorem2_check(rule, profiles, check_config)
    except NotOrdinalOnU as exc:
        _emit(
            json.dumps(
                {"rule": config.rule, "error": f"NotOrdinalOnU: {exc}"},
                sort_keys=True,
                indent=2,
            ),
            config.out,
        )
        return 1
    report = {
        "command": "theorem2",
        "rule": config.rule,
        "status": verdict.status,
        "grid_description": verdict.coverage,
        "seed": config.seed,
    }
    if verdict.witness is not None:
        report["witness"] = verdict.witness
    _emit(json.dumps(report, sort_keys=True, indent=2), config.out)
    return 0 if verdict.passed else 1


def run(config: RunConfig) -> int:
    """Execute a parsed command; returns the process exit code."""
    if not 3 <= config.n <= MAX_N:
        raise UsageError(f"--n must be between 3 and {MAX_N}")
    if config.n != 3 and config.command != "stress":
        raise UsageError("--n above 3 is exploration mode; use the stress command")
    if config.command in ("lemma", "stress", "theorem2") and config.seed is None:
        raise UsageError(f"--seed is required for the randomized {config.command} command")
    handlers = {
        "check": _run_check,
        "decompose": _run_decompose,
        "lemma": _run_lemma,
        "stress": _run_stress,
        "theorem2": _run_theorem2,
    }
    return handlers[config.command](config)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alloclab",
        description="Exact-arithmetic laboratory for random allocation rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, seed_required: bool = False) -> None:
        p.add_argument("--seed", type=int, default=None, required=seed_required)
        p.add_argument("--grid", help="comma-separated mu values, e.g. 1/10,1/2,9/10")
        p.add_argument("--samples", type=int, default=2, help="random samples per cell")
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--tau", help="continuity gap threshold as p/q")
        p.add_argument("--delta", help="continuity interval width as p/q")
        p.add_argument("--n", type=int, default=3, help=f"economy size, 3 to {MAX_N}; >3 explores")

    check = sub.add_parser("check", help="run one axiom checker on one rule")
    check.add_argument("--rule", required=True)
    check.add_argument("--axiom", required=True)
    check.add_argument("--profiles", help="profile file, grid:mu=..., or random:count=...")
    common(check)

    dec = sub.add_parser("decompose", help="decompose a bistochastic matrix")
    dec.add_argument("--matrix", required=True, help="inline JSON or @file.json")
    dec.add_argument("--out")
    dec.add_argument("--format", choices=("json",), default="json")

    lemma = sub.add_parser("lemma", help="statement-level lemma trials")
    lemma.add_argument("--lemma", required=True)
    lemma.add_argument("--rule")
    lemma.add_argument("--trials", type=int, default=500)
    common(lemma)

    stress = sub.add_parser("stress", help="metamorphic ordinality stress test")
    stress.add_argument("--rules", help="comma-separated rule names; default built-in family")
    common(stress)

    theorem2 = sub.add_parser("theorem2", help="extended-domain ordinality check")
    theorem2.add_argument("--rule", required=True)
    theorem2.add_argument("--count", type=int, default=4, help="number of V-profiles")
    common(theorem2)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        namespace = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    fields = {f: getattr(namespace, f) for f in vars(namespace)}
    config = RunConfig(**fields)
    try:
        return run(config)
    except ValueError as exc:  # every input error subclasses ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
