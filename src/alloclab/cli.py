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
    random_profile,
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
    report_json,
    theorem_stress,
    theorem2_check,
    verify_lemma,
)
from .rules import built_in_family, rule_by_name


class UsageError(ValueError):
    """Bad flags or malformed generator specs."""


class IoError(ValueError):
    """Profile or matrix file is unreadable."""


class ParseError(ValueError):
    """Profile file content is malformed; message carries the location."""


SEEDLESS_AXIOMS = {"strategy-proofness", "non-bossiness", "continuity"}

# Largest accepted --n. all_orders(n) and rsd cost n! per call, and n = 7
# is the largest size measured to finish in seconds.
MAX_N = 7

# Largest accepted --samples and random:count=. Both size a profile list
# that is built in full before the first check: --samples adds that many
# profiles to each of the 216 ordinality cells and 8 per sample to the
# efficiency battery.
MAX_SAMPLES = 1000
MAX_PROFILES = 10_000


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


def _random_profiles(spec: str, config: CheckConfig) -> list[UtilityProfile]:
    """The generator spec 'random:count=N': N seeded random profiles."""
    if not spec.startswith("random:count="):
        raise UsageError(f"unrecognized profile generator spec: {spec!r}")
    count = int(spec[len("random:count=") :])
    if count > MAX_PROFILES:
        raise UsageError(f"random:count must be at most {MAX_PROFILES}, got {count}")
    rng = random.Random(f"{config.seed}:cli-profiles")
    return [random_profile(rng) for _ in range(count)]


def _load_profiles(spec: str | None, config: CheckConfig) -> list[UtilityProfile]:
    if spec is None:
        return default_efficiency_profiles(config)
    if spec.startswith("random:"):
        return _random_profiles(spec, config)
    return parse_profile_file(spec)


def _check_config(args: argparse.Namespace) -> CheckConfig:
    """The declared grid from --grid, --samples and --seed, plus the
    continuity thresholds for the subcommands that take --tau and --delta."""
    if args.samples > MAX_SAMPLES:
        raise UsageError(f"--samples must be at most {MAX_SAMPLES}, got {args.samples}")
    kwargs: dict = {"samples_per_cell": args.samples, "seed": args.seed or 0}
    if args.grid:
        kwargs["mu_grid"] = tuple(parse_fraction(part) for part in args.grid.split(","))
    if getattr(args, "tau", None):
        kwargs["continuity_gap_tau"] = parse_fraction(args.tau)
    if getattr(args, "delta", None):
        kwargs["continuity_interval_delta"] = parse_fraction(args.delta)
    return CheckConfig(**kwargs)


def _emit(payload: str, out: str | None) -> None:
    if out:
        Path(out).write_text(payload)
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _csv_rows(*rows: list) -> str:
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


def _not_ordinal(fields: dict, exc: NotOrdinal | NotOrdinalOnU, out: str | None) -> int:
    """Report a rule that the command's ordinality pre-check rejected."""
    _emit(report_json({**fields, "error": f"{type(exc).__name__}: {exc}"}), out)
    return 1


def _verdict(fields: dict, verdict: Verdict, args: argparse.Namespace) -> int:
    """Write a verdict report; the exit code is 0 on Pass and 1 on Fail."""
    report = {
        **fields,
        "status": verdict.status,
        "grid_description": verdict.coverage,
        "seed": args.seed,
    }
    if verdict.witness is not None:
        report["witness"] = verdict.witness
    _emit(report_json(report), args.out)
    return 0 if verdict.passed else 1


def _run_check(args: argparse.Namespace) -> int:
    # Built per call, so a wrapper installed on these module names after
    # import (perfbench/traced.py) sees the checker calls.
    checkers = {
        "efficiency": lambda rule, config: check_efficiency(
            rule, _load_profiles(args.profiles, config)
        ),
        "strategy-proofness": check_strategy_proofness,
        "sd-strategy-proofness": check_sd_strategy_proofness,
        "non-bossiness": check_non_bossiness,
        "ordinality": check_ordinality,
        "continuity": check_continuity_battery,
    }
    axiom = args.axiom.replace("_", "-")
    if axiom not in checkers:
        raise UsageError(f"--axiom must be one of {', '.join(checkers)}")
    if args.seed is None and axiom not in SEEDLESS_AXIOMS:
        raise UsageError(f"--seed is required for the randomized {axiom} check")
    rule = rule_by_name(args.rule)
    config = _check_config(args)
    fields = {"axiom": axiom, "rule": args.rule}
    started = time.perf_counter()
    try:
        verdict = checkers[axiom](rule, config)
    except NotOrdinal as exc:
        if args.format == "csv":
            return _check_csv(axiom, args, "NotOrdinal")
        return _not_ordinal(fields, exc, args.out)
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    if args.format == "csv":
        return _check_csv(axiom, args, verdict.status)
    return _verdict({**fields, "elapsed_ms": elapsed_ms}, verdict, args)


def _check_csv(axiom: str, args: argparse.Namespace, status: str) -> int:
    """The one-row CSV report of `check`; the exit code is 0 only on Pass."""
    _emit(_csv_rows(["axiom", "rule", "status"], [axiom, args.rule, status]), args.out)
    return 0 if status == "Pass" else 1


def _run_decompose(args: argparse.Namespace) -> int:
    spec = args.matrix
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
    _emit(report_json(decompose(make_allocation(data)).to_dict()), args.out)
    return 0


def _run_lemma(args: argparse.Namespace) -> int:
    matches = [
        lid for lid in LEMMA_IDS if lid == args.lemma or lid.startswith(f"{args.lemma}_")
    ]
    if len(matches) != 1:
        raise UsageError(f"--lemma must be one of {', '.join(LEMMA_IDS)}")
    lemma = matches[0]
    rule = rule_by_name(args.rule) if args.rule else None
    report = verify_lemma(lemma, rule, args.trials, args.seed)
    if args.format == "csv":
        _emit(
            _csv_rows(
                ["lemma", "rule", "trials", "sampled", "failures"],
                [lemma, report.rule, report.trials, report.sampled, report.failures_total],
            ),
            args.out,
        )
    else:
        _emit(report.to_json(), args.out)
    return 0 if report.passed else 1


def _run_stress(args: argparse.Namespace) -> int:
    if not 3 <= args.n <= MAX_N:
        raise UsageError(f"--n must be between 3 and {MAX_N}")
    config = _check_config(args)
    if args.rules:
        family = [rule_by_name(name) for name in args.rules.split(",")]
    else:
        family = built_in_family(args.seed)
    if args.n > 3:
        _emit(report_json(exploration_stress(family, args.n, config)), args.out)
        return 0
    report = theorem_stress(family, config)
    _emit(report.to_csv() if args.format == "csv" else report.to_json(), args.out)
    return 0 if not report.metamorphic_violations else 1


def _run_theorem2(args: argparse.Namespace) -> int:
    rule = rule_by_name(args.rule)
    config = _check_config(args)
    profiles = default_v_profiles(args.seed, args.count)
    try:
        verdict = theorem2_check(rule, profiles, config)
    except NotOrdinalOnU as exc:
        return _not_ordinal({"rule": args.rule}, exc, args.out)
    return _verdict({"command": "theorem2", "rule": args.rule}, verdict, args)


def run(args: argparse.Namespace) -> int:
    """Execute a parsed command; returns the process exit code."""
    if args.command in ("lemma", "stress", "theorem2") and args.seed is None:
        raise UsageError(f"--seed is required for the randomized {args.command} command")
    handlers = {
        "check": _run_check,
        "decompose": _run_decompose,
        "lemma": _run_lemma,
        "stress": _run_stress,
        "theorem2": _run_theorem2,
    }
    return handlers[args.command](args)


# Options that more than one subcommand takes.
SHARED_FLAGS = {
    "--seed": {"type": int},
    "--grid": {"help": "comma-separated mu values, e.g. 1/10,1/2,9/10"},
    "--samples": {"type": int, "default": 2, "help": "random samples per cell"},
    "--out": {"help": "write the report to this path"},
    "--format": {"choices": ("json", "csv"), "default": "json"},
    "--tau": {"help": "continuity gap threshold as p/q"},
    "--delta": {"help": "continuity interval width as p/q"},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alloclab",
        description="Exact-arithmetic laboratory for random allocation rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p: argparse.ArgumentParser, *flags: str) -> None:
        for flag in flags:
            p.add_argument(flag, **SHARED_FLAGS[flag])

    check = sub.add_parser("check", help="run one axiom checker on one rule")
    check.add_argument("--rule", required=True)
    check.add_argument("--axiom", required=True)
    check.add_argument("--profiles", help="profile file or random:count=N")
    shared(check, "--seed", "--grid", "--samples", "--out", "--format", "--tau", "--delta")

    dec = sub.add_parser("decompose", help="decompose a bistochastic matrix")
    dec.add_argument("--matrix", required=True, help="inline JSON or @file.json")
    shared(dec, "--out")

    lemma = sub.add_parser("lemma", help="statement-level lemma trials")
    lemma.add_argument("--lemma", required=True)
    lemma.add_argument("--rule")
    lemma.add_argument("--trials", type=int, default=500)
    shared(lemma, "--seed", "--out", "--format")

    stress = sub.add_parser("stress", help="metamorphic ordinality stress test")
    stress.add_argument("--rules", help="comma-separated rule names; default built-in family")
    shared(stress, "--seed", "--grid", "--samples", "--out", "--format", "--tau", "--delta")
    stress.add_argument(
        "--n", type=int, default=3, help=f"economy size, 3 to {MAX_N}; >3 explores"
    )

    theorem2 = sub.add_parser("theorem2", help="extended-domain ordinality check")
    theorem2.add_argument("--rule", required=True)
    theorem2.add_argument("--count", type=int, default=4, help="number of V-profiles")
    shared(theorem2, "--seed", "--grid", "--samples", "--out")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return run(args)
    except ValueError as exc:  # every input error subclasses ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
