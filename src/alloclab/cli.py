"""Command-line entry point: load profiles, run checkers and the harness,
and write their results as reports. Every report becomes bytes in one
writer, `_write`: JSON through `checkers.report_json`, or CSV.

Exit codes: 1 from `check` and `theorem2` on a Fail or when the ordinality
pre-check rejects the rule, from `lemma` iff it recorded a failure, and from
`stress` only on a metamorphic violation (`stress --n 4` and `decompose`
exit 0); 2 on usage errors (bad flags, unreadable or malformed input
files); 3 on an internal error, so that a crash never reads as a failed
verdict; 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
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
    report_json,
    NotOrdinal,
)
from .core import (
    BernoulliUtility,
    DimensionMismatch,
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
from .rules import built_in_family, forget, rule_by_name


class UsageError(ValueError):
    """Bad flags or malformed generator specs."""


class IoError(ValueError):
    """Profile or matrix file is unreadable, or the report file unwritable."""


class ParseError(ValueError):
    """Profile file or matrix content is malformed; message carries the location."""


SEEDLESS_AXIOMS = {"strategy-proofness", "non-bossiness", "continuity"}

# Largest accepted --n. all_orders(n) and rsd cost n! per call, and n = 7
# is the largest size measured to finish in seconds.
MAX_N = 7

# Largest accepted --samples and random:count=. Both size a profile list
# that is built in full before the first check: --samples adds that many
# profiles to each of the 216 ordinality cells of a rule that does not read
# only rankings (a rankings-keyed rule is proved by its key, with no rule
# call, and builds none of them) and 8 per sample to the efficiency battery.
MAX_SAMPLES = 1000
MAX_PROFILES = 10_000

# Largest accepted theorem2 --count and lemma --trials. All V-profiles are
# built and validated before the check, at about 14 ms each; a lemma trial
# takes about 0.2-2.5 ms, and up to 26 ms when rejection sampling finds no
# instance, so both caps keep a run to minutes at most.
MAX_V_PROFILES = 1000
MAX_TRIALS = 10_000

# Largest accepted number of --grid rates. A deviation scan of a rule with a
# cardinal key costs the cube of the rate count: non-bossiness took 0.2 s and
# 16.8 MB at 7 rates and 0.3-0.4 s and 17.6 MB at 10 for utilitarian, and
# 0.2 s and 17.4 MB, 0.4-0.6 s and 19.6 MB for blend:rsd:utilitarian:1/2; a
# 10-rate stress run took 1.4-1.9 s and 20.3 MB (whole process, peak RSS,
# 2 vCPUs, Python 3.11).
MAX_GRID_RATES = 10


def parse_profile_file(path: str) -> list[UtilityProfile]:
    """Parse a CSV (rows are agents, entries exact rationals) or JSON profile
    file into a list of square no-ties profiles, all with the same number of
    agents, between 3 and MAX_N."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise IoError(f"cannot read profile file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
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
            utilities.append(_utility(values, f"{path}:{line_no}: agent {agent}"))
        profile = tuple(utilities)
        validate_profile(profile)
        profiles.append(profile)
    return profiles


def _profiles_from_json(text: str, path: str) -> list[UtilityProfile]:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
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
            utilities.append(_utility(row, f"{path}: profile {p_index}: agent {agent}"))
        profile = tuple(utilities)
        try:
            validate_profile(profile)
        except DimensionMismatch as exc:
            raise ParseError(f"{path}: profile {p_index}: {exc}") from exc
        profiles.append(profile)
    if not profiles:
        raise ParseError(f"{path}: no profiles")
    return profiles


def _utility(row: list, where: str) -> BernoulliUtility:
    """One agent's utility row; a malformed row is reported at `where`."""
    try:
        return make_utility(row)
    except TiesPresent as exc:
        raise TiesPresent(f"{where}: {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _random_profiles(spec: str, config: CheckConfig) -> list[UtilityProfile]:
    """The generator spec 'random:count=N': N seeded random profiles."""
    if not spec.startswith("random:count="):
        raise UsageError(f"unrecognized profile generator spec: {spec!r}")
    text = spec[len("random:count=") :]
    count = int(text) if text.isdecimal() else 0
    if count < 1:
        raise UsageError(
            f"random:count must be an integer from 1 to {MAX_PROFILES}, got {text!r}"
        )
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
    if args.grid is not None:
        rates = args.grid.split(",")
        if len(rates) > MAX_GRID_RATES:
            raise UsageError(f"--grid takes at most {MAX_GRID_RATES} rates, got {len(rates)}")
        kwargs["mu_grid"] = tuple(parse_fraction(part) for part in rates)
    if getattr(args, "tau", None) is not None:
        kwargs["continuity_gap_tau"] = parse_fraction(args.tau)
    if getattr(args, "delta", None) is not None:
        kwargs["continuity_interval_delta"] = parse_fraction(args.delta)
    return CheckConfig(**kwargs)


def _write(args: argparse.Namespace, report: dict, rows: list[list] | tuple = ()) -> None:
    """Write a command's report, the one place a result becomes bytes: its
    JSON form, or under `--format csv` the CSV of `rows`, header first. The
    report goes to `--out`, else to stdout."""
    if getattr(args, "format", "json") == "csv":
        buffer = io.StringIO()
        csv.writer(buffer).writerows(rows)
        payload = buffer.getvalue()
    else:
        payload = report_json(report)
    if args.out is not None:
        try:
            Path(args.out).write_text(payload)
        except OSError as exc:
            raise IoError(f"cannot write report to {args.out!r}: {exc.strerror}") from exc
    elif sys.stdout is None:  # the process started with stdout closed
        raise IoError("cannot write report to stdout: it is closed")
    else:
        try:
            print(payload, end="" if payload.endswith("\n") else "\n", flush=True)
        except OSError as exc:
            # `entry` flushes stdout again at exit: point it at devnull, so
            # that the error line stays the only message.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise IoError(f"cannot write report to stdout: {exc.strerror}") from exc


def _verdict(fields: dict, verdict: Verdict, seed: int | None) -> dict:
    """A verdict's report: `fields`, then the verdict and the seed."""
    report = {
        **fields,
        "status": verdict.status,
        "grid_description": verdict.coverage,
        "seed": seed,
    }
    if verdict.witness is not None:
        report["witness"] = verdict.witness
    return report


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
        status, report = "NotOrdinal", {**fields, "error": f"NotOrdinal: {exc}"}
    else:
        elapsed_ms = int((time.perf_counter() - started) * 1000)
        status = verdict.status
        report = _verdict({**fields, "elapsed_ms": elapsed_ms}, verdict, args.seed)
    _write(args, report, [["axiom", "rule", "status"], [axiom, args.rule, status]])
    return 0 if status == "Pass" else 1


def _run_decompose(args: argparse.Namespace) -> int:
    spec = args.matrix
    if spec.startswith("@"):
        try:
            spec = Path(spec[1:]).read_text()
        except OSError as exc:
            raise IoError(f"cannot read matrix file: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"matrix file {spec[1:]}: {exc}") from exc
    try:
        data = json.loads(spec)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"matrix is not valid JSON: {exc}") from exc
    if isinstance(data, dict) and "matrix" in data:
        data = data["matrix"]
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ParseError("matrix must be a JSON list of rows, each a JSON list")
    # `decompose` searches matchings by backtracking: bound n before any entry is read.
    if len(data) > MAX_N or any(len(row) > MAX_N for row in data):
        raise UsageError(f"matrix has more than {MAX_N} rows or a row of more than {MAX_N} entries")
    try:
        matrix = make_allocation(data)
    except TypeError as exc:
        raise ParseError(f"matrix is not a square grid of exact rationals: {exc}") from exc
    _write(args, decompose(matrix).to_dict())
    return 0


def _run_lemma(args: argparse.Namespace) -> int:
    matches = [
        lid for lid in LEMMA_IDS if lid == args.lemma or lid.startswith(f"{args.lemma}_")
    ]
    if len(matches) != 1:
        raise UsageError(f"--lemma must be one of {', '.join(LEMMA_IDS)}")
    lemma = matches[0]
    if args.trials > MAX_TRIALS:
        raise UsageError(f"--trials must be at most {MAX_TRIALS}, got {args.trials}")
    rule = rule_by_name(args.rule) if args.rule is not None else None
    report = verify_lemma(lemma, rule, args.trials, args.seed)
    data = {name: getattr(report, name) for name in report.__slots__}
    if report.failures_total == len(report.failures):
        del data["failures_total"]  # it appears only when witnesses were dropped
    _write(args, data, [
        ["lemma", "rule", "trials", "sampled", "failures"],
        [lemma, report.rule, report.trials, report.sampled, report.failures_total],
    ])
    return 0 if report.passed else 1


def _run_stress(args: argparse.Namespace) -> int:
    if not 3 <= args.n <= MAX_N:
        raise UsageError(f"--n must be between 3 and {MAX_N}")
    if args.n > 3 and args.format == "csv":
        raise UsageError("--format csv needs --n 3: the n > 3 exploration report is JSON only")
    config = _check_config(args)
    if args.rules is not None:
        family = [rule_by_name(name) for name in args.rules.split(",")]
        names = [rule.name for rule in family]
        for index, name in enumerate(names):
            if name in names[:index]:
                raise UsageError(f"--rules names {name} twice")
    else:
        family = built_in_family(args.seed)
    if args.n > 3:
        _write(args, exploration_stress(family, args.n, config))
        return 0
    report = theorem_stress(family, config)
    _write(args, {name: getattr(report, name) for name in report.__slots__}, [
        ["rule", "axiom", "status"],
        *([rule, axiom, verdict["status"]]
          for rule in report.rules_tested
          for axiom, verdict in report.verdicts[rule].items()),
    ])
    return 0 if not report.metamorphic_violations else 1


def _run_theorem2(args: argparse.Namespace) -> int:
    if args.count > MAX_V_PROFILES:
        raise UsageError(f"--count must be at most {MAX_V_PROFILES}, got {args.count}")
    rule = rule_by_name(args.rule)
    config = _check_config(args)
    profiles = default_v_profiles(args.seed, args.count)
    try:
        verdict = theorem2_check(rule, profiles, config)
    except NotOrdinalOnU as exc:
        _write(args, {"rule": args.rule, "error": f"NotOrdinalOnU: {exc}"})
        return 1
    _write(args, _verdict({"command": "theorem2", "rule": args.rule}, verdict, args.seed))
    return 0 if verdict.passed else 1


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


class _Parser(argparse.ArgumentParser):
    """Raises `UsageError` where argparse would print its usage and exit 2,
    so a bad flag gets the same one-line message as every other input error.
    `add_subparsers` builds each subcommand's parser with this class too."""

    def error(self, message: str):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    forget()  # each command starts from no memo, so it keeps only its own
    try:
        return run(_build_parser().parse_args(argv))
    except SystemExit as exc:  # --help
        return 2 if exc.code else 0
    except ValueError as exc:  # every input error subclasses ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    """The process's entry point (`python -m alloclab.cli` and the
    `alloclab` script): `main`, then flush stdout and stderr and end the
    process with `os._exit`, without the interpreter's teardown.

    The report is written by then, and no object here has a finalizer or
    holds an open file, so teardown would only free what the process ends
    anyway. Only argparse's usage text may still sit in stdout's buffer: if
    it cannot be flushed, the exit is 2 with one stderr line, as for a
    report `_write` cannot write. `main` itself never exits: tests and
    perfbench's traced runs call it in-process."""
    status = main()
    try:
        if sys.stdout is not None:  # the process may start with it closed
            sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write to stdout: {exc.strerror}", file=sys.stderr)
        status = 2
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    entry()
