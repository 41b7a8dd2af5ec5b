"""alloclab benchmark: cold-process verdict time, peak memory and per-layer
traces over four workloads.

Usage:
  python3 perfbench/run.py --workload grid-scan --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. Each operation is one fresh
``python -m alloclab.cli`` process with ``PYTHONPATH=src``, run one at a
time, because that is how a user pays for a verdict: every rule memo starts
cold. A round is the workload's whole command list. Rounds repeat, at least
twice, while another fits in ``--seconds``. Every report is checked
against the benchmark's own reference rules (see verify.py); the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones:
  setup_s      median start-to-ready time of a no-work ``--help`` process,
               five samples before every round;
  wall_s       median wall time of one round;
  peak_rss_mb  median over rounds of the largest peak resident set of any
               one process of the round.
Both times are given at the CPU speed of a quiet host: each process's
measured time is divided by the slowdown that a speed probe measured on the
same CPU while that process ran (see README.md). The measured times are printed
on standard error. With ``--trace 1`` one untraced round is followed by one
round under traced.py, and the metrics are per layer, computed from the
spans, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

import verify
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_PER_ROUND = 5
MIN_ROUNDS = 2
DEADLINE_S = 170
PROBE_INTERVAL_S = 0.05
# The probe loop's time at full speed on the host the benchmark was tuned
# on (2.1 GHz Xeon VM, Python 3.11); it only sets the unit of the times.
REFERENCE_PROBE_S = 0.0003


class Deadline(Exception):
    pass


def cli_argv(op_argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "alloclab.cli", *op_argv]


def outcome(op: dict, result: dict):
    """(completed, report): whether the operation did what the CLI contract
    promises, and its parsed report for the correctness checks."""
    stderr = result["stderr"].decode(errors="replace")
    if op["kind"] == "usage-error":
        lines = [line for line in stderr.splitlines() if line.strip()]
        return result["code"] == 2 and len(lines) == 1 and "Traceback" not in stderr, None
    if result["code"] not in (0, 1) or "Traceback" in stderr:
        return False, None
    try:
        report = json.loads(result["stdout"])
    except ValueError:
        return False, None
    if not isinstance(report, dict):
        return False, None
    report.pop("elapsed_ms", None)
    return True, report


def _probe_work() -> None:
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(i % 7, i % 11 + 1)


class SpeedProbe:
    """While a command runs, times a short fixed Fraction loop every
    PROBE_INTERVAL_S on the same CPU, so the mean probe time during a
    command measures how fast that CPU ran it."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _loop(self) -> None:
        while True:
            started = time.perf_counter()
            _probe_work()
            self.samples.append(time.perf_counter() - started)
            if self._stop.wait(PROBE_INTERVAL_S):
                return

    def __enter__(self):
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def slowdown(self, first: int = 0) -> float:
        """Mean probe time since sample ``first``, over its full-speed time."""
        return statistics.mean(self.samples[first:]) / REFERENCE_PROBE_S


class Runner:
    """Runs CLI processes one at a time from the checkout root, with the
    speed probe beside each one."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.probe = SpeedProbe()

    def spawn(self, argv: list[str]) -> dict:
        """Run one process to completion; time it and read its own rusage."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        first_probe = len(self.probe.samples)
        with open(out_path, "wb") as out, open(err_path, "wb") as err, self.probe:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            elapsed = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "code": proc.returncode,
            "seconds": elapsed,
            "scaled_seconds": elapsed / self.probe.slowdown(first_probe),
            "rss_mb": usage.ru_maxrss / 1024,
            "stdout": out_path.read_bytes(),
            "stderr": err_path.read_bytes(),
        }

    def run_round(self, ops, traced_dir=None) -> dict:
        results = []
        for index, op in enumerate(ops):
            if traced_dir is None:
                argv = cli_argv(op["argv"])
            else:
                argv = [sys.executable, str(HERE / "traced.py"), str(traced_dir / f"{index}.json"), *op["argv"]]
            results.append(self.spawn(argv))
        outcomes = [outcome(op, result) for op, result in zip(ops, results)]
        return {
            "seconds": sum(r["seconds"] for r in results),
            "scaled_seconds": sum(r["scaled_seconds"] for r in results),
            "rss_mb": max(r["rss_mb"] for r in results),
            "outcomes": [(done, report, r["code"]) for (done, report), r in zip(outcomes, results)],
        }

    def setup_samples(self, count) -> list[dict]:
        """Start-to-ready runs of no-work CLI processes."""
        samples = []
        for _ in range(count):
            result = self.spawn(cli_argv(["--help"]))
            if result["code"] != 0:
                raise SystemExit(f"alloclab --help exited {result['code']}: {result['stderr'][-500:]!r}")
            samples.append(result)
        return samples


def check_round(ops, first: dict, later: dict | None) -> list[str]:
    """Full checks on the first round; later rounds must repeat it exactly."""
    errors = []
    if later is not None:
        for op, a, b in zip(ops, first["outcomes"], later["outcomes"]):
            if a != b:
                errors.append(f"{' '.join(op['argv'])}: output differs between rounds")
        return errors
    for op, (done, report, code) in zip(ops, first["outcomes"]):
        if done and report is not None:
            try:
                found = verify.REPORT_CHECKS[op["kind"]](report, code, op["meta"])
            except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
                found = [f"malformed report ({exc!r})"]
            errors += [f"{' '.join(op['argv'][:5])}: {e}" for e in found]
    return errors


# --- per-layer metrics from spans -------------------------------------------------


PER_LAYER_UNITS = {
    "cli.import_s": "s", "cli.command_s": "s", "cli.report_bytes": "bytes", "cli.self_s": "s",
    "harness.theorem_stress_s": "s", "harness.verify_lemma_s": "s", "harness.theorem2_s": "s",
    "harness.lemma_sampled": "count", "harness.self_s": "s",
    "checkers.scan_s": "s", "checkers.self_s": "s", "checkers.verdicts": "count",
    "rules.allocate_calls": "count", "rules.allocate_misses": "count", "rules.memo_hit_ratio": "ratio",
    "rules.memo_entries": "count", "rules.allocate_self_s": "s",
    "lp.maximize_calls": "count", "lp.maximize_s": "s", "lp.maximize_p50_ms": "ms",
    "lp.find_dominating_calls": "count", "lp.find_dominating_s": "s", "lp.self_s": "s",
    "core.allocations_built": "count", "core.allocation_validate_s": "s",
    "core.expected_utility_calls": "count", "core.self_s": "s",
    "ordinal.utility_from_calls": "count", "ordinal.utility_from_misses": "count",
    "ordinal.canonicalize_calls": "count", "ordinal.canonicalize_s": "s",
    "ordinal.sd_compare_calls": "count", "ordinal.separating_utility_s": "s", "ordinal.self_s": "s",
    "bvn.decompose_calls": "count", "bvn.decompose_s": "s", "bvn.terms": "count",
    "trace.overhead_s": "s", "trace.spans": "count",
}
LAYERS = ("cli", "harness", "checkers", "rules", "lp", "core", "ordinal", "bvn")


def layer_metrics(dumps: list[dict], traced_wall: float, untraced_wall: float) -> dict:
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    import_times = []
    scan_s = 0.0
    span_count = 0
    for dump in dumps:
        names, spans = dump["names"], dump["spans"]
        children = [0.0] * len(spans)
        for name_id, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
        for index, (name_id, start, end, parent) in enumerate(spans):
            name = names[name_id]
            duration = end - start
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + duration
            durations.setdefault(name, []).append(duration)
            self_time[name] = self_time.get(name, 0.0) + duration - children[index]
            if name.startswith("checkers.") and (parent < 0 or not names[spans[parent][0]].startswith("checkers.")):
                scan_s += duration
        span_count += len(spans)
        for key, value in dump["counters"].items():
            if key == "cli.import_s":
                import_times.append(value)
            else:
                counters[key] = counters.get(key, 0) + value

    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in self_time.items():
        self_by_layer[name.split(".", 1)[0]] += seconds
    misses = calls.get("rules.allocate", 0)
    allocate_calls = counters.get("rules.allocate_hits", 0) + misses
    maximize = durations.get("lp.maximize", [])
    metrics = {
        "cli.import_s": statistics.median(import_times) if import_times else 0.0,
        "cli.command_s": total.get("cli.main", 0.0),
        "cli.report_bytes": counters.get("cli.report_bytes", 0),
        "cli.self_s": self_by_layer["cli"],
        "harness.theorem_stress_s": total.get("harness.theorem_stress", 0.0),
        "harness.verify_lemma_s": total.get("harness.verify_lemma", 0.0),
        "harness.theorem2_s": total.get("harness.theorem2_check", 0.0),
        "harness.lemma_sampled": counters.get("harness.lemma_sampled", 0),
        "harness.self_s": self_by_layer["harness"],
        "checkers.scan_s": scan_s,
        "checkers.self_s": self_by_layer["checkers"],
        "checkers.verdicts": counters.get("checkers.verdicts", 0),
        "rules.allocate_calls": allocate_calls,
        "rules.allocate_misses": misses,
        "rules.memo_hit_ratio": (allocate_calls - misses) / allocate_calls if allocate_calls else 0.0,
        "rules.memo_entries": counters.get("rules.memo_entries", 0),
        "rules.allocate_self_s": self_time.get("rules.allocate", 0.0),
        "lp.maximize_calls": calls.get("lp.maximize", 0),
        "lp.maximize_s": total.get("lp.maximize", 0.0),
        "lp.maximize_p50_ms": statistics.median(maximize) * 1000 if maximize else 0.0,
        "lp.find_dominating_calls": calls.get("lp.find_dominating", 0),
        "lp.find_dominating_s": total.get("lp.find_dominating", 0.0),
        "lp.self_s": self_by_layer["lp"],
        "core.allocations_built": calls.get("core.allocation_validate", 0),
        "core.allocation_validate_s": total.get("core.allocation_validate", 0.0),
        "core.expected_utility_calls": calls.get("core.expected_utility", 0),
        "core.self_s": self_by_layer["core"],
        "ordinal.utility_from_calls": counters.get("ordinal.utility_from_calls", calls.get("ordinal.utility_from", 0)),
        "ordinal.utility_from_misses": counters.get("ordinal.utility_from_misses", calls.get("ordinal.utility_from", 0)),
        "ordinal.canonicalize_calls": calls.get("ordinal.canonicalize", 0),
        "ordinal.canonicalize_s": total.get("ordinal.canonicalize", 0.0),
        "ordinal.sd_compare_calls": calls.get("ordinal.sd_compare", 0),
        "ordinal.separating_utility_s": total.get("ordinal.separating_utility", 0.0),
        "ordinal.self_s": self_by_layer["ordinal"],
        "bvn.decompose_calls": calls.get("bvn.decompose", 0),
        "bvn.decompose_s": total.get("bvn.decompose", 0.0),
        "bvn.terms": counters.get("bvn.terms", 0),
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": span_count,
    }
    return {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


# --- driver ------------------------------------------------------------------------


def _on_deadline(signum, frame):
    raise Deadline(f"benchmark exceeded {DEADLINE_S} s")


def _on_terminate(signum, frame):
    raise Deadline(f"benchmark stopped by signal {signum}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "alloclab" / "cli.py").is_file():
        print(f"error: alloclab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_deadline)
    signal.signal(signal.SIGTERM, _on_terminate)
    signal.alarm(DEADLINE_S)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    # One CPU for everything, so that the probe shares the commands' CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        runner = Runner(workdir)
        ops = workloads.build(args.workload, args.seed, workdir)
        runner.spawn(cli_argv(["--help"]))  # fills the bytecode caches
        setup = []
        rounds = []
        errors = []
        started = time.perf_counter()
        while True:
            setup += runner.setup_samples(SETUP_PER_ROUND)
            rounds.append(runner.run_round(ops))
            errors += check_round(ops, rounds[0], rounds[-1] if len(rounds) > 1 else None)
            longest = max(r["seconds"] for r in rounds)
            if args.trace or (
                len(rounds) >= MIN_ROUNDS and time.perf_counter() - started + longest > args.seconds
            ):
                break
        if args.trace:
            traced_dir = workdir / "spans"
            traced_dir.mkdir()
            rounds.append(runner.run_round(ops, traced_dir))
            errors += check_round(ops, rounds[0], rounds[-1])
            dumps = [json.loads((traced_dir / f"{i}.json").read_text()) for i in range(len(ops))]
            metrics = layer_metrics(dumps, rounds[1]["scaled_seconds"], rounds[0]["scaled_seconds"])
            (OUT / f"trace-{args.workload}.json").write_text(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "commands": [op["argv"] for op in ops], "processes": dumps, "metrics": metrics,
            }))
        else:
            metrics = {
                "setup_s": {"value": statistics.median(r["scaled_seconds"] for r in setup), "unit": "s"},
                "wall_s": {"value": statistics.median(r["scaled_seconds"] for r in rounds), "unit": "s"},
                "peak_rss_mb": {"value": statistics.median(r["rss_mb"] for r in rounds), "unit": "MB"},
            }
    except Deadline as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)

    for error in errors:
        print(f"incorrect: {error}", file=sys.stderr)
    attempted = len(ops) * len(rounds)
    failed = sum(not done for r in rounds for done, _, _ in r["outcomes"])
    print(f"{args.workload}: {len(rounds)} rounds; measured round walls "
          f"{[round(r['seconds'], 3) for r in rounds]} s, setup median "
          f"{statistics.median(r['seconds'] for r in setup):.4f} s; mean CPU slowdown "
          f"{runner.probe.slowdown():.3f} from {len(runner.probe.samples)} probes", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
