"""Run one alloclab CLI command in this process with spans around the calls
into each layer, then write the spans and memo counters to a JSON file.

Usage: python3 perfbench/traced.py SPANS.json [alloclab CLI arguments...]

A span is (name, start, end, parent): ``name`` is ``<module>.<function>``,
times are ``time.perf_counter`` seconds and ``parent`` is the index of the
enclosing span, or -1. Functions are wrapped in every ``alloclab`` module
that binds them, so calls through ``from ... import`` names are timed too.
Memoized functions are read through ``cache_info()`` instead of wrapped,
except that each rule's cached ``allocate`` gets a span on every miss.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Public functions that get a span, by module.
TRACED = {
    "cli": ("main",),
    "harness": ("theorem_stress", "verify_lemma", "theorem2_check", "exploration_stress"),
    "checkers": (
        "check_efficiency",
        "check_strategy_proofness",
        "check_sd_strategy_proofness",
        "check_non_bossiness",
        "check_ordinality",
        "check_continuity_battery",
        "check_ncc_continuity",
        "default_efficiency_profiles",
    ),
    "rules": ("rule_by_name", "built_in_family"),
    "lp": ("maximize", "find_dominating"),
    "core": ("expected_utility",),
    "ordinal": ("canonicalize", "sd_compare", "separating_utility", "validate_v_domain"),
    "bvn": ("decompose",),
}
# Memoized public functions whose hit and miss counts are reported.
MEMOIZED = {"ordinal": ("utility_from",)}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack = [-1]
        self.counters: dict[str, float] = {}

    def wrap(self, name, fn, on_return=None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount


def _rebind(modules, original, replacement) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> dict:
    modules = [m for name, m in sys.modules.items() if name == "alloclab" or name.startswith("alloclab.")]
    hooks = {
        "harness.verify_lemma": lambda report: tracer.count("harness.lemma_sampled", report.sampled),
        "bvn.decompose": lambda result: tracer.count("bvn.terms", len(result.terms)),
    }
    for layer, names in TRACED.items():
        module = sys.modules[f"alloclab.{layer}"]
        for fname in names:
            original = getattr(module, fname, None)
            if original is None:
                continue
            name = f"{layer}.{fname}"
            hook = hooks.get(name)
            if layer == "checkers" and fname.startswith("check_"):
                hook = lambda verdict: tracer.count("checkers.verdicts")
            _rebind(modules, original, tracer.wrap(name, original, hook))

    memoized = {}
    for layer, names in MEMOIZED.items():
        module = sys.modules[f"alloclab.{layer}"]
        for fname in names:
            original = getattr(module, fname)
            if hasattr(original, "cache_info"):
                memoized[f"{layer}.{fname}"] = original
            else:
                _rebind(modules, original, tracer.wrap(f"{layer}.{fname}", original))

    core = sys.modules["alloclab.core"]
    core.Allocation.__post_init__ = tracer.wrap(
        "core.allocation_validate", core.Allocation.__post_init__
    )

    rules = sys.modules["alloclab.rules"]
    registry = []

    # Planned memo redesigns may drop these lru_caches; an uncached allocate
    # or utility_from is then wrapped whole, so every call is a miss.
    def register(rule) -> None:
        allocate = rule.allocate
        if hasattr(allocate, "cache_info") and hasattr(allocate, "__wrapped__"):
            maxsize = allocate.cache_parameters()["maxsize"]
            inner = tracer.wrap("rules.allocate", allocate.__wrapped__)
            object.__setattr__(rule, "allocate", functools.lru_cache(maxsize=maxsize)(inner))
        else:
            object.__setattr__(rule, "allocate", tracer.wrap("rules.allocate", allocate))
        registry.append(rule)

    for value in list(vars(rules).values()):
        if isinstance(value, rules.Rule) and all(value is not r for r in registry):
            register(value)
    post_init = rules.Rule.__post_init__

    def traced_post_init(self):
        post_init(self)
        register(self)

    rules.Rule.__post_init__ = traced_post_init
    return {"memoized": memoized, "rules": registry, "rules_module": rules}


def memo_counters(state: dict, tracer: Tracer) -> None:
    """Hits are read from the caches; misses are the rules.allocate spans."""
    hits = 0
    entries = 0
    for rule in state["rules"]:
        info = getattr(rule.allocate, "cache_info", None)
        if info is not None:
            hits += info().hits
            entries += info().currsize
    for value in vars(state["rules_module"]).values():
        info = getattr(value, "cache_info", None)
        if callable(info):
            entries += info().currsize
    tracer.count("rules.allocate_hits", hits)
    tracer.count("rules.memo_entries", entries)
    for name, fn in state["memoized"].items():
        info = fn.cache_info()
        tracer.count(f"{name}_calls", info.hits + info.misses)
        tracer.count(f"{name}_misses", info.misses)


class CountingStream:
    """Forwards to the real stdout and counts the bytes of the report."""

    def __init__(self, stream):
        self.stream = stream
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode())
        return self.stream.write(text)

    def __getattr__(self, name):
        return getattr(self.stream, name)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    started = time.perf_counter()
    import alloclab.cli  # noqa: F401  (timed: import of the whole package)

    import_s = time.perf_counter() - started
    tracer = Tracer()
    state = install(tracer)
    stdout = CountingStream(sys.stdout)
    sys.stdout = stdout
    try:
        return sys.modules["alloclab.cli"].main(argv)
    finally:
        sys.stdout = stdout.stream
        memo_counters(state, tracer)
        tracer.count("cli.import_s", import_s)
        tracer.count("cli.report_bytes", stdout.bytes)
        with open(spans_path, "w") as handle:
            json.dump({"names": tracer.names, "spans": tracer.spans, "counters": tracer.counters}, handle)


if __name__ == "__main__":
    sys.exit(main())
