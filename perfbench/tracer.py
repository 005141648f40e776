"""Traced mode: calls, self time and result counts per ``qnets`` layer, taken
by wrapping module attributes from outside the library.

A wrapper replaces the function in every ``qnets`` module namespace that
bound it (``from .theory import combine`` copies the name), and the suite
table entries of ``qnets.suites``. :meth:`Tracer.remove` puts every original
back. A span's self time is its duration minus the time of the traced spans
it encloses.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager

from specs import SUITES

# (module, attribute, span name)
SPANS = [
    ("theory", "check_canonical", "theory.check_canonical"),
    ("theory", "combine", "theory.combine"),
    ("theory", "occurrences", "theory.occurrences"),
    ("theory", "extend", "theory.extend"),
    ("theory", "translate", "theory.translate"),
    ("jsonio", "dumps", "jsonio.dumps"),
    ("jsonio", "elem_from_json", "jsonio.decode"),
    ("jsonio", "net_from_json", "jsonio.decode"),
    ("freecat", "_merge_candidates", "freecat.merge_candidates"),
    ("freecat", "_split_candidates", "freecat.split_candidates"),
    ("freecat", "_greedy", "freecat.greedy"),
    ("freecat", "_search_connect", "freecat.search"),
    ("freecat", "_context", "freecat.context"),
    ("freecat", "_layered_ctx", "freecat.layering"),
    ("freecat", "_endpoints", "freecat.layering"),
    ("freecat", "mor_equal", "freecat.mor_equal"),
    ("freecat", "_forms_equal", "freecat.forms_equal"),
    ("freecat", "hom_enumerate", "freecat.hom_enumerate"),
    ("freecat", "_step_layers", "freecat.step_layers"),
    ("freecat", "reachable", "freecat.reachable"),
    ("freecat", "hom_nonempty_group", "freecat.hom_nonempty_group"),
    ("symmetry", "sym_equal", "symmetry.sym_equal"),
    ("symmetry", "linearizations", "symmetry.linearizations"),
    ("net", "validate_net", "net.validate_net"),
    ("net", "apply_net_functor", "net.apply_net_functor"),
    ("net", "product", "net.product"),
    ("net", "enumerate_morphisms", "net.enumerate_morphisms"),
    ("reflexive", "graph_to_net_transpose", "reflexive.transpose"),
    ("reflexive", "net_to_graph_transpose", "reflexive.transpose"),
    ("reflexive", "enumerate_reflexive_morphisms", "reflexive.enumerate_reflexive_morphisms"),
    ("cli", "run", "cli.run"),
]

# Generator functions: counted per call, not timed (their work runs lazily
# inside the caller's span).
COUNTED = [
    ("freecat", "_neighbors", "freecat.search.expansions"),
    ("symmetry", "_sym_neighbors", "symmetry.search.expansions"),
]

_THEORY = ["theory.check_canonical.calls", "theory.check_canonical.ms",
           "theory.combine.calls", "theory.combine.ms",
           "theory.occurrences.calls", "theory.occurrences.ms", "theory.extend.ms"]
_SEARCH = ["freecat.merge_candidates.calls", "freecat.merge_candidates.ms",
           "freecat.split_candidates.calls", "freecat.split_candidates.ms",
           "freecat.greedy.calls", "freecat.greedy.ms",
           "freecat.search.calls", "freecat.search.ms", "freecat.search.expansions",
           "freecat.search.budget_exhausted"]
_PHASES = ["freecat.forms_equal.calls", "freecat.forms_equal.ms"] + [
    f"freecat.forms_equal.by_{p}" for p in ("invariant", "identical", "greedy", "search",
                                           "budget")]

# Per-layer metrics reported for each workload in a traced run.
LAYER_METRICS = {
    "reach": _THEORY + [
        "jsonio.dumps.calls", "jsonio.dumps.ms", "freecat.context.calls",
        "freecat.context.ms", "freecat.reachable.calls", "freecat.reachable.ms",
        "freecat.reachable.markings", "freecat.reachable.edges", "trace_overhead"],
    "equal": _THEORY + _SEARCH + [
        "symmetry.sym_equal.calls", "symmetry.sym_equal.ms", "symmetry.search.expansions",
        "freecat.context.calls", "freecat.context.ms", "freecat.layering.ms",
        "freecat.mor_equal.calls", "freecat.mor_equal.ms"] + _PHASES + ["trace_overhead"],
    "homset": _THEORY + _SEARCH + _PHASES + [
        "freecat.hom_enumerate.calls", "freecat.hom_enumerate.ms",
        "freecat.hom_enumerate.classes_per_equal_call",
        "freecat.step_layers.calls", "freecat.step_layers.ms", "trace_overhead"],
    "cli": [
        "net.validate_net.calls", "net.validate_net.ms", "net.apply_net_functor.ms",
        "net.product.ms", "net.enumerate_morphisms.ms", "reflexive.transpose.ms",
        "reflexive.enumerate_reflexive_morphisms.ms", "symmetry.linearizations.ms",
        "freecat.hom_nonempty_group.ms"] + [f"suites.{s}.ms" for s in SUITES] + [
        "cli.run.ms", "cli.startup_ms", "jsonio.dumps.calls", "jsonio.dumps.ms",
        "jsonio.decode.ms", "theory.translate.ms", "theory.check_canonical.calls",
        "theory.check_canonical.ms", "theory.combine.calls", "theory.combine.ms",
        "trace_overhead"],
}


def metric_unit(name: str) -> str:
    if name.endswith(".ms") or name.endswith("_ms"):
        return "ms"
    if name == "trace_overhead" or name.endswith("_per_equal_call"):
        return "ratio"
    return "count"


MAX_SPANS = 20_000  # spans kept for the written trace file
SPAN_DEPTH = 2      # spans kept only this many levels below a query's root


def verdict_phase(reason: str) -> str:
    """Which stage of ``_forms_equal`` settled a verdict, from its reason."""
    if reason in ("endpoints differ", "generator occurrence counts differ"):
        return "invariant"
    if reason == "identical layered forms":
        return "identical"
    if reason == "greedy canonical forms agree":
        return "greedy"
    if reason.startswith("budget"):
        return "budget"
    return "search"


def _qnets_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qnets" or name.startswith("qnets."))]


class Tracer:
    """Holds spans and counts for one traced run; install, run, remove."""

    def __init__(self):
        self.stats: dict[str, list] = {}   # span name -> [calls, self seconds]
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []       # (id, parent, name, start, end, query)
        self._stack: list[list] = []       # [span id, enclosed seconds]
        self._next_id = 0
        self._query = None
        self._patched: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def _enter(self) -> tuple[int, float]:
        self._next_id += 1
        self._stack.append([self._next_id, 0.0])
        return self._next_id, time.perf_counter()

    def _exit(self, name: str, span_id: int, start: float) -> None:
        end = time.perf_counter()
        dt = end - start
        _, enclosed = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dt
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0]
        stat[0] += 1
        stat[1] += dt - enclosed
        if len(self._stack) <= SPAN_DEPTH and len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent[0] if parent else None, name, start, end,
                               self._query))

    @contextmanager
    def query(self, name: str):
        """Root span of one benchmark query; its spans share its identifier."""
        self._query = name
        span_id, start = self._enter()
        try:
            yield
        finally:
            self._exit("query", span_id, start)
            self._query = None

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            span_id, start = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, span_id, start)
            tracer._observe(name, result)
            return result

        traced.__wrapped__ = fn
        traced.perfbench_traced = True
        return traced

    def _wrap_counted(self, fn, name: str):
        tracer = self

        def counted(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        counted.perfbench_traced = True
        return counted

    def _observe(self, name: str, result) -> None:
        if name == "freecat.forms_equal":
            self.count(f"freecat.forms_equal.by_{verdict_phase(result.reason)}")
        elif name == "freecat.search":
            if result.is_unknown:
                self.count("freecat.search.budget_exhausted")
        elif name == "freecat.reachable":
            self.count("freecat.reachable.markings", len(result.markings))
            self.count("freecat.reachable.edges", len(result.edges))
        elif name == "freecat.hom_enumerate":
            self.count("freecat.hom_enumerate.classes", len(result))

    def _replace_everywhere(self, original, wrapper) -> None:
        for module in _qnets_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        # Import every module first, so none binds a wrapper while loading.
        modules = {mod: importlib.import_module(f"qnets.{mod}") for mod, _, _ in SPANS + COUNTED}
        importlib.import_module("qnets.suites")
        for mod, attr, name in SPANS + COUNTED:
            original = getattr(modules[mod], attr)
            make = self._wrap_counted if (mod, attr, name) in COUNTED else self._wrap
            self._replace_everywhere(original, make(original, name))
        table = importlib.import_module("qnets.suites").SUITES
        for suite, fns in list(table.items()):
            table[suite] = tuple(self._wrap(fn, f"suites.{suite}") for fn in fns)
            self._patched.append((table, suite, fns))

    def remove(self) -> None:
        for target, attr, original in reversed(self._patched):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patched.clear()

    # -- results --------------------------------------------------------------

    def value(self, metric: str) -> float:
        """A per-layer metric from the recorded spans and counts."""
        if metric == "freecat.hom_enumerate.classes_per_equal_call":
            calls = self.stats.get("freecat.forms_equal", [0, 0.0])[0]
            return self.counts.get("freecat.hom_enumerate.classes", 0) / max(calls, 1)
        span, _, field = metric.rpartition(".")
        if field == "calls":
            return self.stats.get(span, [0, 0.0])[0]
        if field == "ms":
            return self.stats.get(span, [0, 0.0])[1] * 1000.0
        return self.counts.get(metric, 0)

    def write(self, path: str, workload: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload,
                       "stats": {k: {"calls": v[0], "self_ms": v[1] * 1000.0}
                                 for k, v in sorted(self.stats.items())},
                       "counts": dict(sorted(self.counts.items())),
                       "spans": [dict(zip(("id", "parent", "name", "start", "end", "query"), s))
                                 for s in self.spans]}, fh)


def leftover_wrappers() -> list[str]:
    """Names still bound to a tracing wrapper; empty after a clean removal."""
    left = []
    for module in _qnets_modules():
        for attr, value in vars(module).items():
            if getattr(value, "perfbench_traced", False):
                left.append(f"{module.__name__}.{attr}")
    suites = sys.modules.get("qnets.suites")
    if suites is not None:
        for suite, fns in suites.SUITES.items():
            if any(getattr(fn, "perfbench_traced", False) for fn in fns):
                left.append(f"qnets.suites.SUITES[{suite!r}]")
    return left
