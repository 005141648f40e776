"""qnets benchmark: seeded workloads, closed loop, referee-checked answers.

    python3 perfbench/run.py --workload reach --seed 1 --seconds 10 --trace 0

One caller sends queries back to back (a closed loop): each starts when the
previous one has returned. A run sets up SETUPS times (import ``qnets``,
build and validate the inputs, write the CLI's net files) and reports the
median, then repeats whole passes over the workload's queries until
``--seconds`` of query time have been measured and MIN_QUERIES have run.
Every answer is checked against the referee after the measurement.

``--trace 0`` prints the end-to-end metrics of one workload. ``--trace 1``
runs every workload once untraced and once with the per-layer wrappers of
:mod:`tracer` installed, and prints the per-layer metrics of all of them
(prefixed by workload) plus each workload's tracing overhead; it writes the
spans and counts to ``perfbench/_out/``. ``--compare`` prints each metric's
ratio to the baseline recorded in ``perfbench/baseline.json``.

Human-readable lines come first; the last line of standard output is one JSON
object. The exit code is 1 when any answer disagrees with the referee.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import prepare  # noqa: E402
import referee  # noqa: E402
import specs as S  # noqa: E402
import tracer as T  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "decided_frac": "ratio",
    "peak_rss_mb": "MB",
}
OUT = os.path.join(HERE, "_out")
SETUPS = 9         # set-ups per run; setup_s is their median
MIN_QUERIES = 100  # so that query_p90_ms has at least ten samples beyond it


class Tally:
    """Per-query answers, counted by distinct value, plus raised attempts."""

    def __init__(self, n: int):
        self.answers: list[dict] = [{} for _ in range(n)]
        self.raised = [0] * n
        self.decided = 0
        self.verdicts = 0

    def record(self, i: int, query: prepare.Query, raw, exc) -> None:
        if exc is not None:
            self.raised[i] += 1
            return
        ans = query.answer(raw)
        self.answers[i][ans] = self.answers[i].get(ans, 0) + 1
        if query.spec["op"] in ("mor_equal", "sym_equal"):
            self.verdicts += 1
            self.decided += query.decided(raw)

    def failures(self, prepared: prepare.Prepared, expected: list) -> int:
        failed = sum(self.raised)
        for query, exp, seen in zip(prepared.queries, expected, self.answers):
            if query.spec["op"] == "cli" and len(seen) > 1:
                failed += sum(seen.values())  # a repeat printed other bytes
            else:
                failed += sum(n for ans, n in seen.items()
                              if not referee.matches(query.spec, exp, ans))
        return failed


def _call(fn):
    try:
        return fn(), None
    except Exception as exc:  # a raising query is a failed query, not a crash
        return None, exc


# A shared machine's speed drifts (on a 2-vCPU VM, by up to a factor of two
# within seconds). Timings are therefore scaled to a nominal
# interpreter speed: a fixed pure-Python kernel runs before the first query
# and after every REFERENCE_EVERY_S of query time, and each query's latency is
# multiplied by REFERENCE_S over the mean of the kernel times just before and
# just after it.
REFERENCE_S = 0.005
REFERENCE_EVERY_S = 0.1


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of dict, tuple and sort work.

    The cyclic collector is off while it runs, so that sweeping garbage left
    by the code under test is not charged to the kernel.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        counts: dict[tuple, int] = {}
        for i in range(8000):
            key = (i % 97, i % 13)
            counts[key] = counts.get(key, 0) + 1
            tuple(sorted((i % 5, i % 3, i % 7)))
        return time.perf_counter() - t0
    finally:
        gc.enable()


def measure(prepared: prepare.Prepared, seconds: float, min_queries: int):
    """Whole passes until ``seconds`` of query time and ``min_queries``;
    returns each pass's latencies scaled to nominal speed."""
    tally = Tally(len(prepared.queries))
    passes: list[list[float]] = []
    busy = 0.0
    while busy < seconds or sum(map(len, passes)) < min_queries:
        scaled: list[float] = []
        pending: list[float] = []
        before = reference_kernel()
        for i, query in enumerate(prepared.queries):
            t0 = time.perf_counter()
            raw, exc = _call(query.call)
            dt = time.perf_counter() - t0
            tally.record(i, query, raw, exc)
            pending.append(dt)
            busy += dt
            if sum(pending) >= REFERENCE_EVERY_S or i == len(prepared.queries) - 1:
                after = reference_kernel()
                scale = REFERENCE_S / ((before + after) / 2)
                scaled += [x * scale for x in pending]
                pending, before = [], after
        passes.append(scaled)
    return passes, tally


def summarize(passes: list[list[float]]) -> dict[str, float]:
    """Throughput as the median over passes; p50 and p90 over all queries."""
    pooled = [x for xs in passes for x in xs]
    return {
        "queries_per_s": statistics.median(len(xs) / sum(xs) for xs in passes),
        "query_p50_ms": statistics.median(pooled) * 1e3,
        "query_p90_ms": statistics.quantiles(pooled, n=10, method="inclusive")[8] * 1e3,
    }


def _expected(q, prepared: prepare.Prepared, workload_specs: dict) -> list:
    return [referee.expect(q, query.spec, workload_specs["files"])
            for query in prepared.queries]


def _workdir(workload: str) -> str | None:
    return os.path.join(OUT, f"cli-{os.getpid()}") if workload == "cli" else None


def _homset_decided(prepared: prepare.Prepared) -> float:
    """Share of hom-set equality comparisons not left ``unknown``, from one
    extra, untimed pass after the measurement with the tracer installed."""
    tracer = T.Tracer()
    tracer.install()
    try:
        for query in prepared.queries:
            _call(query.call)
    finally:
        tracer.remove()
    calls = tracer.value("freecat.forms_equal.calls")
    return 1.0 - tracer.value("freecat.forms_equal.by_budget") / max(calls, 1)


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    workload_specs = S.make_specs(workload, seed)
    workdir = _workdir(workload)
    try:
        setup_times = []
        for _ in range(SETUPS):
            gc.collect()  # garbage of the previous import is not set-up work
            kernel = reference_kernel()
            t0 = time.perf_counter()
            q = prepare.fresh_import()
            prepared = prepare.prepare(q, workload, workload_specs, workdir)
            elapsed = time.perf_counter() - t0
            kernel = statistics.median((kernel, reference_kernel(), reference_kernel()))
            setup_times.append(elapsed * REFERENCE_S / kernel)
        gc.collect()
        passes, tally = measure(prepared, seconds, MIN_QUERIES)
        usage = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
        if workload == "equal":
            decided = tally.decided / max(tally.verdicts, 1)
        elif workload == "homset":
            decided = _homset_decided(prepared)
        else:
            decided = 1.0
        failed = tally.failures(prepared, _expected(q, prepared, workload_specs))
    finally:
        if workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    values = {"setup_s": statistics.median(setup_times), **summarize(passes),
              "decided_frac": decided, "peak_rss_mb": peak_rss_mb}
    attempted = sum(map(len, passes))
    return {"workload": workload, "attempted": attempted, "failed": failed,
            "error_rate": failed / attempted, "passes": len(passes),
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}}


def _one_pass(prepared, tally, calls, tracer=None) -> list[float]:
    """One pass with the given callable per query; returns wall times."""
    times = []
    for i, (query, fn) in enumerate(zip(prepared.queries, calls)):
        t0 = time.perf_counter()
        if tracer is None:
            raw, exc = _call(fn)
        else:
            with tracer.query(query.spec["name"]):
                raw, exc = _call(fn)
        times.append(time.perf_counter() - t0)
        tally.record(i, query, raw, exc)
    return times


def run_traced(seed: int) -> dict:
    """Every workload once untraced and once traced; per-layer metrics."""
    os.makedirs(OUT, exist_ok=True)
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for workload in S.WORKLOADS:
        workload_specs = S.make_specs(workload, seed)
        workdir = _workdir(workload)
        try:
            q = prepare.fresh_import()
            prepared = prepare.prepare(q, workload, workload_specs, workdir)
            tally = Tally(len(prepared.queries))
            calls = [query.call for query in prepared.queries]
            if workload == "cli":
                # Traced passes run ``cli.run`` in-process; the subprocess
                # pass only gives the start-up difference.
                sub_times = _one_pass(prepared, tally, calls)
                calls = [lambda argv=query.spec["argv"]: prepare.cli_in_process(argv, workdir)
                         for query in prepared.queries]
            base_times = _one_pass(prepared, tally, calls)
            tracer = T.Tracer()
            tracer.install()
            try:
                traced_times = _one_pass(prepared, tally, calls, tracer)
            finally:
                tracer.remove()
            left = T.leftover_wrappers()
            if left:
                raise RuntimeError(f"tracing wrappers left installed: {left}")
            tracer.write(os.path.join(OUT, f"trace-{workload}-{seed}.json"), workload)
            expected = _expected(q, prepared, workload_specs)
            attempted += len(prepared.queries) * (3 if workload == "cli" else 2)
            failed += tally.failures(prepared, expected)
        finally:
            if workdir:
                shutil.rmtree(workdir, ignore_errors=True)
        for name in T.LAYER_METRICS[workload]:
            if name == "trace_overhead":
                value = sum(traced_times) / sum(base_times)
            elif name == "cli.startup_ms":
                value = statistics.median(
                    s - b for s, b in zip(sub_times, base_times)) * 1000.0
            else:
                value = tracer.value(name)
            metrics[f"{workload}.{name}"] = {"value": value, "unit": T.metric_unit(name)}
    return {"workload": "all", "attempted": attempted, "failed": failed, "metrics": metrics}


def compare(report: dict, baseline_path: str) -> None:
    with open(baseline_path, encoding="utf-8") as fh:
        baseline = json.load(fh)["workloads"]
    base = baseline.get(report["workload"], {})
    for name, m in report["metrics"].items():
        if name in base:
            ratio = m["value"] / base[name] if base[name] else float("nan")
            print(f"compare {report['workload']:7s} {name:16s} {m['value']:12.4f} / "
                  f"{base[name]:12.4f} = {ratio:.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=S.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    # BENCHMARK.json's run_seconds, at which baseline.json was recorded.
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", action="store_true",
                        help="print each metric's ratio to perfbench/baseline.json")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be above 0")

    report = run_traced(args.seed) if args.trace else run_untraced(
        args.workload, args.seed, args.seconds)
    for name, m in report["metrics"].items():
        print(f"{report['workload']:7s} {name:48s} {m['value']:14.4f} {m['unit']}")
    if "error_rate" in report:
        print(f"{report['workload']:7s} {'error_rate':48s} {report['error_rate']:14.4f} ratio"
              f"  ({report['attempted']} queries in {report['passes']} passes)")
    if args.compare:
        compare(report, os.path.join(HERE, "baseline.json"))
    failed = report["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": report["attempted"],
                      "failed": failed, "metrics": report["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
