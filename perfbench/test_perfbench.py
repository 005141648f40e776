"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench -q``.

They stay out of the repository's tier-1 run (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import prepare  # noqa: E402
import run  # noqa: E402
import specs as S  # noqa: E402
import tracer as T  # noqa: E402


def _prepared(workload: str, seed: int, first: int, workdir=None):
    workload_specs = S.make_specs(workload, seed)
    q = prepare.fresh_import()
    prepared = prepare.prepare(q, workload, workload_specs, workdir)
    # The seven-layer probe alone takes seconds; the tests use the rest.
    prepared.queries = [query for query in prepared.queries
                        if query.spec["name"] != "homset.loop7"][:first]
    return q, prepared, workload_specs


def _failures(q, prepared, workload_specs) -> int:
    _, tally = run.measure(prepared, 0.0, len(prepared.queries))
    return tally.failures(prepared, run._expected(q, prepared, workload_specs))


@pytest.mark.parametrize("workload", S.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert S.dump_specs(S.make_specs(workload, 11)) == S.dump_specs(S.make_specs(workload, 11))
    assert S.dump_specs(S.make_specs(workload, 11)) != S.dump_specs(S.make_specs(workload, 12))


def test_correct_answers_pass_the_referee():
    for workload, first in (("reach", 12), ("equal", 40), ("homset", 8)):
        q, prepared, workload_specs = _prepared(workload, 3, first)
        assert _failures(q, prepared, workload_specs) == 0, workload


def test_dropped_marking_is_a_failure():
    q, prepared, workload_specs = _prepared("reach", 3, 3)
    query = prepared.queries[1]
    honest = query.call

    def dropped():
        result = honest()
        return dataclasses.replace(result, markings=result.markings[1:])

    query.call = dropped
    assert _failures(q, prepared, workload_specs) == 1


def test_flipped_verdict_is_a_failure():
    q, prepared, workload_specs = _prepared("equal", 3, 6)
    query = prepared.queries[0]
    honest = query.call

    def flipped():
        verdict = honest()
        status = "distinct" if verdict.is_equal else "equal"
        return dataclasses.replace(verdict, status=status)

    query.call = flipped
    assert _failures(q, prepared, workload_specs) == 1


def test_wrong_class_count_is_a_failure():
    q, prepared, workload_specs = _prepared("homset", 3, 2)
    query = prepared.queries[1]
    honest = query.call
    query.call = lambda: honest()[1:]
    assert _failures(q, prepared, workload_specs) == 1


def test_every_wrapper_is_removed_after_a_traced_run():
    q, prepared, _ = _prepared("equal", 3, 30)
    modules = {m.__name__: dict(vars(m)) for m in T._qnets_modules()}
    suites = dict(sys.modules["qnets.suites"].SUITES) if "qnets.suites" in sys.modules else None
    tracer = T.Tracer()
    tracer.install()
    assert T.leftover_wrappers()
    for query in prepared.queries:
        with tracer.query(query.spec["name"]):
            query.call()
    tracer.remove()
    assert T.leftover_wrappers() == []
    for module in T._qnets_modules():
        before = modules.get(module.__name__)
        if before is not None:
            for attr, value in before.items():
                assert vars(module).get(attr) is value, (module.__name__, attr)
    if suites is not None:
        assert sys.modules["qnets.suites"].SUITES == suites
    assert tracer.value("freecat.mor_equal.calls") > 0
    assert tracer.value("theory.combine.ms") > 0


def test_cli_check_output_is_byte_identical(tmp_path):
    first = prepare._subprocess(["check", "--suite", "all", "--seed", "7"], str(tmp_path))
    second = prepare._subprocess(["check", "--suite", "all", "--seed", "7"], str(tmp_path))
    assert first[0] == 0 and json.loads(first[1])["ok"] is True
    assert first == second


def test_cli_output_that_changes_between_repeats_is_a_failure(tmp_path):
    q, prepared, workload_specs = _prepared("cli", 3, 1, str(tmp_path))
    query = prepared.queries[0]
    honest = query.call
    repeats = []

    def drifting():
        code, out = honest()
        repeats.append(out)
        return code, out + b" " * (len(repeats) - 1)

    query.call = drifting
    _, tally = run.measure(prepared, 0.0, 2)
    assert tally.failures(prepared, run._expected(q, prepared, workload_specs)) == 2


def test_cli_queries_pass_the_referee(tmp_path):
    q, prepared, workload_specs = _prepared("cli", 3, 18, str(tmp_path))
    assert _failures(q, prepared, workload_specs) == 0


def test_benchmark_json_names_the_reported_metrics():
    path = os.path.join(prepare.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in bench["end_to_end"]] == list(run.END_TO_END.values())
    layer = [f"{w}.{name}" for w in S.WORKLOADS for name in T.LAYER_METRICS[w]]
    assert [m["name"] for m in bench["per_layer"]] == layer
    assert [m["unit"] for m in bench["per_layer"]] == [
        T.metric_unit(name.split(".", 1)[1]) for name in layer]
    assert [w["name"] for w in bench["workloads"]] == list(S.WORKLOADS)
