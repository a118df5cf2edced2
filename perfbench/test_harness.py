"""Tests of the benchmark's own arithmetic and bookkeeping.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench import harness, layers

ROOT = Path(__file__).resolve().parent.parent


# -- the percentile rule --------------------------------------------------------

def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert harness.percentile(values, 50.0) == 50
    assert harness.percentile(values, 99.0) == 99
    assert harness.percentile(values, 100.0) == 100
    assert harness.percentile([5.0], 99.0) == 5.0


def test_weighted_percentile_equals_expanded_samples():
    values = [3.0, 1.0, 2.0, 9.0]
    weights = [4, 1, 2, 1]
    expanded = [v for v, w in zip(values, weights) for _ in range(w)]
    for p in (1.0, 25.0, 50.0, 75.0, 90.0, 99.0):
        assert (harness.percentile(values, p, weights)
                == harness.percentile(expanded, p))


@pytest.mark.parametrize("n, expected", [
    (1000, 99.0),   # exactly 10 beyond p99
    (999, 95.0),    # 9 beyond p99, 49 beyond p95
    (150, 90.0),    # 1 beyond p99, 7 beyond p95, 15 beyond p90
    (100, 90.0),    # exactly 10 beyond p90
    (99, None),     # 9 beyond p90: no percentile qualifies
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    values = [float(i) for i in range(n)]
    assert harness.tail_percentile(values) == expected


def test_samples_beyond_counts_timed_calls_not_weighted_ops():
    # 100 rounds of 32 bundles: p99 of the 3200 bundles is the 99th round,
    # and only one round — one sample — lies beyond it.
    values = [float(i) for i in range(100)]
    weights = [32] * 100
    assert harness.percentile(values, 99.0, weights) == 98.0
    assert harness.samples_beyond(values, 99.0, weights) == 1
    assert harness.tail_percentile(values, weights) == 90.0


def test_throughput_windows_close_on_busy_time():
    rec = harness.Recorder()
    for _ in range(32):
        rec.sample(0.125, 0.0)
    assert rec.ops == rec.attempted == 32
    assert len(rec.window_rates) == 8            # every 0.5 busy seconds
    assert rec.window_rates == pytest.approx([8.0] * 8)


# -- self time under nested wrappers ---------------------------------------------

def fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def tracer_over(layer_map, times):
    tracer = layers.LayerTracer(layer_map, clock=fake_clock(times))
    return tracer, [tracer.wrap(i, fn) for i, fn in enumerate(
        [lambda f=None: f() if f else None] * len(tracer.functions))]


def test_self_time_subtracts_nested_wrapped_calls():
    # outer [0, 100) calls inner [10, 40) and inner [50, 60);
    # inner [10, 40) itself calls leaf [20, 25).
    tracer, (outer, inner, leaf) = tracer_over(
        {"a": [("m", "outer")], "b": [("m", "inner")],
         "c": [("m", "leaf")]},
        [0, 10, 20, 25, 40, 50, 60, 100])
    outer(lambda: (inner(lambda: leaf()), inner()))
    summary = tracer.summarize(0, tracer.records, wall_ns=120)
    assert summary["a"]["self_ns"] == 100 - 30 - 10
    assert summary["b"]["self_ns"] == (30 - 5) + 10
    assert summary["c"]["self_ns"] == 5
    assert summary["b"]["calls"] == 2
    assert summary["unattributed"]["self_ns"] == 20


def test_self_time_of_recursion_within_one_layer():
    tracer, (fn,) = tracer_over({"a": [("m", "fn")]}, [0, 10, 30, 50])
    fn(lambda: fn())
    summary = tracer.summarize(0, tracer.records, wall_ns=50)
    assert summary["a"]["self_ns"] == 50       # never counted twice
    assert summary["a"]["calls"] == 2


def test_self_times_match_a_direct_computation():
    start = np.array([0, 1, 2, 5, 7, 20])
    end = np.array([10, 6, 3, 6, 9, 30])
    parent = np.array([-1, 0, 1, 1, 0, -1])
    own = layers.self_times(start, end, parent)
    assert own.tolist() == [10 - 5 - 2, 5 - 1 - 1, 1, 1, 2, 10]
    # Self times telescope to the top-level durations.
    assert own.sum() == (10 - 0) + (30 - 20)


def test_install_patches_functions_where_they_were_imported():
    import repro.crypto.rsa as rsa
    import repro.ingestion.pipeline as pipeline
    original = rsa.hybrid_decrypt
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        assert pipeline.hybrid_decrypt is rsa.hybrid_decrypt
        assert pipeline.hybrid_decrypt is not original
    finally:
        tracer.uninstall()
    assert pipeline.hybrid_decrypt is original
    assert rsa.hybrid_decrypt is original


def test_traced_run_attributes_all_of_the_wall_time():
    from perfbench.workloads.query import QueryWorkload
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        workload = QueryWorkload(seed=5)
        rec = harness.Recorder()
        first = tracer.records
        started = time.perf_counter_ns()
        workload.run(0.2, rec)
        wall_ns = time.perf_counter_ns() - started
        last = tracer.records
    finally:
        tracer.uninstall()
    summary = tracer.summarize(first, last, wall_ns)
    assert sum(row["self_ns"] for row in summary.values()) == wall_ns
    assert summary["unattributed"]["self_ns"] >= 0
    metrics = layers.per_layer_metrics(summary, rec.ops, wall_ns)
    shares = [v for k, v in metrics.items() if k.endswith(".share_pct")]
    assert sum(shares) == pytest.approx(100.0, abs=1e-9)
    assert metrics["caching.share_pct"] > 5.0
    assert metrics["crypto.rsa.share_pct"] == 0.0


# -- digests and the benchmark file -----------------------------------------------

def test_digest_record_flags_a_differing_rerun(tmp_path):
    path = tmp_path / "state" / "digests.json"
    assert harness.check_digest(path, "tree:query:1", "aaaa") is None
    assert harness.check_digest(path, "tree:query:1", "aaaa") is None
    assert harness.check_digest(path, "tree:query:1", "bbbb") == "aaaa"
    assert harness.check_digest(path, "tree:query:2", "bbbb") is None
    assert harness.check_digest(path, "tree:query:2", "cccc") == "bbbb"


def test_sim_digest_is_order_independent_for_keys():
    assert (harness.sim_digest({"a": 1, "b": [0.1, 2]})
            == harness.sim_digest({"b": [0.1, 2], "a": 1}))
    assert (harness.sim_digest({"a": 1.0})
            != harness.sim_digest({"a": 1.0000000001}))


def test_benchmark_file_lists_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        harness.UNITS
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == layers.per_layer_spec()
    from perfbench import workloads
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS)


# -- serving the stream call by call ---------------------------------------------

def test_serving_the_stream_call_by_call_reproduces_run():
    from perfbench.workloads.stream import self_check
    assert self_check(seed=3) == []


def test_the_stream_goes_on_past_the_pre_generated_feed():
    from perfbench.workloads.stream import Stack
    stack = Stack(seed=3, feed_seconds=5.0)
    wanted = len(stack.events) + 20
    stack.drive(seconds=0.0, min_events=wanted)
    assert stack.pipeline.processed >= wanted
    assert not stack.feed_ran_out
    assert stack.pipeline.ledger_balanced()


def test_a_wrong_query_answer_fails_the_run():
    from perfbench.workloads.query import QueryWorkload
    workload = QueryWorkload(seed=5)
    workload.kb.targets = lambda drug_id: ["not-a-target"]
    workload.run(0.0, harness.Recorder())
    assert any("not 200 with the KB's answer" in problem
               for problem in workload.check())
