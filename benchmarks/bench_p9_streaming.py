"""P9: streaming ingestion with incremental real-time analytics.

A seeded MMPP clinical feed drives the event-driven hot path — bounded
per-shard queues, provenance commit, O(delta) analytics updates, FHIR
Subscription-style push — and each headline claim is measured:

* **O(delta) vs O(n^2)** — steady-state knowledge-base churn on a
  256-entity universe (160 drugs + 96 diseases): the incremental
  row-patch must cost at least 10x less simulated update time than
  rebuilding the affected entity class's similarity matrices per
  update;
* **sustained rate under chaos** — a minutes-long run with a lossy
  worker→orderer link and bounded queues must keep the p99 push
  latency inside the SLO threshold while every arrival is accounted
  for (processed + shed + queued == arrivals; the shed rate is
  *reported*, never silent);
* **critical path** — per-stage span attribution over the hot path
  (queue/commit/analytics/push) sums to exactly 100%;
* **determinism** — the entire scenario, run twice in-process, emits
  byte-identical JSON.

Standalone mode for CI::

    PYTHONPATH=src python benchmarks/bench_p9_streaming.py --quick
"""

import argparse
import json

import pytest

from repro.analytics.similarity import (DiseaseSimilarityBuilder,
                                        DrugSimilarityBuilder)
from repro.blockchain import ShardedBlockchainNetwork
from repro.cloudsim.faults import FaultPlan
from repro.cloudsim.tracing import Tracer
from repro.ingestion import ShardedIngestionFrontend
from repro.knowledge.synthetic import generate_universe
from repro.streaming import (AdaptiveShedPolicy, FeedGenerator,
                             IncrementalSimilarityEngine,
                             StreamingAnalytics, StreamingPipeline,
                             SubscriptionFilter, SubscriptionRegistry)
from repro.streaming.incremental import PAIR_EVAL_COST_S
from repro.cloudsim.healthplane.events import EventBus

try:
    from conftest import show
except ImportError:  # standalone main(), outside pytest's conftest path
    def show(title, rows):
        print(f"\n=== {title}")
        for row in rows:
            print("   ", row)

SEED = 9
N_DRUGS = 160                   # the 256-entity steady-state universe
N_DISEASES = 96
N_SHARDS = 4
QUEUE_CAPACITY = 12
SPEEDUP_FLOOR = 10.0            # acceptance: incremental >= 10x cheaper
PUSH_P99_SLO_S = 0.25           # acceptance: p99 arrival->push latency
LINK_DROP_RATE = 0.3            # worker->orderer chaos during the run

# Scenario sizes per mode.
N_UPDATES = {"full": 400, "quick": 120}      # steady-state KB churn
RUN_SECONDS = {"full": 120.0, "quick": 40.0}  # sustained-rate run


def _engine(n_drugs=N_DRUGS, n_diseases=N_DISEASES):
    universe = generate_universe(n_drugs=n_drugs, n_diseases=n_diseases,
                                 seed=SEED)
    return universe, IncrementalSimilarityEngine(
        DrugSimilarityBuilder(universe), DiseaseSimilarityBuilder(universe))


def _odelta(n_updates):
    """Steady-state KB churn: incremental cost vs per-update rebuild."""
    universe, engine = _engine()
    analytics = StreamingAnalytics(engine)
    feed = FeedGenerator.for_universe(
        universe, seed=SEED, n_patients=32,
        class_weights={"drug.update": 0.6, "disease.update": 0.4})
    n_drugs = len(engine.drugs.drug_ids)
    n_diseases = len(engine.diseases.disease_ids)
    rebuild_evals = {"drug.update": 3 * n_drugs * (n_drugs - 1) // 2,
                     "disease.update": 3 * n_diseases * (n_diseases - 1) // 2}

    applied = 0
    incremental_evals = 0
    naive_evals = 0
    events = feed.events(3600.0)
    while applied < n_updates:
        event = next(events)
        before = engine.pair_evals
        analytics.apply(event)
        incremental_evals += engine.pair_evals - before
        naive_evals += rebuild_evals[event.event_class]
        applied += 1

    incremental_s = incremental_evals * PAIR_EVAL_COST_S
    naive_s = naive_evals * PAIR_EVAL_COST_S
    return {
        "universe": {"drugs": n_drugs, "diseases": n_diseases},
        "updates": applied,
        "incremental_pair_evals": incremental_evals,
        "naive_pair_evals": naive_evals,
        "incremental_update_s": round(incremental_s, 9),
        "naive_update_s": round(naive_s, 9),
        "speedup": round(naive_s / incremental_s, 9),
        "per_update_incremental_s": round(incremental_s / applied, 9),
        "per_update_naive_s": round(naive_s / applied, 9),
    }


def _sustained(run_seconds):
    """Sustained-rate run: chaos + bounded queues + push SLO + tracing."""
    network = ShardedBlockchainNetwork(N_SHARDS, seed=SEED, batch_size=8)
    frontend = ShardedIngestionFrontend(network, events_per_batch=8)
    # Drug-heavy universe: KB updates dominate the per-event service
    # cost, so a hot MMPP burst genuinely outruns the worker and the
    # bounded queues must shed.
    universe, engine = _engine(n_drugs=64, n_diseases=16)
    registry = SubscriptionRegistry(
        EventBus(network.clock, monitoring=network.monitoring),
        queue_maxlen=100_000)
    pipeline = StreamingPipeline(
        frontend=frontend, analytics=StreamingAnalytics(engine),
        registry=registry, queue_capacity=QUEUE_CAPACITY,
        policy_factory=lambda name: AdaptiveShedPolicy(seed=SEED),
        push_slo_threshold_s=PUSH_P99_SLO_S)
    tracer = Tracer(network.clock)
    plan = FaultPlan(seed=SEED, clock=network.clock)
    plan.drop_link("stream-worker", "orderer", LINK_DROP_RATE,
                   start_s=0.0, end_s=run_seconds)
    pipeline.fault_plan = plan

    subscription = registry.register(
        tenant_id="mercy-hospital", owner="bench-dashboard",
        criteria=SubscriptionFilter())
    feed = FeedGenerator.for_universe(
        universe, seed=SEED, n_patients=64,
        rate_calm_hz=8.0, rate_burst_hz=500.0,
        dwell_calm_s=15.0, dwell_burst_s=3.0,
        class_weights={"lab.hba1c": 0.2, "adt.census": 0.1,
                       "drug.update": 0.5, "disease.update": 0.2})
    pipeline.run(feed.events(run_seconds))

    pushed = registry.poll(subscription.sub_id)
    latencies = sorted(e["attributes"]["push_latency_s"] for e in pushed)
    p99 = latencies[int(0.99 * (len(latencies) - 1))]
    ledger = pipeline.ledger()
    percentages = tracer.critical_path(
        pipeline.last_trace_id).layer_percentages()
    metrics = network.monitoring.metrics
    return {
        "ledger": ledger,
        "ledger_balanced": pipeline.ledger_balanced(),
        "shed_rate": round(ledger["shed"] / ledger["arrivals"], 9),
        "shed_by_reason": {
            q.name: dict(sorted(q.shed_by_reason.items()))
            for q in pipeline.queues if q.shed},
        "pushes": len(pushed),
        "push_p50_s": round(latencies[len(latencies) // 2], 9),
        "push_p99_s": round(p99, 9),
        "push_good": metrics.counter("streaming.push.good"),
        "push_bad": metrics.counter("streaming.push.bad"),
        "commit_retries": pipeline.commit_retries_used,
        "failed_flushes": pipeline.failed_flushes,
        "flushes": pipeline.flushes,
        "critical_path_pct": {k: round(v, 9)
                              for k, v in sorted(percentages.items())},
        "critical_path_pct_sum": round(sum(percentages.values()), 9),
    }


def _run_scenario(mode):
    return {
        "mode": mode,
        "odelta": _odelta(N_UPDATES[mode]),
        "sustained": _sustained(RUN_SECONDS[mode]),
    }


@pytest.mark.benchmark(group="p9-streaming")
def test_p9_incremental_at_least_10x_cheaper(benchmark):
    """Acceptance: O(delta) row patches beat per-update rebuilds >= 10x
    at steady state on the 256-entity universe."""
    result = _odelta(N_UPDATES["quick"])
    benchmark.pedantic(lambda: _odelta(N_UPDATES["quick"]), rounds=1,
                       iterations=1)
    benchmark.extra_info["speedup"] = result["speedup"]
    show("P9: O(delta) vs per-update rebuild (simulated update time)",
         [f"universe: {result['universe']['drugs']} drugs + "
          f"{result['universe']['diseases']} diseases",
          f"{result['updates']} updates: incremental "
          f"{result['incremental_update_s']:.4f}s vs naive "
          f"{result['naive_update_s']:.4f}s",
          f"speedup: {result['speedup']:.1f}x "
          f"(floor {SPEEDUP_FLOOR:.0f}x)"])
    assert result["speedup"] >= SPEEDUP_FLOOR


@pytest.mark.benchmark(group="p9-streaming")
def test_p9_sustained_rate_meets_push_slo_under_chaos(benchmark):
    """Acceptance: with a lossy commit link, p99 push latency stays
    inside the SLO and the ledger balances (shed is reported)."""
    result = _sustained(RUN_SECONDS["quick"])
    benchmark.pedantic(lambda: _sustained(RUN_SECONDS["quick"]), rounds=1,
                       iterations=1)
    benchmark.extra_info["push_p99_s"] = result["push_p99_s"]
    show("P9: sustained rate under chaos",
         [f"ledger: {result['ledger']} "
          f"(balanced={result['ledger_balanced']})",
          f"shed rate: {result['shed_rate']:.4f}",
          f"push p50/p99: {result['push_p50_s'] * 1e3:.2f}ms / "
          f"{result['push_p99_s'] * 1e3:.2f}ms "
          f"(SLO {PUSH_P99_SLO_S * 1e3:.0f}ms)",
          f"commit retries: {result['commit_retries']} "
          f"({result['failed_flushes']} failed flushes)"])
    assert result["ledger_balanced"]
    assert result["shed_rate"] > 0          # backpressure is exercised...
    assert result["shed_by_reason"]         # ...and attributed, not silent
    assert result["push_p99_s"] <= PUSH_P99_SLO_S
    assert result["commit_retries"] > 0


@pytest.mark.benchmark(group="p9-streaming")
def test_p9_critical_path_attribution_sums_to_100(benchmark):
    """Acceptance: hot-path stage attribution covers the whole span."""
    result = _sustained(RUN_SECONDS["quick"])
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    show("P9: per-stage attribution",
         [f"{layer}: {pct:.2f}%" for layer, pct in
          sorted(result["critical_path_pct"].items())] +
         [f"sum: {result['critical_path_pct_sum']:.6f}%"])
    assert abs(result["critical_path_pct_sum"] - 100.0) < 1e-9


@pytest.mark.benchmark(group="p9-streaming")
def test_p9_scenario_is_deterministic(benchmark):
    """Acceptance: the whole scenario twice, identical JSON."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    first = json.dumps(_run_scenario("quick"), sort_keys=True)
    second = json.dumps(_run_scenario("quick"), sort_keys=True)
    show("P9: determinism", [f"payload bytes: {len(first)}",
                             f"identical re-run: {first == second}"])
    assert first == second


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Streaming-layer benchmark (writes JSON for CI)")
    parser.add_argument("--quick", action="store_true",
                        help="shorter run and fewer KB updates")
    parser.add_argument("--output", default="BENCH_streaming.json")
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    results = {"quick": args.quick, **_run_scenario(mode)}
    # Determinism: the whole scenario twice, byte-identical.
    second = {"quick": args.quick, **_run_scenario(mode)}
    results["deterministic"] = (
        json.dumps(results, sort_keys=True)
        == json.dumps(second, sort_keys=True))

    odelta = results["odelta"]
    sustained = results["sustained"]
    print(f"O(delta): {odelta['updates']} updates on "
          f"{odelta['universe']['drugs']}+{odelta['universe']['diseases']} "
          f"entities -> {odelta['speedup']:.1f}x cheaper than rebuild "
          f"(floor {SPEEDUP_FLOOR:.0f}x)")
    print(f"sustained: ledger {sustained['ledger']} "
          f"balanced={sustained['ledger_balanced']} "
          f"shed_rate={sustained['shed_rate']:.4f}")
    print(f"push p99: {sustained['push_p99_s'] * 1e3:.2f}ms "
          f"(SLO {PUSH_P99_SLO_S * 1e3:.0f}ms) over "
          f"{sustained['pushes']} pushes; commit retries "
          f"{sustained['commit_retries']}")
    print(f"critical path sums to "
          f"{sustained['critical_path_pct_sum']:.6f}% across "
          f"{sorted(sustained['critical_path_pct'])}")
    print(f"deterministic: {results['deterministic']}")

    assert odelta["speedup"] >= SPEEDUP_FLOOR
    assert sustained["ledger_balanced"]
    assert sustained["shed_rate"] > 0
    assert sustained["push_p99_s"] <= PUSH_P99_SLO_S
    assert sustained["commit_retries"] > 0
    assert abs(sustained["critical_path_pct_sum"] - 100.0) < 1e-9
    assert results["deterministic"]

    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
    print(f"wrote {args.output}")
    return results


if __name__ == "__main__":
    main()
