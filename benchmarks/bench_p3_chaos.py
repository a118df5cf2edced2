"""P3: chaos benchmark — the E1 ingestion workload under injected faults.

Each simulated bundle crosses every place the platform can fail: the
client -> cloud-a WAN link (probabilistic drops), an external AI
extraction provider (availability dip to 50%), and the four-org
endorsement round (one endorsing peer crashes mid-run, making the strict
4-of-4 policy unmeetable).  The run is repeated with resilience policies
ON (retries + breakers + failover + degraded 3-of-3 quorum) and OFF
(single attempt everywhere), and the fault mix is swept over link drop
rates.

Everything is seeded: the fault plan, the provider RNGs, and the retry
jitter all derive from one seed, so two runs of the same scenario
produce byte-identical JSON — the determinism assertion below checks
exactly that.

Standalone mode for CI::

    PYTHONPATH=src python benchmarks/bench_p3_chaos.py --quick
"""

import argparse
import json

import pytest

from repro.blockchain import EndorsementPolicy, standard_network
from repro.cloudsim.clock import SimClock
from repro.cloudsim.faults import FaultPlan
from repro.cloudsim.monitoring import MonitoringService
from repro.cloudsim.network import standard_topology
from repro.core.resilience import ResiliencePolicy, ResilientExecutor
from repro.services.registry import ServiceRegistry, SimulatedAiService

try:
    from conftest import show
except ImportError:  # standalone main(), outside pytest's conftest path
    def show(title, rows):
        print(f"\n=== {title}")
        for row in rows:
            print("   ", row)

N_BUNDLES = 120
DEFAULT_DROP_RATE = 0.05
DROP_SWEEP = (0.0, 0.05, 0.15, 0.30)
AI_DIP_AVAILABILITY = 0.50
CRASHED_PEER = "peer.audit-org"
UPLOAD_BYTES = 4096
MIN_RESILIENT_SUCCESS = 0.99
MIN_SUCCESS_GAP = 0.20          # "measurably degraded" without policies


def _percentile(values, fraction):
    if not values:
        return None
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _build_world(seed, resilient, drop_rate):
    """One fully wired chaos world sharing a single clock and seed."""
    clock = SimClock()
    monitoring = MonitoringService(clock)
    plan = (FaultPlan(seed=seed, clock=clock, monitoring=monitoring)
            .drop_link("client", "cloud-a", drop_rate)
            .dip_service("extract-a", AI_DIP_AVAILABILITY))
    fabric = standard_topology(clock)
    fabric.fault_plan = plan

    registry = ServiceRegistry(clock)
    registry.register(SimulatedAiService(
        "extract-a", "text-extraction", mean_latency_s=0.02,
        availability=0.99, accuracy=0.9, seed=seed + 1))
    registry.register(SimulatedAiService(
        "extract-b", "text-extraction", mean_latency_s=0.03,
        availability=0.98, accuracy=0.85, seed=seed + 2))
    for service in ("extract-a", "extract-b"):
        registry._services[service].fault_plan = plan

    network = standard_network(seed=seed, batch_size=8,
                               policy=EndorsementPolicy(4, 4),
                               clock=clock, monitoring=monitoring)
    for peer in network.endorsing_peers():
        peer.fault_plan = plan

    executor = None
    if resilient:
        executor = ResilientExecutor(
            ResiliencePolicy(timeout_s=5.0, max_attempts=4,
                             base_backoff_s=0.01, max_backoff_s=0.2,
                             jitter=0.2, breaker_failure_threshold=8,
                             breaker_reset_s=2.0, seed=seed),
            clock, monitoring)
        network.resilience = executor
        network.degraded_policy = EndorsementPolicy(3, 3)
    return clock, monitoring, plan, fabric, registry, network, executor


def _run_scenario(seed, resilient, drop_rate, n_bundles=N_BUNDLES):
    """Push ``n_bundles`` through upload -> AI extract -> endorsement.

    Halfway through, ``CRASHED_PEER`` goes down for the rest of the run,
    so the strict 4-of-4 endorsement policy becomes unmeetable: without
    policies every later bundle dies at endorsement; with policies the
    network degrades to an audited 3-of-3 quorum.
    """
    (clock, monitoring, plan, fabric, registry, network,
     executor) = _build_world(seed, resilient, drop_rate)
    crash_at = n_bundles // 2
    successes = 0
    latencies = []
    failures = {}
    for i in range(n_bundles):
        if i == crash_at:
            plan.crash_node(CRASHED_PEER, start_s=clock.now)
        started = clock.now
        try:
            if executor is not None:
                executor.call("upload", lambda: fabric.transfer(
                    "client", "cloud-a", UPLOAD_BYTES))
                registry.invoke_resilient(executor, "text-extraction",
                                          f"doc-{i}")
            else:
                fabric.transfer("client", "cloud-a", UPLOAD_BYTES)
                primary = registry.ranked_services("text-extraction")[0]
                registry.invoke(primary, f"doc-{i}")
            network.submit("ingestion-service", "provenance",
                           "record_event", handle=f"h-{i}",
                           data_hash=f"{i:064x}", event="stored",
                           actor="ingestion-service")
        except Exception as exc:
            kind = type(exc).__name__
            failures[kind] = failures.get(kind, 0) + 1
        else:
            successes += 1
            latencies.append(clock.now - started)
        clock.advance(0.01)  # inter-arrival gap
    network.flush()

    counter = monitoring.metrics.counter
    return {
        "resilient": resilient,
        "drop_rate": drop_rate,
        "n_bundles": n_bundles,
        "success_rate": round(successes / n_bundles, 6),
        "p50_latency_s": (round(_percentile(latencies, 0.50), 9)
                          if latencies else None),
        "p99_latency_s": (round(_percentile(latencies, 0.99), 9)
                          if latencies else None),
        "sim_duration_s": round(clock.now, 9),
        "failures": dict(sorted(failures.items())),
        "faults_injected": plan.describe()["injected"],
        "metrics": {
            "retries": counter("resilience.retries"),
            "failovers": counter("resilience.failover"),
            "selection_skips": counter("services.selection_skips"),
            "degraded_commits": counter("blockchain.degraded_commits"),
            "dropped_transfers": float(fabric.dropped_transfers),
        },
        "peers_converged": network.peers_converged(),
    }


def _run_sweep(seed, n_bundles=N_BUNDLES, drop_rates=DROP_SWEEP):
    return {
        f"{rate:.2f}": {
            "on": _run_scenario(seed, True, rate, n_bundles),
            "off": _run_scenario(seed, False, rate, n_bundles),
        }
        for rate in drop_rates
    }


@pytest.mark.benchmark(group="p3-chaos")
def test_p3_resilience_recovers_default_scenario(benchmark):
    """Acceptance: >= 99% ingestion success with policies on under the
    default fault mix, and measurably degraded success without them."""
    on = _run_scenario(seed=23, resilient=True, drop_rate=DEFAULT_DROP_RATE)
    off = _run_scenario(seed=23, resilient=False,
                        drop_rate=DEFAULT_DROP_RATE)
    benchmark.pedantic(
        lambda: _run_scenario(23, True, DEFAULT_DROP_RATE,
                              n_bundles=N_BUNDLES // 4),
        rounds=2, iterations=1)
    benchmark.extra_info["success_on"] = on["success_rate"]
    benchmark.extra_info["success_off"] = off["success_rate"]
    benchmark.extra_info["degraded_commits"] = (
        on["metrics"]["degraded_commits"])
    show("P3: default chaos scenario "
         f"(drop {DEFAULT_DROP_RATE:.0%}, AI at {AI_DIP_AVAILABILITY:.0%}, "
         f"{CRASHED_PEER} crashed mid-run)",
         [f"policies on:  success {on['success_rate']:.1%}, "
          f"p50 {on['p50_latency_s'] * 1e3:.1f} ms, "
          f"p99 {on['p99_latency_s'] * 1e3:.1f} ms",
          f"policies off: success {off['success_rate']:.1%}",
          f"retries {on['metrics']['retries']:.0f}, "
          f"failovers {on['metrics']['failovers']:.0f}, "
          f"degraded commits {on['metrics']['degraded_commits']:.0f}"])
    assert on["success_rate"] >= MIN_RESILIENT_SUCCESS
    assert off["success_rate"] <= on["success_rate"] - MIN_SUCCESS_GAP
    # Every resilience mechanism left a visible metric trail.
    assert on["metrics"]["retries"] > 0
    assert on["metrics"]["degraded_commits"] > 0
    assert on["peers_converged"]


@pytest.mark.benchmark(group="p3-chaos")
def test_p3_fault_injection_is_deterministic(benchmark):
    """Acceptance: two identical chaos runs produce identical JSON."""
    first = _run_scenario(seed=7, resilient=True, drop_rate=0.15,
                          n_bundles=60)
    second = _run_scenario(seed=7, resilient=True, drop_rate=0.15,
                           n_bundles=60)
    benchmark.pedantic(
        lambda: _run_scenario(7, True, 0.15, n_bundles=30),
        rounds=2, iterations=1)
    assert json.dumps(first, sort_keys=True) == json.dumps(second,
                                                           sort_keys=True)
    # A different seed must actually change the injected faults.
    other = _run_scenario(seed=8, resilient=True, drop_rate=0.15,
                          n_bundles=60)
    assert (json.dumps(first, sort_keys=True)
            != json.dumps(other, sort_keys=True))


@pytest.mark.benchmark(group="p3-chaos")
def test_p3_drop_rate_sweep(benchmark):
    """Success stays high under policies across the whole drop sweep."""
    sweep = _run_sweep(seed=23, n_bundles=N_BUNDLES // 2)
    benchmark.pedantic(
        lambda: _run_scenario(23, True, 0.30, n_bundles=N_BUNDLES // 4),
        rounds=2, iterations=1)
    rows = []
    for rate, modes in sweep.items():
        benchmark.extra_info[f"success_on_drop_{rate}"] = (
            modes["on"]["success_rate"])
        benchmark.extra_info[f"success_off_drop_{rate}"] = (
            modes["off"]["success_rate"])
        rows.append(f"drop {rate}: on {modes['on']['success_rate']:.1%}, "
                    f"off {modes['off']['success_rate']:.1%}")
    show("P3: success rate vs link drop rate", rows)
    for modes in sweep.values():
        assert modes["on"]["success_rate"] >= 0.95
        assert modes["off"]["success_rate"] < modes["on"]["success_rate"]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Chaos benchmark (writes JSON for CI)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload")
    parser.add_argument("--output", default="BENCH_chaos.json")
    args = parser.parse_args(argv)

    n_bundles = 40 if args.quick else N_BUNDLES
    drop_rates = (0.05, 0.30) if args.quick else DROP_SWEEP

    results = {"quick": args.quick, "n_bundles": n_bundles,
               "default_drop_rate": DEFAULT_DROP_RATE,
               "sweep": _run_sweep(23, n_bundles, drop_rates)}

    # Determinism: the default scenario twice, byte-identical.
    first = _run_scenario(23, True, DEFAULT_DROP_RATE, n_bundles)
    second = _run_scenario(23, True, DEFAULT_DROP_RATE, n_bundles)
    results["deterministic"] = (
        json.dumps(first, sort_keys=True) == json.dumps(second,
                                                        sort_keys=True))

    for rate, modes in results["sweep"].items():
        print(f"drop {rate}: on {modes['on']['success_rate']:.1%} "
              f"(p99 {modes['on']['p99_latency_s']}), "
              f"off {modes['off']['success_rate']:.1%}")
    print(f"deterministic: {results['deterministic']}")

    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
    print(f"wrote {args.output}")
    return results


if __name__ == "__main__":
    main()
