"""P5: request-path tracing — per-layer critical-path attribution.

Every request through the platform crosses the gateway, the cache
hierarchy, the resilience layer, a WAN knowledge base, and (on cache
misses that record provenance) the blockchain.  The P5 tracer turns each
dispatch into a sealed span tree on the simulated clock; this benchmark
measures where the simulated latency actually goes:

* per-layer critical-path attribution under the P4 Zipf workload —
  each trace's layer percentages sum to 100% of its end-to-end latency;
* the same workload under a P3 ``FaultPlan`` dropping the KB link —
  retries become *visible* as extra ``resilience.attempt`` spans and
  the attribution shifts toward the knowledge/resilience layers;
* the zero-cost contract: tracing only *reads* ``clock.now``, so a
  traced run ends at the bit-identical simulated time as an untraced
  one, and the disabled hook (``maybe_span(None, ...)``) is cheap
  enough to leave in every hot loop (asserted on wall clock, never
  serialized — the JSON stays byte-deterministic).

Standalone mode for CI::

    PYTHONPATH=src python benchmarks/bench_p5_tracing.py --quick
"""

import argparse
import itertools
import json
import time

import pytest

from repro.blockchain import ProvenanceBatch, standard_network
from repro.caching.hierarchy import CacheHierarchy, CacheLevel, Origin
from repro.caching.policies import make_cache
from repro.cloudsim.clock import SimClock
from repro.cloudsim.faults import FaultPlan
from repro.cloudsim.monitoring import MonitoringService
from repro.cloudsim.tracing import Tracer, maybe_span
from repro.core.api import ApiGateway, ApiRequest, RouteSpec
from repro.core.resilience import ResiliencePolicy, ResilientExecutor
from repro.knowledge.remote import RemoteKnowledgeBase
from repro.rbac.engine import RbacEngine
from repro.rbac.federation import (
    ExternalIdentityProvider,
    FederatedIdentityService,
)
from repro.rbac.model import Action, Permission, Scope, ScopeKind
from repro.workloads.traces import zipf_trace

try:
    from conftest import show
except ImportError:  # standalone main(), outside pytest's conftest path
    def show(title, rows):
        print(f"\n=== {title}")
        for row in rows:
            print("   ", row)

SEED = 23
N_ITEMS = 200
REQUESTS = 600
QUICK_REQUESTS = 150
ZIPF_SKEW = 0.9
CLIENT_COST = 50e-6
DROP_RATE = 0.35
NOOP_CALLS = 200_000
MAX_NOOP_WALL_S = 2.0


class _TermKb:
    name = "terms"

    def lookup(self, key):
        return f"definition-of-{key}"


def _world(traced=True, faulted=False):
    """The full request path behind one gateway route."""
    clock = SimClock()
    monitoring = MonitoringService(clock)
    tracer = Tracer(clock) if traced else None

    rbac = RbacEngine()
    tenant = rbac.create_tenant("acme")
    org = rbac.create_organization(tenant.tenant_id, "org")
    env = rbac.create_environment(org.org_id, "prod")
    user = rbac.register_user(tenant.tenant_id, "alice")
    scope = Scope(ScopeKind.ORGANIZATION, org.org_id)
    rbac.define_role("reader", [Permission(Action.READ, "records", scope)])
    rbac.bind_role(user.user_id, org.org_id, env.env_id, "reader")
    federation = FederatedIdentityService(rbac, clock)
    idp = ExternalIdentityProvider("idp", b"idp-secret-key-01", clock)
    federation.approve_idp("idp", b"idp-secret-key-01")
    federation.link_identity("idp", "alice@acme", user.user_id)

    # Breaker threshold is high on purpose: with the breaker mostly out
    # of the way the faulted scenario shows *retries* (attempt spans),
    # not a storm of fast breaker rejections.
    executor = ResilientExecutor(
        ResiliencePolicy(timeout_s=5.0, max_attempts=3, jitter=0.0,
                         breaker_failure_threshold=1000, seed=SEED),
        clock=clock, monitoring=monitoring, tracer=tracer)
    remote = RemoteKnowledgeBase(_TermKb(), clock, resilience=executor)
    remote.tracer = tracer
    if faulted:
        plan = FaultPlan(seed=SEED, clock=clock)
        plan.drop_link("cloud-a", "external-kb", drop_rate=DROP_RATE)
        remote.fault_plan = plan

    hierarchy = CacheHierarchy(
        [CacheLevel("client", make_cache("lru", 128), CLIENT_COST)],
        Origin("kb-origin", loader=lambda key: remote.call("lookup", key),
               access_cost_s=0.0),
        clock=clock, monitoring=monitoring, tracer=tracer)

    net = standard_network(seed=SEED, batch_size=1, clock=clock,
                           monitoring=monitoring)
    net.tracer = tracer

    gateway = ApiGateway(rbac, federation, monitoring=monitoring,
                         clock=clock, rate_limit=10 ** 9, tracer=tracer)

    batch_ids = itertools.count(1)

    def lookup_handler(context, key):
        result = hierarchy.get(key)
        if result.served_by == hierarchy.origin.name:
            # Cache miss hit the authoritative source: record provenance.
            batch = ProvenanceBatch()
            batch.append(handle=f"term-{key}", data_hash="aa" * 32,
                         event="received", actor="client")
            net.submit_batch("ingestion-service",
                             [batch.request(f"term-{next(batch_ids)}")])
            net.flush()
        return {"value": result.value}

    gateway.register_route(RouteSpec(
        path="/lookup", handler=lookup_handler,
        action=Action.READ, resource_type="records",
        scope_kind=ScopeKind.ORGANIZATION))

    def dispatch(key):
        return gateway.dispatch(ApiRequest(
            path="/lookup", token=idp.issue_token("alice@acme"),
            scope_entity_id=org.org_id, org_id=org.org_id,
            env_id=env.env_id, params={"key": key}))

    return clock, monitoring, tracer, hierarchy, dispatch


def _scenario(n_requests, faulted):
    """Drive the Zipf workload and aggregate per-layer attribution."""
    clock, monitoring, tracer, hierarchy, dispatch = _world(
        traced=True, faulted=faulted)
    keys = zipf_trace(N_ITEMS, n_requests, skew=ZIPF_SKEW, seed=SEED)
    statuses = {}
    for key in keys:
        status = dispatch(key).status
        statuses[str(status)] = statuses.get(str(status), 0) + 1

    by_layer = {}
    grand_total = 0.0
    worst_sum_error = 0.0
    span_counts = {}
    for tid in tracer.trace_ids():
        tracer.verify_trace(tid)
        path = tracer.critical_path(tid)
        for layer, seconds in path.by_layer().items():
            by_layer[layer] = by_layer.get(layer, 0.0) + seconds
        grand_total += path.total_s
        pct = path.layer_percentages()
        if pct:
            worst_sum_error = max(worst_sum_error,
                                  abs(sum(pct.values()) - 100.0))
        for span in tracer.get_trace(tid).walk():
            span_counts[span.name] = span_counts.get(span.name, 0) + 1

    exemplar = monitoring.metrics.exemplar("api.latency")
    attempts = span_counts.get("resilience.attempt", 0)
    resilient_calls = span_counts.get("resilience.kb.terms", 0)
    return {
        "requests": n_requests,
        "statuses": statuses,
        "sim_time_s": round(clock.now, 9),
        "hit_ratio": round(hierarchy.overall_hit_ratio(), 6),
        "traces": len(tracer.trace_ids()),
        "attempt_spans": attempts,
        "resilient_calls": resilient_calls,
        # Without faults every resilient call takes exactly one attempt;
        # retries show up as attempts beyond one per call.
        "extra_attempts": attempts - resilient_calls,
        "attribution_pct": {
            layer: round(100.0 * seconds / grand_total, 3)
            for layer, seconds in sorted(by_layer.items())},
        "attributed_s": round(grand_total, 9),
        "per_trace_sum_error": round(worst_sum_error, 9),
        "worst_latency_s": round(exemplar["value"], 9),
        "worst_trace": exemplar["trace_id"],
    }


def _sim_time_with_tracing(n_requests, traced):
    clock, _, _, _, dispatch = _world(traced=traced)
    for key in zipf_trace(N_ITEMS, n_requests, skew=ZIPF_SKEW, seed=SEED):
        dispatch(key)
    return clock.now


def _disabled_hook_wall_s(calls=NOOP_CALLS):
    start = time.perf_counter()
    for _ in range(calls):
        with maybe_span(None, "noop", "bench"):
            pass
    return time.perf_counter() - start


@pytest.mark.benchmark(group="p5-tracing")
def test_p5_attribution_sums_to_end_to_end_latency(benchmark):
    """Acceptance: every trace's layer percentages sum to 100% of its
    end-to-end simulated latency; the WAN knowledge layer dominates."""
    result = _scenario(QUICK_REQUESTS, faulted=False)
    benchmark.pedantic(lambda: _scenario(40, faulted=False),
                       rounds=2, iterations=1)
    rows = [f"{result['traces']} traces over {result['requests']} requests "
            f"(hit ratio {result['hit_ratio']:.1%})"]
    for layer, pct in sorted(result["attribution_pct"].items(),
                             key=lambda kv: -kv[1]):
        rows.append(f"{layer:>11}: {pct:6.2f}% of "
                    f"{result['attributed_s']:.3f}s simulated")
        benchmark.extra_info[f"pct_{layer}"] = pct
    show("P5: critical-path attribution (Zipf workload, no faults)", rows)
    assert result["per_trace_sum_error"] < 1e-6
    assert result["traces"] == result["requests"]
    top = max(result["attribution_pct"], key=result["attribution_pct"].get)
    assert top == "knowledge"        # 80 ms WAN round trips dominate
    assert result["extra_attempts"] == 0     # no faults -> no retries


@pytest.mark.benchmark(group="p5-tracing")
def test_p5_faults_surface_as_attempt_spans(benchmark):
    """Acceptance: under a KB link-drop plan, retries are visible as
    extra attempt spans and attribution still sums to 100%."""
    faulted = _scenario(QUICK_REQUESTS, faulted=True)
    baseline = _scenario(QUICK_REQUESTS, faulted=False)
    benchmark.pedantic(lambda: _scenario(40, faulted=True),
                       rounds=2, iterations=1)
    benchmark.extra_info["extra_attempts"] = faulted["extra_attempts"]
    show("P5: the same workload under a "
         f"{DROP_RATE:.0%} KB link-drop plan",
         [f"attempt spans {baseline['attempt_spans']} -> "
          f"{faulted['attempt_spans']} "
          f"({faulted['extra_attempts']} retries made visible)",
          f"simulated time {baseline['sim_time_s']:.3f}s -> "
          f"{faulted['sim_time_s']:.3f}s",
          f"statuses: {faulted['statuses']}"])
    assert faulted["extra_attempts"] > 0
    assert faulted["attempt_spans"] > baseline["attempt_spans"]
    assert faulted["sim_time_s"] > baseline["sim_time_s"]
    assert faulted["per_trace_sum_error"] < 1e-6


@pytest.mark.benchmark(group="p5-tracing")
def test_p5_tracing_is_free_in_simulated_time(benchmark):
    """Acceptance: tracing never advances the clock (traced == untraced,
    exact float equality) and the disabled hook is wall-clock cheap."""
    traced = _sim_time_with_tracing(60, traced=True)
    untraced = _sim_time_with_tracing(60, traced=False)
    wall = benchmark.pedantic(_disabled_hook_wall_s, rounds=2, iterations=1)
    benchmark.extra_info["noop_calls"] = NOOP_CALLS
    show("P5: the zero-cost contract",
         [f"simulated end time traced {traced!r} vs untraced {untraced!r}",
          f"{NOOP_CALLS} disabled maybe_span() calls: {wall:.3f}s wall"])
    assert traced == untraced
    assert wall < MAX_NOOP_WALL_S


def _full_results(n_requests):
    baseline = _scenario(n_requests, faulted=False)
    faulted = _scenario(n_requests, faulted=True)
    check_requests = min(n_requests, 60)
    return {
        "baseline": baseline,
        "faulted": faulted,
        "sim_time_identical_when_disabled": (
            _sim_time_with_tracing(check_requests, traced=True)
            == _sim_time_with_tracing(check_requests, traced=False)),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Request-path tracing benchmark (writes JSON for CI)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload")
    parser.add_argument("--output", default="BENCH_tracing.json")
    args = parser.parse_args(argv)

    n_requests = QUICK_REQUESTS if args.quick else REQUESTS
    results = {"quick": args.quick, "requests": n_requests,
               **_full_results(n_requests)}
    # Determinism: the whole run twice, byte-identical.
    second = {"quick": args.quick, "requests": n_requests,
              **_full_results(n_requests)}
    results["deterministic"] = (
        json.dumps(results, sort_keys=True)
        == json.dumps(second, sort_keys=True))

    for name in ("baseline", "faulted"):
        scenario = results[name]
        attribution = ", ".join(
            f"{layer} {pct}%" for layer, pct in sorted(
                scenario["attribution_pct"].items(), key=lambda kv: -kv[1]))
        print(f"{name}: {scenario['sim_time_s']}s simulated, {attribution}")
    print(f"faulted extra attempts: {results['faulted']['extra_attempts']}")
    print("sim time identical when disabled: "
          f"{results['sim_time_identical_when_disabled']}")
    print(f"deterministic: {results['deterministic']}")

    assert results["baseline"]["per_trace_sum_error"] < 1e-6
    assert results["faulted"]["per_trace_sum_error"] < 1e-6
    assert results["faulted"]["extra_attempts"] > 0
    assert results["sim_time_identical_when_disabled"]
    assert results["deterministic"]
    # Bounded wall overhead when disabled — asserted, never serialized
    # (wall-clock numbers would break the byte-for-byte CI diff).
    assert _disabled_hook_wall_s() < MAX_NOOP_WALL_S

    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
    print(f"wrote {args.output}")
    return results


if __name__ == "__main__":
    main()
