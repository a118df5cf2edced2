"""P4: read-path scale-out — batched lookups, coalescing, TinyLFU admission.

The paper's Fig. 4 places caches "at multiple parts of the architecture";
the P4 read path makes that hierarchy survive bulk analytics traffic:

* ``CacheHierarchy.get_many`` walks the levels once per *batch* (one
  access-cost charge per level touched) and ships one bulk origin load
  for the residual misses, against the per-key loop that pays a full
  walk per key;
* single-flight coalescing holds a 100-client hot-key storm to one
  origin fetch per unique miss (in-flight windows modeled on the
  simulated clock);
* a TinyLFU admission filter (count-min sketch over an LRU main) beats
  plain LRU hit ratio on Zipf traffic and shrugs off scan pollution.

Everything is seeded and runs on ``SimClock``, so two runs produce
byte-identical JSON — asserted below.

Standalone mode for CI::

    PYTHONPATH=src python benchmarks/bench_p4_readpath.py --quick
"""

import argparse
import json

import pytest

from repro.caching.hierarchy import CacheHierarchy, CacheLevel, Origin
from repro.caching.policies import make_cache
from repro.cloudsim.clock import SimClock
from repro.core.errors import NotFoundError
from repro.workloads.traces import zipf_trace, zipf_with_scans_trace

try:
    from conftest import show
except ImportError:  # standalone main(), outside pytest's conftest path
    def show(title, rows):
        print(f"\n=== {title}")
        for row in rows:
            print("   ", row)

CLIENT_COST = 50e-6
SERVER_COST = 2e-3
ORIGIN_COST = 80e-3
ORIGIN_PER_ITEM = 1e-4
CLIENT_CAP = 128
SERVER_CAP = 512
N_ITEMS = 2000
TRACE_LEN = 8000
BATCH_SIZES = (8, 64, 256)
MIN_BATCH64_SPEEDUP = 5.0
STORM_CLIENTS = 100
POLICY_CAP = 64
POLICY_ITEMS = 500
POLICY_TRACE_LEN = 20000


def _hierarchy(monitoring=None, negative_ttl_s=0.0):
    clock = SimClock()
    store = {i: f"record-{i}" for i in range(N_ITEMS)}

    def loader(key):
        if key not in store:
            raise NotFoundError(f"no record {key}")
        return store[key]

    return CacheHierarchy(
        levels=[
            CacheLevel("client", make_cache("lru", CLIENT_CAP), CLIENT_COST),
            CacheLevel("server", make_cache("lru", SERVER_CAP), SERVER_COST),
        ],
        origin=Origin("kb", loader=loader, access_cost_s=ORIGIN_COST,
                      batch_loader=lambda keys: {k: store[k] for k in keys
                                                 if k in store},
                      per_item_cost_s=ORIGIN_PER_ITEM),
        clock=clock, negative_ttl_s=negative_ttl_s, monitoring=monitoring)


def _run_per_key(trace):
    hierarchy = _hierarchy()
    for key in trace:
        hierarchy.get(key)
    return {"sim_time_s": round(hierarchy.clock.now, 9),
            "origin_fetches": hierarchy.origin.fetches,
            "hit_ratio": round(hierarchy.overall_hit_ratio(), 6)}


def _run_batched(trace, batch_size):
    hierarchy = _hierarchy()
    for i in range(0, len(trace), batch_size):
        hierarchy.get_many(trace[i:i + batch_size])
    return {"sim_time_s": round(hierarchy.clock.now, 9),
            "origin_fetches": hierarchy.origin.fetches,
            "coalesced": hierarchy.coalesced,
            "hit_ratio": round(hierarchy.overall_hit_ratio(), 6)}


def _latency_sweep(trace, batch_sizes=BATCH_SIZES):
    baseline = _run_per_key(trace)
    sweep = {}
    for batch_size in batch_sizes:
        batched = _run_batched(trace, batch_size)
        sweep[str(batch_size)] = {
            "per_key_s": baseline["sim_time_s"],
            "batched_s": batched["sim_time_s"],
            "speedup": round(baseline["sim_time_s"]
                             / batched["sim_time_s"], 3),
            "batched_hit_ratio": batched["hit_ratio"],
            "coalesced": batched["coalesced"],
        }
    return baseline, sweep


def _hot_key_storm(n_clients=STORM_CLIENTS, hot_keys=(0, 1, 2, 3, 4)):
    """Every client requests every hot key, all flights starting at t0."""
    hierarchy = _hierarchy()
    t0 = hierarchy.clock.now
    served = 0
    for key in hot_keys:
        for _ in range(n_clients):
            result = hierarchy.get(key, start_at=t0)
            served += result.value is not None
    return {
        "clients": n_clients,
        "unique_misses": len(hot_keys),
        "requests": served,
        "origin_fetches": hierarchy.origin.fetches,
        "coalesced": hierarchy.coalesced,
        "hit_ratio": round(hierarchy.overall_hit_ratio(), 6),
    }


def _negative_storm(n_clients=STORM_CLIENTS, missing_keys=2):
    """Clients hammer keys the origin does not have; negative caching
    bounds the fetches to one per key per TTL window."""
    hierarchy = _hierarchy(negative_ttl_s=30.0)
    keys = [N_ITEMS + i for i in range(missing_keys)]   # guaranteed absent
    not_found = 0
    for key in keys:
        for _ in range(n_clients):
            try:
                hierarchy.get(key)
            except NotFoundError:
                not_found += 1
            hierarchy.clock.advance(0.001)   # requests trickle in
    return {
        "requests": not_found,
        "unique_missing": missing_keys,
        "origin_fetches": hierarchy.origin.fetches,
        "negative_hits": hierarchy.negative_hits,
    }


def _replay_policy(policy, trace, capacity=POLICY_CAP):
    cache = make_cache(policy, capacity)
    for key in trace:
        hit, _ = cache.lookup(key)
        if not hit:
            cache.put(key, key)
    return {"hit_ratio": round(cache.stats.hit_ratio, 6),
            "evictions": cache.stats.evictions,
            "admission_rejections": cache.stats.admission_rejections}


def _policy_comparison(trace_len=POLICY_TRACE_LEN):
    zipf = zipf_trace(POLICY_ITEMS, trace_len, skew=1.0, seed=11)
    scans = zipf_with_scans_trace(POLICY_ITEMS, trace_len, skew=1.0, seed=11)
    return {
        "zipf": {p: _replay_policy(p, zipf)
                 for p in ("lru", "lfu", "2q", "tinylfu")},
        "zipf_scans": {p: _replay_policy(p, scans)
                       for p in ("lru", "lfu", "2q", "tinylfu")},
    }


@pytest.mark.benchmark(group="p4-readpath")
def test_p4_batched_lookup_speedup(benchmark):
    """Acceptance: get_many is >= 5x cheaper in simulated latency than
    the per-key loop at batch sizes >= 64."""
    trace = zipf_trace(N_ITEMS, TRACE_LEN, skew=0.9, seed=17)
    baseline, sweep = _latency_sweep(trace)
    benchmark.pedantic(
        lambda: _run_batched(trace[:TRACE_LEN // 4], 64),
        rounds=2, iterations=1)
    rows = [f"per-key loop: {baseline['sim_time_s']:.2f} s simulated "
            f"(hit ratio {baseline['hit_ratio']:.1%})"]
    for batch_size, stats in sweep.items():
        benchmark.extra_info[f"speedup_b{batch_size}"] = stats["speedup"]
        rows.append(f"batch {batch_size:>3}: {stats['batched_s']:.2f} s "
                    f"simulated, speedup {stats['speedup']:.1f}x")
    show("P4: batched hierarchy walk vs per-key loop "
         f"({TRACE_LEN} Zipf lookups over {N_ITEMS} keys)", rows)
    for batch_size, stats in sweep.items():
        if int(batch_size) >= 64:
            assert stats["speedup"] >= MIN_BATCH64_SPEEDUP
    # Batching must not cost hits: ratios stay comparable to per-key.
    assert sweep["64"]["batched_hit_ratio"] >= baseline["hit_ratio"] - 0.05


@pytest.mark.benchmark(group="p4-readpath")
def test_p4_hot_key_storm_coalesces(benchmark):
    """Acceptance: a 100-client hot-key storm costs at most one origin
    fetch per unique miss; absent keys are negatively cached."""
    storm = _hot_key_storm()
    negative = _negative_storm()
    benchmark.pedantic(lambda: _hot_key_storm(n_clients=25), rounds=2,
                       iterations=1)
    benchmark.extra_info["origin_fetches"] = storm["origin_fetches"]
    benchmark.extra_info["coalesced"] = storm["coalesced"]
    show("P4: single-flight coalescing under a "
         f"{storm['clients']}-client storm",
         [f"{storm['requests']} requests over {storm['unique_misses']} hot "
          f"keys -> {storm['origin_fetches']} origin fetches "
          f"({storm['coalesced']} coalesced)",
          f"negative storm: {negative['requests']} requests over "
          f"{negative['unique_missing']} absent keys -> "
          f"{negative['origin_fetches']} origin fetches "
          f"({negative['negative_hits']} negative hits)"])
    assert storm["origin_fetches"] <= storm["unique_misses"]
    assert storm["coalesced"] == (storm["requests"]
                                  - storm["unique_misses"])
    assert negative["origin_fetches"] <= negative["unique_missing"]
    assert negative["negative_hits"] > 0


@pytest.mark.benchmark(group="p4-readpath")
def test_p4_tinylfu_beats_lru_on_zipf(benchmark):
    """Acceptance: TinyLFU admission >= plain LRU hit ratio on the Zipf
    trace (and on the scan-polluted variant)."""
    comparison = _policy_comparison()
    benchmark.pedantic(
        lambda: _replay_policy("tinylfu",
                               zipf_trace(POLICY_ITEMS, 4000, seed=11)),
        rounds=2, iterations=1)
    rows = []
    for trace_name, policies in comparison.items():
        ranked = sorted(policies.items(),
                        key=lambda kv: -kv[1]["hit_ratio"])
        rows.append(f"{trace_name}: " + ", ".join(
            f"{p} {s['hit_ratio']:.1%}" for p, s in ranked))
        benchmark.extra_info[f"{trace_name}_tinylfu"] = (
            policies["tinylfu"]["hit_ratio"])
        benchmark.extra_info[f"{trace_name}_lru"] = (
            policies["lru"]["hit_ratio"])
    show(f"P4: policy hit ratios (capacity {POLICY_CAP}, "
         f"{POLICY_ITEMS} keys)", rows)
    for trace_name in ("zipf", "zipf_scans"):
        policies = comparison[trace_name]
        assert (policies["tinylfu"]["hit_ratio"]
                >= policies["lru"]["hit_ratio"])
    assert comparison["zipf_scans"]["tinylfu"]["admission_rejections"] > 0


def _full_results(trace_len, policy_trace_len):
    trace = zipf_trace(N_ITEMS, trace_len, skew=0.9, seed=17)
    baseline, sweep = _latency_sweep(trace)
    return {
        "per_key_baseline": baseline,
        "batch_sweep": sweep,
        "hot_key_storm": _hot_key_storm(),
        "negative_storm": _negative_storm(),
        "policies": _policy_comparison(policy_trace_len),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Read-path benchmark (writes JSON for CI)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload")
    parser.add_argument("--output", default="BENCH_readpath.json")
    args = parser.parse_args(argv)

    trace_len = 2000 if args.quick else TRACE_LEN
    policy_trace_len = 5000 if args.quick else POLICY_TRACE_LEN

    results = {"quick": args.quick, "trace_len": trace_len,
               **_full_results(trace_len, policy_trace_len)}
    # Determinism: the whole run twice, byte-identical.
    second = {"quick": args.quick, "trace_len": trace_len,
              **_full_results(trace_len, policy_trace_len)}
    results["deterministic"] = (
        json.dumps(results, sort_keys=True)
        == json.dumps(second, sort_keys=True))

    for batch_size, stats in results["batch_sweep"].items():
        print(f"batch {batch_size}: speedup {stats['speedup']}x "
              f"({stats['per_key_s']}s -> {stats['batched_s']}s simulated)")
    storm = results["hot_key_storm"]
    print(f"storm: {storm['requests']} requests -> "
          f"{storm['origin_fetches']} origin fetches")
    policies = results["policies"]["zipf"]
    print(f"zipf hit ratio: tinylfu {policies['tinylfu']['hit_ratio']:.3f} "
          f"vs lru {policies['lru']['hit_ratio']:.3f}")
    print(f"deterministic: {results['deterministic']}")

    assert results["batch_sweep"]["64"]["speedup"] >= MIN_BATCH64_SPEEDUP
    assert storm["origin_fetches"] <= storm["unique_misses"]
    assert (policies["tinylfu"]["hit_ratio"]
            >= policies["lru"]["hit_ratio"])

    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
    print(f"wrote {args.output}")
    return results


if __name__ == "__main__":
    main()
