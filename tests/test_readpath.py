"""Tests for the P4 scale-out read path: batched hierarchy lookups,
single-flight coalescing, negative caching, bulk KB queries, and the
batched client/workspace wiring."""

import pytest

from repro.analytics.workspace import AnalysisWorkspace
from repro.caching.hierarchy import CacheHierarchy, CacheLevel, Origin
from repro.caching.policies import LruCache, TinyLfuCache
from repro.client.connection import PlatformConnection
from repro.client.enhanced import BasicClient, EnhancedClient
from repro.cloudsim.clock import SimClock
from repro.cloudsim.faults import FaultPlan
from repro.cloudsim.monitoring import MonitoringService
from repro.cloudsim.network import NetworkFabric
from repro.core.errors import NotFoundError, ServiceUnavailableError
from repro.core.resilience import ResiliencePolicy, ResilientExecutor
from repro.knowledge.bases import DrugBankLike, PubChemLike, PubMedLite
from repro.knowledge.remote import RemoteKnowledgeBase

CLIENT_COST = 50e-6
SERVER_COST = 2e-3
ORIGIN_COST = 80e-3


def make_hierarchy(client_size=4, server_size=16, loader=None,
                   batch_loader=None, per_item_cost_s=0.0,
                   negative_ttl_s=0.0, monitoring=None, clock=None):
    clock = clock if clock is not None else SimClock()
    return CacheHierarchy(
        levels=[
            CacheLevel("client", LruCache(client_size), CLIENT_COST),
            CacheLevel("server", LruCache(server_size), SERVER_COST),
        ],
        origin=Origin("kb", loader=loader or (lambda k: f"value-{k}"),
                      access_cost_s=ORIGIN_COST, batch_loader=batch_loader,
                      per_item_cost_s=per_item_cost_s),
        clock=clock, negative_ttl_s=negative_ttl_s, monitoring=monitoring)


class TestNoneValueFix:
    def test_stored_none_hits(self):
        """A stored None must hit, not fall through to the origin."""
        hierarchy = make_hierarchy(loader=lambda k: None)
        first = hierarchy.get("x")
        assert first.value is None and first.served_by == "kb"
        second = hierarchy.get("x")
        assert second.value is None
        assert second.served_by == "client"
        assert hierarchy.origin.fetches == 1

    def test_put_none_then_get(self):
        hierarchy = make_hierarchy()
        hierarchy.put("k", None)
        assert hierarchy.get("k").served_by == "client"
        assert hierarchy.origin.fetches == 0


class TestGetMany:
    def test_values_and_sources(self):
        hierarchy = make_hierarchy(client_size=64, server_size=256)
        hierarchy.get("a")                    # warm one key
        batch = hierarchy.get_many(["a", "b", "c"])
        assert batch.values == {"a": "value-a", "b": "value-b",
                                "c": "value-c"}
        assert batch.served_by["a"] == "client"
        assert batch.served_by["b"] == "kb"
        assert batch.origin_keys == 2
        assert hierarchy.origin.batch_loads == 1

    def test_one_level_charge_per_batch(self):
        """A batch pays each level cost once, not once per key."""
        hierarchy = make_hierarchy()
        batch = hierarchy.get_many([f"k{i}" for i in range(10)])
        expected = CLIENT_COST + SERVER_COST + ORIGIN_COST
        assert batch.latency_s == pytest.approx(expected)
        assert batch.levels_probed == 2

    def test_per_item_marginal_cost(self):
        hierarchy = make_hierarchy(per_item_cost_s=1e-4)
        batch = hierarchy.get_many(["a", "b", "c", "d"])
        expected = CLIENT_COST + SERVER_COST + ORIGIN_COST + 4 * 1e-4
        assert batch.latency_s == pytest.approx(expected)

    def test_all_hits_skip_origin(self):
        hierarchy = make_hierarchy(client_size=64)
        keys = ["a", "b", "c"]
        hierarchy.get_many(keys)
        batch = hierarchy.get_many(keys)
        assert batch.origin_keys == 0
        assert batch.latency_s == pytest.approx(CLIENT_COST)
        assert batch.levels_probed == 1

    def test_duplicates_coalesce_within_batch(self):
        hierarchy = make_hierarchy()
        batch = hierarchy.get_many(["a", "a", "a", "b"])
        assert batch.coalesced == 2
        assert hierarchy.origin.fetches == 2   # a and b once each

    def test_batch_loader_used(self):
        calls = []

        def batch_loader(keys):
            calls.append(list(keys))
            return {k: f"bulk-{k}" for k in keys}

        hierarchy = make_hierarchy(batch_loader=batch_loader)
        batch = hierarchy.get_many(["x", "y"])
        assert calls == [["x", "y"]]
        assert batch.values["x"] == "bulk-x"

    def test_missing_keys_reported(self):
        def batch_loader(keys):
            return {k: k for k in keys if k != "gone"}

        hierarchy = make_hierarchy(batch_loader=batch_loader,
                                   negative_ttl_s=1.0)
        batch = hierarchy.get_many(["ok", "gone"])
        assert batch.missing == ("gone",)
        assert batch.values == {"ok": "ok"}

    def test_put_many_write_through(self):
        hierarchy = make_hierarchy()
        hierarchy.put_many({"a": 1, "b": 2})
        batch = hierarchy.get_many(["a", "b"])
        assert batch.origin_keys == 0
        assert batch.values == {"a": 1, "b": 2}


class TestSingleFlight:
    def test_hot_key_storm_costs_one_fetch(self):
        hierarchy = make_hierarchy()
        t0 = hierarchy.clock.now
        results = [hierarchy.get("hot", start_at=t0) for _ in range(100)]
        assert hierarchy.origin.fetches == 1
        assert hierarchy.coalesced == 99
        assert all(r.value == "value-hot" for r in results)
        leader, followers = results[0], results[1:]
        assert not leader.coalesced
        assert all(f.coalesced for f in followers)
        # Followers wait out the leader's in-flight window, no longer.
        assert all(f.latency_s == pytest.approx(leader.latency_s)
                   for f in followers)

    def test_request_after_window_misses_the_flight(self):
        hierarchy = make_hierarchy(client_size=1)
        hierarchy.get("a")
        hierarchy.get("b")       # evicts a from the 1-slot client
        later = hierarchy.get("a")   # starts now, window long over
        assert not later.coalesced
        assert later.served_by == "server"

    def test_batch_joins_inflight_window(self):
        hierarchy = make_hierarchy()
        t0 = hierarchy.clock.now
        hierarchy.get("hot", start_at=t0)
        batch = hierarchy.get_many(["hot", "cold"], start_at=t0)
        assert batch.served_by["hot"] == "inflight:kb"
        assert batch.coalesced == 1
        assert hierarchy.origin.fetches == 2   # hot once, cold once

    def test_invalidate_clears_flight(self):
        hierarchy = make_hierarchy()
        t0 = hierarchy.clock.now
        hierarchy.get("k", start_at=t0)
        hierarchy.invalidate("k")
        result = hierarchy.get("k", start_at=t0)
        assert not result.coalesced
        assert hierarchy.origin.fetches == 2


class TestNegativeCaching:
    def _flaky_origin(self):
        def loader(key):
            if key.startswith("missing"):
                raise NotFoundError(f"no {key}")
            return f"value-{key}"
        return loader

    def test_not_found_is_cached(self):
        hierarchy = make_hierarchy(loader=self._flaky_origin(),
                                   negative_ttl_s=5.0)
        with pytest.raises(NotFoundError):
            hierarchy.get("missing-1")
        with pytest.raises(NotFoundError):
            hierarchy.get("missing-1")
        assert hierarchy.origin.fetches == 1
        assert hierarchy.negative_hits == 1

    def test_negative_entry_expires(self):
        hierarchy = make_hierarchy(loader=self._flaky_origin(),
                                   negative_ttl_s=0.5)
        with pytest.raises(NotFoundError):
            hierarchy.get("missing-1")
        hierarchy.clock.advance(1.0)
        with pytest.raises(NotFoundError):
            hierarchy.get("missing-1")
        assert hierarchy.origin.fetches == 2

    def test_put_clears_negative_entry(self):
        hierarchy = make_hierarchy(loader=self._flaky_origin(),
                                   negative_ttl_s=5.0)
        with pytest.raises(NotFoundError):
            hierarchy.get("missing-1")
        hierarchy.put("missing-1", "now-present")
        assert hierarchy.get("missing-1").value == "now-present"

    def test_disabled_without_ttl(self):
        hierarchy = make_hierarchy(loader=self._flaky_origin())
        for _ in range(3):
            with pytest.raises(NotFoundError):
                hierarchy.get("missing-1")
        assert hierarchy.origin.fetches == 3


class TestHitRatioAccounting:
    def test_counts_batched_lookups(self):
        """get_many bypasses per-key level-0 probes; the ratio must still
        see every key-request."""
        hierarchy = make_hierarchy(client_size=64)
        keys = [f"k{i}" for i in range(10)]
        hierarchy.get_many(keys)     # 10 requests, 10 origin loads
        hierarchy.get_many(keys)     # 10 requests, all client hits
        assert hierarchy.requests == 20
        assert hierarchy.origin_loads == 10
        assert hierarchy.overall_hit_ratio() == pytest.approx(0.5)

    def test_counts_coalesced_as_hits(self):
        hierarchy = make_hierarchy()
        t0 = hierarchy.clock.now
        for _ in range(10):
            hierarchy.get("hot", start_at=t0)
        assert hierarchy.overall_hit_ratio() == pytest.approx(0.9)

    def test_monitoring_counters_surface(self):
        clock = SimClock()
        monitoring = MonitoringService(clock)
        hierarchy = make_hierarchy(monitoring=monitoring, clock=clock,
                                   loader=lambda k: (_ for _ in ()).throw(
                                       NotFoundError(k))
                                   if str(k).startswith("missing")
                                   else f"value-{k}",
                                   negative_ttl_s=5.0)
        t0 = clock.now
        hierarchy.get("hot", start_at=t0)
        hierarchy.get("hot", start_at=t0)
        with pytest.raises(NotFoundError):
            hierarchy.get("missing-x")
        with pytest.raises(NotFoundError):
            hierarchy.get("missing-x")
        hierarchy.get_many(["a", "b"])
        hierarchy.publish_metrics()
        gauge = monitoring.metrics.gauge
        assert gauge("cache.hierarchy.coalesced") == 1
        assert gauge("cache.hierarchy.negative_hits") == 1
        assert gauge("cache.hierarchy.batched_lookups") == 1
        # hot, missing-x, a, b
        assert gauge("cache.hierarchy.origin_loads") == 4

    def test_publish_metrics_gauges(self):
        clock = SimClock()
        monitoring = MonitoringService(clock)
        hierarchy = CacheHierarchy(
            [CacheLevel("client", TinyLfuCache(2), CLIENT_COST)],
            Origin("kb", lambda k: k, ORIGIN_COST), clock=clock)
        for key in ("a", "b", "c", "d"):
            hierarchy.get(key)
        hierarchy.publish_metrics(monitoring)
        gauge = monitoring.metrics.gauge
        assert gauge("cache.hierarchy.requests") == 4.0
        assert gauge("cache.client.admission_rejections") is not None
        assert gauge("cache.hierarchy.hit_ratio") == pytest.approx(
            hierarchy.overall_hit_ratio())
        hierarchy.get("a")                 # the gauges stay live
        assert gauge("cache.hierarchy.requests") == 5.0
        assert gauge("cache.client.hits") == float(
            hierarchy.levels[0].cache.stats.hits)


class TestBulkKnowledgeBases:
    def test_pubchem_bulk_matches_singles(self, universe):
        kb = PubChemLike(universe)
        ids = [d.drug_id for d in universe.drugs[:5]]
        bulk = kb.fingerprints(ids)
        assert list(bulk) == ids
        for drug_id in ids:
            assert (bulk[drug_id] == kb.fingerprint(drug_id)).all()

    def test_bulk_missing_id_raises(self, universe):
        kb = DrugBankLike(universe)
        with pytest.raises(NotFoundError):
            kb.targets_many([universe.drugs[0].drug_id, "DRG9999"])

    def test_pubmed_fetch_many(self, universe):
        kb = PubMedLite(universe.abstracts)
        pmids = [a.pmid for a in universe.abstracts[:4]]
        fetched = kb.fetch_many(pmids)
        assert [fetched[p].pmid for p in pmids] == pmids

    def test_call_batch_one_round_trip(self, universe):
        clock = SimClock()
        remote = RemoteKnowledgeBase(PubChemLike(universe), clock,
                                     round_trip_s=0.08,
                                     per_item_cost_s=2e-4)
        ids = [d.drug_id for d in universe.drugs[:10]]
        result = remote.call_batch("fingerprints", ids)
        assert len(result) == 10
        assert remote.remote_calls == 1
        assert remote.batched_items == 10
        assert clock.now == pytest.approx(0.08 + 10 * 2e-4)

    def test_cached_get_many_batches_misses(self, universe):
        clock = SimClock()
        remote = RemoteKnowledgeBase(DrugBankLike(universe), clock)
        cached = CacheHierarchy(
            [CacheLevel("local", LruCache(4096), CLIENT_COST)],
            Origin("drugbank",
                   loader=lambda key: remote.call("targets", key),
                   batch_loader=lambda keys: remote.call_batch(
                       "targets_many", keys),
                   access_cost_s=0.0),
            clock=clock)
        ids = [d.drug_id for d in universe.drugs[:6]]
        cached.get(ids[0])                        # warm one key singly
        result = cached.get_many(ids)
        assert remote.remote_calls == 2           # 1 single + 1 batch
        assert remote.batched_items == 5          # only the misses shipped
        assert result.values[ids[0]] == cached.get(ids[0]).value
        # Everything is now cached: no further remote traffic.
        cached.get_many(ids)
        assert remote.remote_calls == 2


class TestBulkUnderFaults:
    def test_dropped_batch_retries_whole_without_double_count(self, universe):
        """A FaultPlan drop mid-batch fails the whole batch; resilience
        retries it as a whole, and success-side counters advance once."""
        clock = SimClock()
        monitoring = MonitoringService(clock)
        remote = RemoteKnowledgeBase(PubChemLike(universe), clock,
                                     round_trip_s=0.08)
        # Drop everything in the first 100 ms; the retry backoff pushes
        # the second attempt past the outage window.
        remote.fault_plan = FaultPlan(seed=0, clock=clock).drop_link(
            "cloud-a", "external-kb", 1.0, start_s=0.0, end_s=0.1)
        remote.resilience = ResilientExecutor(
            ResiliencePolicy(max_attempts=3, base_backoff_s=0.05,
                             jitter=0.0, seed=0),
            clock, monitoring)
        ids = [d.drug_id for d in universe.drugs[:8]]
        result = remote.call_batch("fingerprints", ids)
        assert len(result) == 8
        assert remote.failed_calls == 1
        assert remote.remote_calls == 1          # one *successful* batch
        assert remote.batched_items == 8         # not 16: no double count
        counter = monitoring.metrics.counter
        assert counter("resilience.kb.pubchem.retries") == 1.0
        assert counter("resilience.kb.pubchem.success") == 1.0

    def test_exhausted_retries_surface_failure(self, universe):
        clock = SimClock()
        remote = RemoteKnowledgeBase(PubChemLike(universe), clock,
                                     round_trip_s=0.08)
        remote.fault_plan = FaultPlan(seed=0, clock=clock).drop_link(
            "cloud-a", "external-kb", 1.0)
        remote.resilience = ResilientExecutor(
            ResiliencePolicy(max_attempts=2, base_backoff_s=0.01,
                             jitter=0.0, seed=0), clock, None)
        with pytest.raises(ServiceUnavailableError):
            remote.call_batch("fingerprints",
                              [universe.drugs[0].drug_id])
        assert remote.failed_calls == 2
        assert remote.batched_items == 0


def _batched_world():
    clock = SimClock()
    fabric = NetworkFabric(clock)
    fabric.add_endpoint("client")
    fabric.add_endpoint("server")
    fabric.connect("client", "server", latency_s=0.01,
                   bandwidth_bps=1_000_000.0)
    connection = PlatformConnection(fabric, "client", "server")
    store = {f"k{i}": f"v{i}" for i in range(100)}
    calls = []

    def handler(body):
        calls.append(body)
        if "keys" in body:
            return {key: store[key] for key in body["keys"]}
        return store[body["key"]]

    connection.register_handler("/records", handler)
    return connection, calls


class TestClientFetchMany:
    def test_enhanced_batches_misses_into_one_request(self):
        connection, calls = _batched_world()
        client = EnhancedClient(connection, cache=LruCache(64))
        client.fetch("/records", "k0")           # warm one key
        result = client.fetch_many("/records", ["k0", "k1", "k2"])
        assert result == {"k0": "v0", "k1": "v1", "k2": "v2"}
        assert len(calls) == 2                   # 1 single + 1 batch
        assert calls[1] == {"keys": ["k1", "k2"]}
        # All cached now: zero requests.
        client.fetch_many("/records", ["k0", "k1", "k2"])
        assert len(calls) == 2

    def test_basic_client_pays_per_key(self):
        connection, calls = _batched_world()
        client = BasicClient(connection)
        client.fetch_many("/records", ["k0", "k1", "k2"])
        assert len(calls) == 3

    def test_batched_request_is_cheaper(self):
        conn_a, _ = _batched_world()
        conn_b, _ = _batched_world()
        keys = [f"k{i}" for i in range(20)]
        BasicClient(conn_a).fetch_many("/records", keys)
        per_key_time = conn_a.fabric.clock.now
        EnhancedClient(conn_b, cache=LruCache(64)).fetch_many("/records",
                                                              keys)
        batched_time = conn_b.fabric.clock.now
        assert per_key_time / batched_time > 5


class TestWorkspacePrefetch:
    def test_prefetch_through_hierarchy(self):
        hierarchy = make_hierarchy(client_size=64)
        workspace = AnalysisWorkspace("study")
        values = workspace.prefetch(hierarchy, ["a", "b", "c"])
        assert values == {"a": "value-a", "b": "value-b", "c": "value-c"}
        assert hierarchy.origin.batch_loads == 1
        assert workspace.namespace["prefetched"]["b"] == "value-b"

    def test_prefetched_data_survives_run_all(self):
        hierarchy = make_hierarchy(client_size=64)
        workspace = AnalysisWorkspace("study")
        workspace.prefetch(hierarchy, ["a", "b"])
        workspace.add_cell("use", lambda ns: sorted(ns["prefetched"]))
        executions = workspace.run_all()
        assert executions[0].output_repr == "['a', 'b']"
        assert workspace.reproducibility_check()

    def test_prefetch_from_plain_cache(self):
        cache = LruCache(16)
        cache.put_many({"x": 1, "y": 2})
        workspace = AnalysisWorkspace("study")
        assert workspace.prefetch(cache, ["x", "y"]) == {"x": 1, "y": 2}
