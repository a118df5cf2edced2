"""Tests for the multi-level cache hierarchy."""

import pytest

from repro.caching.hierarchy import CacheHierarchy, CacheLevel, Origin
from repro.caching.policies import LruCache
from repro.cloudsim.clock import SimClock
from repro.core.errors import ConfigurationError


def make_hierarchy(client_size=4, server_size=16):
    clock = SimClock()
    hierarchy = CacheHierarchy(
        levels=[
            CacheLevel("client", LruCache(client_size), access_cost_s=50e-6),
            CacheLevel("server", LruCache(server_size), access_cost_s=2e-3),
        ],
        origin=Origin("kb", loader=lambda k: f"value-{k}",
                      access_cost_s=80e-3),
        clock=clock,
    )
    return hierarchy


class TestLookups:
    def test_miss_goes_to_origin(self):
        hierarchy = make_hierarchy()
        result = hierarchy.get("x")
        assert result.value == "value-x"
        assert result.served_by == "kb"
        assert hierarchy.origin.fetches == 1

    def test_second_lookup_hits_client(self):
        hierarchy = make_hierarchy()
        hierarchy.get("x")
        result = hierarchy.get("x")
        assert result.served_by == "client"
        assert hierarchy.origin.fetches == 1

    def test_client_hit_is_orders_of_magnitude_cheaper(self):
        hierarchy = make_hierarchy()
        miss = hierarchy.get("x")
        hit = hierarchy.get("x")
        assert miss.latency_s / hit.latency_s > 100

    def test_server_hit_after_client_eviction(self):
        hierarchy = make_hierarchy(client_size=1)
        hierarchy.get("x")
        hierarchy.get("y")  # evicts x from the 1-slot client cache
        result = hierarchy.get("x")
        assert result.served_by == "server"

    def test_promotion_refills_client(self):
        hierarchy = make_hierarchy(client_size=1)
        hierarchy.get("x")
        hierarchy.get("y")
        hierarchy.get("x")   # served by server, promoted back to client
        result = hierarchy.get("x")
        assert result.served_by == "client"

    def test_latency_accumulates_per_level(self):
        hierarchy = make_hierarchy()
        result = hierarchy.get("x")
        expected = 50e-6 + 2e-3 + 80e-3
        assert result.latency_s == pytest.approx(expected)


class TestWriteAndInvalidate:
    def test_write_through(self):
        hierarchy = make_hierarchy()
        hierarchy.put("k", "v")
        result = hierarchy.get("k")
        assert result.served_by == "client"
        assert result.value == "v"

    def test_invalidate_all_levels(self):
        hierarchy = make_hierarchy()
        hierarchy.get("x")
        assert hierarchy.invalidate("x") == 2
        result = hierarchy.get("x")
        assert result.served_by == "kb"


class TestReporting:
    def test_overall_hit_ratio(self):
        hierarchy = make_hierarchy()
        for _ in range(10):
            hierarchy.get("same")
        assert hierarchy.overall_hit_ratio() == pytest.approx(0.9)

    def test_stats_by_level(self):
        hierarchy = make_hierarchy()
        hierarchy.get("x")
        hierarchy.get("x")
        stats = dict(hierarchy.stats_by_level())
        assert stats["client"].hits == 1

    def test_empty_hierarchy_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheHierarchy([], Origin("o", lambda k: k, 0.1))

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheLevel("bad", LruCache(2), access_cost_s=-1.0)
