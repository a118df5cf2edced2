"""Tests for the simulated network fabric."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cloudsim.clock import SimClock
from repro.cloudsim.network import Link, NetworkFabric, standard_topology
from repro.core.errors import ConfigurationError, NotFoundError


class TestLink:
    def test_transfer_time_includes_latency_and_bandwidth(self):
        link = Link(latency_s=0.01, bandwidth_bps=1000)
        assert link.transfer_time(1000) == pytest.approx(0.01 + 1.0)

    def test_zero_bytes_costs_latency_only(self):
        link = Link(latency_s=0.02, bandwidth_bps=1e6)
        assert link.transfer_time(0) == pytest.approx(0.02)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            Link(0.01, 1000).transfer_time(-1)


class TestNetworkFabric:
    def _fabric(self):
        fabric = NetworkFabric()
        for name in ("a", "b", "c"):
            fabric.add_endpoint(name)
        fabric.connect("a", "b", latency_s=0.010, bandwidth_bps=1e6)
        fabric.connect("b", "c", latency_s=0.020, bandwidth_bps=1e6)
        return fabric

    def test_direct_route(self):
        assert self._fabric().route("a", "b") == ["a", "b"]

    def test_multi_hop_route(self):
        assert self._fabric().route("a", "c") == ["a", "b", "c"]

    def test_multi_hop_time_sums_links(self):
        fabric = self._fabric()
        t = fabric.one_way_time("a", "c", 0)
        assert t == pytest.approx(0.030)

    def test_same_endpoint_is_free(self):
        assert self._fabric().one_way_time("a", "a", 10**6) == 0.0

    def test_transfer_advances_clock(self):
        fabric = self._fabric()
        fabric.transfer("a", "b", 1000)
        assert fabric.clock.now > 0.0

    def test_transfer_recorded(self):
        fabric = self._fabric()
        fabric.transfer("a", "c", 500)
        assert fabric.total_bytes_moved() == 500
        assert fabric.transfers[0].hops == ("a", "b", "c")

    def test_partition_blocks_route(self):
        fabric = self._fabric()
        fabric.partition("a")
        assert not fabric.is_reachable("a", "b")
        with pytest.raises(NotFoundError):
            fabric.route("a", "b")

    def test_heal_restores_route(self):
        fabric = self._fabric()
        fabric.partition("a")
        fabric.heal("a")
        assert fabric.is_reachable("a", "b")

    def test_partition_unknown_endpoint(self):
        with pytest.raises(NotFoundError):
            self._fabric().partition("zz")

    def test_invalid_link_rejected(self):
        fabric = NetworkFabric()
        fabric.add_endpoint("a")
        fabric.add_endpoint("b")
        with pytest.raises(ConfigurationError):
            fabric.connect("a", "b", latency_s=-1, bandwidth_bps=1e6)
        with pytest.raises(ConfigurationError):
            fabric.connect("a", "b", latency_s=0.01, bandwidth_bps=0)

    def test_round_trip_time(self):
        fabric = self._fabric()
        rtt = fabric.round_trip_time("a", "b")
        assert rtt > 2 * 0.010  # two latencies plus serialization

    def test_shared_clock(self):
        clock = SimClock()
        fabric = NetworkFabric(clock)
        fabric.add_endpoint("x")
        fabric.add_endpoint("y")
        fabric.connect("x", "y", 0.01, 1e6)
        fabric.transfer("x", "y", 0)
        assert clock.now == pytest.approx(0.01)


class TestStandardTopology:
    def test_wan_dominates_lan(self):
        fabric = standard_topology()
        wan = fabric.one_way_time("client", "cloud-a", 1024)
        lan = fabric.one_way_time("cloud-a", "cloud-a-storage", 1024)
        assert wan > 10 * lan

    def test_client_reaches_all(self):
        fabric = standard_topology()
        for target in ("cloud-a", "cloud-b", "external-kb",
                       "cloud-a-storage", "cloud-b-storage"):
            assert fabric.is_reachable("client", target)


# Run in a fresh interpreter: set-up must not load networkx, and the first
# fabric that routes a transfer loads it and still works.
_COLD_START = """
import sys
import repro
from repro.blockchain import ShardedBlockchainNetwork
repro.HealthCloudPlatform(seed=0)
ShardedBlockchainNetwork(2, seed=0)
assert "networkx" not in sys.modules, "set-up loaded networkx"
from repro.cloudsim.network import standard_topology
record = standard_topology().transfer("client", "cloud-b-storage", 1000)
assert record.hops == ("client", "cloud-b", "cloud-b-storage"), record
assert "networkx" in sys.modules
"""


class TestColdStart:
    def test_setup_leaves_networkx_unloaded_until_a_fabric_routes(self):
        source_root = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", _COLD_START],
            env={**os.environ, "PYTHONPATH": source_root},
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
