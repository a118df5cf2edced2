"""Tests for the deterministic chaos layer (repro.cloudsim.faults)."""

import pytest

from repro.cloudsim.clock import SimClock
from repro.cloudsim.faults import FaultPlan, FaultWindow
from repro.cloudsim.monitoring import MonitoringService
from repro.cloudsim.network import standard_topology
from repro.core.errors import ConfigurationError, ServiceUnavailableError
from repro.services.registry import SimulatedAiService


class TestFaultWindow:
    def test_half_open_interval(self):
        window = FaultWindow(10.0, 20.0)
        assert not window.active(9.999)
        assert window.active(10.0)
        assert window.active(19.999)
        assert not window.active(20.0)

    def test_default_window_is_always(self):
        assert FaultWindow().active(0.0)
        assert FaultWindow().active(1e12)


class TestFaultPlanBuilders:
    def test_invalid_drop_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan().drop_link("a", "b", 1.5)

    def test_invalid_multiplier_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan().spike_link("a", "b", 0.5)

    def test_invalid_availability_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan().dip_service("svc", -0.1)

    def test_builders_chain(self):
        plan = (FaultPlan(seed=1)
                .drop_link("a", "b", 0.1)
                .spike_link("a", "b", 3.0)
                .crash_node("n1", 0.0, 5.0)
                .dip_service("svc", 0.5))
        description = plan.describe()
        assert description["link_drops"] == 1
        assert description["latency_spikes"] == 1
        assert description["node_crashes"] == 1
        assert description["availability_dips"] == 1


class TestLinkFaults:
    def test_drop_draws_are_seed_deterministic(self):
        draws = []
        for _ in range(2):
            plan = FaultPlan(seed=42).drop_link("a", "b", 0.3)
            draws.append([plan.link_dropped("a", "b") for _ in range(200)])
        assert draws[0] == draws[1]
        assert any(draws[0]) and not all(draws[0])

    def test_drop_matches_undirected(self):
        plan = FaultPlan(seed=0).drop_link("a", "b", 1.0)
        assert plan.link_dropped("b", "a")
        assert not plan.link_dropped("a", "c")

    def test_drop_respects_window(self):
        clock = SimClock()
        plan = FaultPlan(seed=0, clock=clock).drop_link(
            "a", "b", 1.0, start_s=10.0, end_s=20.0)
        assert not plan.link_dropped("a", "b")
        clock.advance(15.0)
        assert plan.link_dropped("a", "b")
        clock.advance(10.0)
        assert not plan.link_dropped("a", "b")

    def test_fabric_transfer_dropped(self):
        clock = SimClock()
        fabric = standard_topology(clock)
        plan = FaultPlan(seed=0, clock=clock).drop_link(
            "client", "cloud-a", 1.0)
        fabric.fault_plan = plan
        with pytest.raises(ServiceUnavailableError):
            fabric.transfer("client", "cloud-a", 1024)
        assert fabric.dropped_transfers == 1
        assert clock.now > 0.0  # the doomed attempt still cost time

    def test_fabric_latency_spike(self):
        fabric = standard_topology()
        baseline = fabric.one_way_time("client", "cloud-a", 1024)
        plan = FaultPlan(seed=0, clock=fabric.clock).spike_link(
            "client", "cloud-a", 4.0)
        fabric.fault_plan = plan
        assert fabric.one_way_time("client", "cloud-a", 1024) == pytest.approx(
            4.0 * baseline)

    def test_spike_multipliers_compose(self):
        plan = (FaultPlan()
                .spike_link("a", "b", 2.0)
                .spike_link("a", "b", 3.0))
        assert plan.latency_multiplier("a", "b") == pytest.approx(6.0)
        assert plan.latency_multiplier("a", "c") == 1.0


class TestNodeCrashWindows:
    def test_node_down_query(self):
        clock = SimClock()
        plan = FaultPlan(clock=clock).crash_node("peer.org1", 0.0, 5.0)
        assert plan.node_down("peer.org1")
        assert not plan.node_down("peer.org2")
        clock.advance(5.0)
        assert not plan.node_down("peer.org1")


class TestAvailabilityDips:
    def test_dip_overrides_within_window(self):
        clock = SimClock()
        plan = FaultPlan(clock=clock).dip_service("ocr", 0.25, 0.0, 10.0)
        assert plan.service_availability("ocr", 0.99) == 0.25
        assert plan.service_availability("other", 0.99) == 0.99
        clock.advance(10.0)
        assert plan.service_availability("ocr", 0.99) == 0.99

    def test_dip_never_raises_availability(self):
        plan = FaultPlan().dip_service("ocr", 0.9)
        assert plan.service_availability("ocr", 0.5) == 0.5

    def test_ai_service_fails_under_total_dip(self):
        service = SimulatedAiService("ocr", "text", 0.01,
                                     availability=1.0, accuracy=1.0, seed=3)
        service.fault_plan = FaultPlan().dip_service("ocr", 0.0)
        with pytest.raises(ServiceUnavailableError):
            service.call("doc")


class TestAccounting:
    def test_counters_mirrored_to_monitoring(self):
        clock = SimClock()
        monitoring = MonitoringService(clock)
        plan = FaultPlan(seed=0, clock=clock,
                         monitoring=monitoring).drop_link("a", "b", 1.0)
        plan.link_dropped("a", "b")
        plan.link_dropped("a", "b")
        assert plan.counters["link_drop"] == 2
        assert monitoring.metrics.counter("faults.link_drop") == 2.0

    def test_describe_reports_injected_counts(self):
        plan = FaultPlan(seed=7).drop_link("a", "b", 1.0)
        plan.link_dropped("a", "b")
        description = plan.describe()
        assert description["seed"] == 7
        assert description["injected"] == {"link_drop": 1}
