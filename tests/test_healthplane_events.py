"""Tests for the platform event stream: order, determinism, bounded fans."""

import pytest

from repro.cloudsim.clock import SimClock
from repro.cloudsim.healthplane import EventBus
from repro.cloudsim.healthplane.events import HISTORY
from repro.cloudsim.monitoring import MonitoringService
from repro.core.errors import ConfigurationError


class TestOrdering:
    def test_sequence_numbers_are_total_order(self):
        bus = EventBus(SimClock())
        events = [bus.publish("gateway", "api.request", i=i)
                  for i in range(5)]
        assert [e.seq for e in events] == [1, 2, 3, 4, 5]

    def test_subscribers_see_publish_order(self):
        bus = EventBus(SimClock())
        sub = bus.subscribe("dash")
        for i in range(4):
            bus.publish("gateway", "api.request", i=i)
        polled = sub.poll()
        assert [e.attributes["i"] for e in polled] == [0, 1, 2, 3]

    def test_timestamps_follow_the_clock(self):
        clock = SimClock()
        bus = EventBus(clock)
        a = bus.publish("x", "k")
        clock.advance(2.5)
        b = bus.publish("x", "k")
        assert (a.timestamp_s, b.timestamp_s) == (0.0, 2.5)


class TestDeterminism:
    def test_event_ids_reproduce_across_runs(self):
        ids_a = [EventBus(SimClock(), seed=7).publish("g", "api.request").event_id]
        ids_b = [EventBus(SimClock(), seed=7).publish("g", "api.request").event_id]
        assert ids_a == ids_b
        assert ids_a[0].startswith("ev-")

    def test_seed_changes_ids(self):
        a = EventBus(SimClock(), seed=1).publish("g", "k").event_id
        b = EventBus(SimClock(), seed=2).publish("g", "k").event_id
        assert a != b

    def test_ids_distinct_within_a_run(self):
        bus = EventBus(SimClock())
        ids = {bus.publish("g", "k").event_id for _ in range(50)}
        assert len(ids) == 50


class TestSubscriptions:
    def test_kind_prefix_filtering(self):
        bus = EventBus(SimClock())
        sub = bus.subscribe("slo-only", kinds=["slo"])
        bus.publish("healthplane", "slo.alert")
        bus.publish("gateway", "api.request")
        bus.publish("healthplane", "slo.alert_resolved")
        kinds = [e.kind for e in sub.poll()]
        assert kinds == ["slo.alert", "slo.alert_resolved"]

    def test_exact_kind_match(self):
        bus = EventBus(SimClock())
        sub = bus.subscribe("s", kinds=["api.request"])
        bus.publish("g", "api.request")
        bus.publish("g", "api.requests.other")    # not a dotted child
        assert len(sub.poll()) == 1

    def test_bounded_queue_drops_oldest(self):
        bus = EventBus(SimClock())
        sub = bus.subscribe("slow", maxlen=3)
        for i in range(5):
            bus.publish("g", "k", i=i)
        assert sub.dropped == 2
        assert bus.dropped == 2
        assert [e.attributes["i"] for e in sub.poll()] == [2, 3, 4]

    def test_drops_mirrored_to_metrics(self):
        clock = SimClock()
        monitoring = MonitoringService(clock)
        bus = EventBus(clock, monitoring=monitoring)
        bus.subscribe("slow", maxlen=1)
        for _ in range(3):
            bus.publish("g", "k")
        assert monitoring.metrics.counter(
            "healthplane.events.dropped.slow") == 2
        assert monitoring.metrics.counter("healthplane.events.published") == 3

    def test_clean_deliveries_mirrored_to_metrics(self):
        clock = SimClock()
        monitoring = MonitoringService(clock)
        bus = EventBus(clock, monitoring=monitoring)
        bus.subscribe("dash", maxlen=8)
        for _ in range(3):
            bus.publish("g", "k")
        assert monitoring.metrics.counter(
            "healthplane.events.delivered.dash") == 3
        assert monitoring.metrics.counter(
            "healthplane.events.dropped.dash") == 0

    def test_poll_budget(self):
        bus = EventBus(SimClock())
        sub = bus.subscribe("s")
        for i in range(5):
            bus.publish("g", "k", i=i)
        assert len(sub.poll(max_events=2)) == 2
        assert sub.backlog == 3

    def test_duplicate_subscriber_rejected(self):
        bus = EventBus(SimClock())
        bus.subscribe("dash")
        with pytest.raises(ConfigurationError):
            bus.subscribe("dash")

    def test_unknown_subscriber_lookup_raises(self):
        bus = EventBus(SimClock())
        with pytest.raises(ConfigurationError):
            bus.subscription("nope")

    def test_zero_maxlen_rejected(self):
        bus = EventBus(SimClock())
        with pytest.raises(ConfigurationError):
            bus.subscribe("s", maxlen=0)


class TestIntrospection:
    def test_recent_ring_is_bounded(self):
        bus = EventBus(SimClock())
        for i in range(HISTORY + 6):
            bus.publish("g", "k", i=i)
        recent = bus.recent()
        assert [e.attributes["i"] for e in recent] == list(
            range(6, HISTORY + 6))
        assert [e.attributes["i"] for e in bus.recent(limit=2)] == [
            HISTORY + 4, HISTORY + 5]

    def test_describe_accounts_by_source(self):
        bus = EventBus(SimClock())
        bus.subscribe("dash", maxlen=8)
        bus.publish("gateway", "api.request")
        bus.publish("gateway", "api.request")
        bus.publish("cache", "cache.origin_fetch")
        desc = bus.describe()
        assert desc["published"] == 3
        assert desc["by_source"] == {"cache": 1, "gateway": 2}
        assert desc["subscribers"]["dash"]["backlog"] == 3

    def test_to_dict_round_trips(self):
        import json
        bus = EventBus(SimClock())
        event = bus.publish("g", "k", a=1)
        assert json.loads(json.dumps(event.to_dict()))["attributes"] == {"a": 1}

    def test_publish_never_advances_the_clock(self):
        clock = SimClock()
        bus = EventBus(clock, monitoring=MonitoringService(clock))
        bus.subscribe("s", maxlen=1)
        for _ in range(10):
            bus.publish("g", "k")
        assert clock.now == 0.0


class TestSubscriberSlo:
    """Regression: a saturated slow subscriber must page, not silently
    lose history."""

    def _plane(self):
        from repro.cloudsim.healthplane import HealthPlane
        monitoring = MonitoringService(SimClock())
        plane = HealthPlane(monitoring)
        return monitoring.clock, plane

    def _publish(self, clock, plane, *, seconds, period_s=2.0):
        end = clock.now + seconds
        while clock.now < end:
            plane.events.publish("gateway", "api.request")
            clock.advance(period_s)

    def test_saturated_slow_subscriber_pages(self):
        clock, plane = self._plane()
        slow = plane.events.subscribe("slow-dashboard", maxlen=16)
        plane.register_subscriber_slo("slow-dashboard", target=0.99)
        # A healthy hour: the dashboard keeps up (polls every event).
        end = clock.now + 3600
        while clock.now < end:
            plane.events.publish("gateway", "api.request")
            slow.poll()
            clock.advance(2.0)
        assert plane.evaluate() == []
        # The dashboard stalls; its 16-slot queue saturates and every
        # further publish drops the oldest.  Sustained, both FAST_PAGE
        # windows burn past 14.4x -> page.
        self._publish(clock, plane, seconds=1400)
        fired = plane.evaluate()
        assert [a.severity for a in fired] == ["page"]
        assert fired[0].slo == "events-slow-dashboard"
        assert slow.dropped > 0

    def test_keeping_up_never_pages(self):
        clock, plane = self._plane()
        plane.events.subscribe("healthy-dashboard", maxlen=64)
        plane.register_subscriber_slo("healthy-dashboard")
        sub = plane.events.subscription("healthy-dashboard")
        end = clock.now + 4800
        while clock.now < end:
            plane.events.publish("gateway", "api.request")
            sub.poll()
            clock.advance(2.0)
        assert plane.evaluate() == []
        assert sub.dropped == 0
