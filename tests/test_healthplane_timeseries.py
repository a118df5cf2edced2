"""Tests for the windowed time-series store: windows, labels, cardinality."""

import pytest

from repro.cloudsim.clock import SimClock
from repro.cloudsim.healthplane import TimeSeriesStore
from repro.cloudsim.healthplane.timeseries import series_key
from repro.core.errors import ConfigurationError


def _store(**kwargs):
    clock = SimClock()
    defaults = dict(interval_s=10.0, window_count=6, max_series=8)
    defaults.update(kwargs)
    return clock, TimeSeriesStore(clock, **defaults)


class TestSeriesKey:
    def test_bare_name(self):
        assert series_key("api.latency") == "api.latency"
        assert series_key("api.latency", {}) == "api.latency"

    def test_labels_sorted(self):
        key = series_key("api.latency", {"tenant": "t1", "route": "/r"})
        assert key == "api.latency{route=/r,tenant=t1}"

    def test_label_order_irrelevant(self):
        a = series_key("m", {"a": "1", "b": "2"})
        b = series_key("m", {"b": "2", "a": "1"})
        assert a == b


class TestWindows:
    def test_samples_in_one_window_aggregate(self):
        clock, store = _store()
        for v in (1.0, 5.0, 3.0):
            store.record("m", v)
            clock.advance(1.0)
        windows = store.windows("m")
        assert len(windows) == 1
        w = windows[0]
        assert (w.count, w.sum, w.min, w.max, w.last) == (3, 9.0, 1.0, 5.0, 3.0)
        assert w.mean == pytest.approx(3.0)

    def test_window_boundaries_aligned_to_interval(self):
        clock, store = _store()
        clock.advance(27.0)                       # inside [20, 30)
        store.record("m", 1.0)
        w = store.windows("m")[0]
        assert (w.start_s, w.end_s) == (20.0, 30.0)

    def test_rollover_closes_previous_window(self):
        clock, store = _store()
        store.record("m", 1.0)
        clock.advance(10.0)                       # next window
        store.record("m", 2.0)
        windows = store.windows("m")
        assert len(windows) == 2
        assert windows[0].sum == 1.0 and windows[1].sum == 2.0

    def test_ring_buffer_caps_history(self):
        clock, store = _store(window_count=3)
        for i in range(10):
            store.record("m", 1.0)
            clock.advance(10.0)
        # 3 closed windows max, plus the live one; oldest windows fell off.
        windows = store.windows("m")
        assert len(windows) == 4
        assert windows[0].start_s == 60.0

    def test_percentiles_nearest_rank(self):
        clock, store = _store()
        for v in range(1, 101):
            store.record("m", float(v))
        w = store.windows("m")[0]
        assert w.p50 == 50.0
        assert w.p99 == 99.0

    def test_empty_gap_windows_are_skipped_not_zero_filled(self):
        clock, store = _store()
        store.record("m", 1.0)
        clock.advance(50.0)                       # 4 empty windows pass
        store.record("m", 2.0)
        assert len(store.windows("m")) == 2       # no zero-count windows


class TestHorizonQueries:
    def test_total_over_trailing_horizon(self):
        clock, store = _store()
        store.record("good", 1.0)
        clock.advance(10.0)
        store.record("good", 1.0)
        clock.advance(10.0)
        store.record("good", 1.0)
        # Horizon of 10s from now=20 covers windows ending > 10s.
        assert store.total("good", 10.0) == 2.0
        assert store.total("good", 1000.0) == 3.0

    def test_aggregate_returns_count_and_sum(self):
        clock, store = _store()
        store.record("m", 2.0)
        store.record("m", 3.0)
        count, total = store.aggregate("m", 60.0)
        assert (count, total) == (2, 5.0)

    def test_unknown_series_is_zero(self):
        _, store = _store()
        assert store.total("nope", 60.0) == 0.0
        assert store.aggregate("nope", 60.0) == (0, 0.0)
        assert store.latest("nope") is None

    def test_nonpositive_horizon_rejected(self):
        _, store = _store()
        store.record("m", 1.0)
        with pytest.raises(ConfigurationError):
            store.total("m", 0.0)
        with pytest.raises(ConfigurationError):
            store.total("m", -5.0)

    def test_span_is_interval_times_window_count(self):
        _, store = _store(interval_s=60.0, window_count=4320)
        assert store.span_s == 259200.0           # exactly 3 days


class TestLabelsAndCardinality:
    def test_labeled_series_are_distinct(self):
        clock, store = _store()
        store.record("lat", 1.0, labels={"tenant": "a"})
        store.record("lat", 9.0, labels={"tenant": "b"})
        assert store.total("lat", 60.0, labels={"tenant": "a"}) == 1.0
        assert store.total("lat", 60.0, labels={"tenant": "b"}) == 9.0

    def test_cardinality_cap_evicts_least_recently_updated(self):
        clock, store = _store(max_series=3)
        for name in ("a", "b", "c"):
            store.record(name, 1.0)
        store.record("a", 1.0)                    # refresh a; b is now LRU
        store.record("d", 1.0)                    # evicts b
        assert store.evictions == 1
        assert not store.has_series("b")
        assert store.has_series("a") and store.has_series("d")
        assert store.cardinality == 3

    def test_describe_is_serializable_accounting(self):
        _, store = _store()
        store.record("m", 1.0)
        desc = store.describe()
        assert desc["cardinality"] == 1
        assert desc["span_s"] == 60.0
        assert desc["evictions"] == 0

    def test_invalid_configs_rejected(self):
        clock = SimClock()
        with pytest.raises(ConfigurationError):
            TimeSeriesStore(clock, interval_s=0.0)
        with pytest.raises(ConfigurationError):
            TimeSeriesStore(clock, window_count=0)
        with pytest.raises(ConfigurationError):
            TimeSeriesStore(clock, max_series=0)


class TestClockDiscipline:
    def test_recording_never_advances_the_clock(self):
        clock, store = _store()
        clock.advance(123.0)
        before = clock.now
        for i in range(100):
            store.record("m", float(i), labels={"i": str(i % 5)})
        store.total("m", 60.0, labels={"i": "0"})
        assert clock.now == before
