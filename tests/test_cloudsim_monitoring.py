"""Tests for the logging/monitoring service: scrubbing, chaining, metrics."""

import dataclasses

import pytest

from repro.cloudsim.clock import SimClock
from repro.cloudsim.monitoring import (
    LEVEL_RANKS,
    LogStore,
    MetricsRegistry,
    MonitoringService,
    scrub,
    scrub_value,
)
from repro.core.errors import ConfigurationError, IntegrityError


class TestScrubbing:
    def test_ssn_redacted(self):
        assert "123-45-6789" not in scrub("patient ssn 123-45-6789 seen")

    def test_email_redacted(self):
        assert "a@b.com" not in scrub("contact a@b.com now")

    def test_card_number_redacted(self):
        assert "4111111111111111" not in scrub("card 4111111111111111")

    def test_clean_text_untouched(self):
        text = "job-000001 stored 3 records"
        assert scrub(text) == text

    def test_attributes_scrubbed_on_append(self):
        store = LogStore()
        entry = store.append("ingest", "ok", contact="reach me at a@b.com")
        assert "a@b.com" not in entry.attributes["contact"]

    def test_nested_dict_attribute_scrubbed(self):
        # Regression: only top-level str values used to be scrubbed, so a
        # nested dict carried the SSN verbatim into the hash chain.
        store = LogStore()
        entry = store.append("ingest", "ok",
                             patient={"ssn": "123-45-6789",
                                      "contact": {"email": "a@b.com"}})
        assert entry.attributes["patient"]["ssn"] == "[REDACTED]"
        assert entry.attributes["patient"]["contact"]["email"] == "[REDACTED]"
        assert "123-45-6789" not in store.entries()[0].entry_hash  # sanity
        assert store.verify_chain()

    def test_nested_list_and_tuple_attributes_scrubbed(self):
        store = LogStore()
        entry = store.append(
            "ingest", "ok",
            contacts=["a@b.com", {"card": "4111 1111 1111 1111"}],
            pair=("ssn 123-45-6789", 7))
        assert entry.attributes["contacts"][0] == "[REDACTED]"
        assert entry.attributes["contacts"][1]["card"] == "[REDACTED]"
        assert isinstance(entry.attributes["pair"], tuple)
        assert "123-45-6789" not in entry.attributes["pair"][0]
        assert entry.attributes["pair"][1] == 7

    def test_sensitive_dict_keys_scrubbed(self):
        scrubbed = scrub_value({"a@b.com": "x"})
        assert list(scrubbed) == ["[REDACTED]"]

    def test_scrub_value_leaves_scalars_alone(self):
        assert scrub_value(3.5) == 3.5
        assert scrub_value(None) is None
        assert scrub_value(True) is True


class TestLogChain:
    def test_chain_verifies(self):
        store = LogStore()
        for i in range(5):
            store.append("s", f"message {i}")
        assert store.verify_chain()

    def test_tampered_message_detected(self):
        store = LogStore()
        store.append("s", "original")
        entry = store._entries[0]
        store._entries[0] = dataclasses.replace(entry, message="forged")
        with pytest.raises(IntegrityError):
            store.verify_chain()

    def test_deleted_entry_detected(self):
        store = LogStore()
        store.append("s", "one")
        store.append("s", "two")
        del store._entries[0]
        with pytest.raises(IntegrityError):
            store.verify_chain()

    def test_entries_filter_by_stream_and_level(self):
        store = LogStore()
        store.append("a", "x", level="INFO")
        store.append("b", "y", level="WARN")
        store.append("a", "z", level="WARN")
        assert len(store.entries(stream="a")) == 2
        assert len(store.entries(level="WARN")) == 2
        assert len(store.entries(stream="a", level="WARN")) == 1

    def test_timestamps_follow_clock(self):
        clock = SimClock()
        store = LogStore(clock)
        store.append("s", "first")
        clock.advance(5.0)
        entry = store.append("s", "second")
        assert entry.timestamp == 5.0

    def test_non_serializable_attribute_raises_typed_error(self):
        # Regression: json.dumps used to raise a raw TypeError from inside
        # the hash computation; now the bad call is rejected up front with
        # a ConfigurationError naming the offending key.
        store = LogStore()
        store.append("s", "good")
        with pytest.raises(ConfigurationError, match="'weird'"):
            store.append("s", "bad", fine=1, weird={1, 2, 3})
        # The chain is untouched by the failed append.
        assert len(store) == 1
        assert store.verify_chain()
        store.append("s", "still fine")
        assert store.verify_chain()

    def test_unencodable_field_outside_attributes_raises_unchanged(self):
        # Only attributes are checked key by key; any other encoding
        # failure is the encoder's own error, and nothing is appended.
        store = LogStore()
        with pytest.raises(TypeError):
            store.append(object(), "msg")
        assert len(store) == 0

    def test_non_serializable_dataclass_attribute_rejected(self):
        @dataclasses.dataclass
        class Unserializable:
            x: int = 1

        store = LogStore()
        with pytest.raises(ConfigurationError, match="'payload'"):
            store.append("s", "bad", payload=Unserializable())
        assert len(store) == 0


class TestMetrics:
    def test_counter(self):
        metrics = MetricsRegistry()
        metrics.incr("x")
        metrics.incr("x", 2)
        assert metrics.counter("x") == 3

    def test_gauge(self):
        metrics = MetricsRegistry()
        metrics.set_gauge("g", 1.5)
        assert metrics.gauge("g") == 1.5
        assert metrics.gauge("missing") is None

    def test_registered_gauge_reads_its_owner_when_asked(self):
        metrics = MetricsRegistry()
        queue = []
        metrics.register_gauge("depth", lambda: len(queue))
        assert metrics.gauge("depth") == 0
        queue.append("job")
        assert metrics.gauge("depth") == 1
        with pytest.raises(ConfigurationError, match="'depth'"):
            metrics.register_gauge("depth", lambda: 0)
        assert metrics.gauge("depth") == 1

    def test_summary_percentiles(self):
        metrics = MetricsRegistry()
        for v in range(1, 101):
            metrics.observe("lat", float(v))
        summary = metrics.summary("lat")
        assert summary["count"] == 100
        assert summary["min"] == 1.0
        assert summary["max"] == 100.0
        # Nearest-rank: p50 of 1..100 is the 50th ranked value.
        assert summary["p50"] == pytest.approx(50.0)
        assert summary["p95"] == pytest.approx(95.0)
        assert summary["p99"] == pytest.approx(99.0)

    def test_percentile_nearest_rank_exact_values(self):
        # Regression: values[int(p*n)] overshot by one rank — p50 of
        # [1.0, 2.0] reported 2.0 (the max).  Nearest-rank is
        # values[ceil(p*n) - 1].
        def summary_of(values):
            metrics = MetricsRegistry()
            for v in values:
                metrics.observe("x", v)
            return metrics.summary("x")

        one = summary_of([42.0])
        assert one["p50"] == one["p95"] == one["p99"] == 42.0

        two = summary_of([1.0, 2.0])
        assert two["p50"] == 1.0       # was 2.0 before the fix
        assert two["p95"] == 2.0
        assert two["p99"] == 2.0

        four = summary_of([1.0, 2.0, 3.0, 4.0])
        assert four["p50"] == 2.0      # ceil(0.5*4)-1 = 1
        assert four["p95"] == 4.0      # ceil(3.8)-1 = 3
        assert four["p99"] == 4.0

        hundred = summary_of([float(v) for v in range(1, 101)])
        assert hundred["p50"] == 50.0
        assert hundred["p95"] == 95.0
        assert hundred["p99"] == 99.0

    def test_empty_summary(self):
        assert MetricsRegistry().summary("none") == {"count": 0}

    def test_exemplar_links_worst_sample_to_trace(self):
        metrics = MetricsRegistry()
        metrics.observe("lat", 0.5, trace_id="t-00000001")
        metrics.observe("lat", 2.0, trace_id="t-00000002")
        metrics.observe("lat", 1.0, trace_id="t-00000003")
        metrics.observe("lat", 9.0)    # untraced samples never become one
        assert metrics.exemplar("lat") == {"value": 2.0,
                                           "trace_id": "t-00000002"}
        assert metrics.exemplar("missing") is None


class TestMonitoringService:
    def test_log_increments_counter(self):
        monitoring = MonitoringService()
        monitoring.log("ingest", "hello", level="WARN")
        assert monitoring.metrics.counter("log.ingest.warn") == 1

    @pytest.mark.parametrize("bad", [object(), {1, 2},
                                     {"nested": {1: "a", "b": 2}}],
                             ids=["object", "set", "mixed-key-dict"])
    def test_rejected_entry_is_not_counted(self, bad):
        # Regression: log() bumped log.<stream>.<level>, and with it the
        # health-plane series, before the append that rejected the entry.
        from repro.cloudsim.healthplane import TimeSeriesStore
        clock = SimClock()
        monitoring = MonitoringService(clock)
        store = TimeSeriesStore(clock, interval_s=10.0)
        monitoring.metrics.bind_series(store)
        monitoring.log("api", "first")
        with pytest.raises(ConfigurationError, match="'weird'"):
            monitoring.log("api", "hello", weird=bad)
        assert len(monitoring.logs) == 1
        assert monitoring.logs.verify_chain()
        assert monitoring.metrics.counter("log.api.info") == 1.0
        assert store.total("log.api.info", 10.0) == 1.0


class TestScrubSets:
    def test_set_elements_scrubbed_in_place(self):
        cleaned = scrub_value({"a@b.com", "fine"})
        assert isinstance(cleaned, set)
        assert cleaned == {"[REDACTED]", "fine"}

    def test_frozenset_stays_frozen(self):
        cleaned = scrub_value(frozenset({"ssn 123-45-6789"}))
        assert isinstance(cleaned, frozenset)
        assert not any("123-45-6789" in v for v in cleaned)

    def test_set_attribute_rejected_without_leaking_phi(self):
        # Sets are still not JSON-serializable, so the append is rejected
        # with the usual typed error naming the key — but the scrubbed
        # attribute (and thus anything the error path repr()s) must not
        # hold the raw SSN.
        store = LogStore()
        with pytest.raises(ConfigurationError, match="'bad'"):
            store.append("s", "msg", bad={"ssn 123-45-6789"})
        assert len(store) == 0

    def test_nested_set_inside_dict_scrubbed(self):
        cleaned = scrub_value({"contacts": {"a@b.com"}})
        assert cleaned["contacts"] == {"[REDACTED]"}


class TestLogEntriesIndexedFiltering:
    def _store(self):
        store = LogStore()
        store.append("api", "d", level="DEBUG")
        store.append("api", "i", level="INFO")
        store.append("ingest", "w", level="WARN")
        store.append("api", "e", level="ERROR")
        store.append("api", "c", level="CRITICAL")
        return store

    def test_since_index_slices_from_cursor(self):
        store = self._store()
        assert [e.message for e in store.entries(since_index=3)] == ["e", "c"]
        assert store.entries(since_index=len(store)) == []

    def test_since_index_clamps_negative(self):
        store = self._store()
        assert len(store.entries(since_index=-5)) == len(store)

    def test_min_level_ranks(self):
        store = self._store()
        assert [e.message for e in store.entries(min_level="WARN")] == [
            "w", "e", "c"]
        assert [e.message for e in store.entries(min_level="DEBUG")] == [
            "d", "i", "w", "e", "c"]

    def test_min_level_composes_with_stream_and_cursor(self):
        store = self._store()
        got = store.entries(stream="api", since_index=1, min_level="ERROR")
        assert [e.message for e in got] == ["e", "c"]

    def test_unknown_min_level_rejected(self):
        store = self._store()
        with pytest.raises(ConfigurationError, match="FATAL"):
            store.entries(min_level="FATAL")

    def test_custom_entry_level_never_filtered_out(self):
        # An entry appended with a level outside LEVEL_RANKS ranks above
        # every known level, so a min_level filter keeps it visible
        # rather than silently hiding it.
        store = LogStore()
        store.append("s", "odd", level="AUDIT")
        assert [e.message for e in store.entries(min_level="CRITICAL")] == [
            "odd"]

    def test_level_ranks_order(self):
        ranks = [LEVEL_RANKS[l] for l in
                 ("DEBUG", "INFO", "WARN", "ERROR", "CRITICAL")]
        assert ranks == sorted(ranks)
        assert len(set(ranks)) == len(ranks)


class TestSeriesBinding:
    def test_bound_registry_mirrors_into_series(self):
        from repro.cloudsim.healthplane import TimeSeriesStore
        clock = SimClock()
        monitoring = MonitoringService(clock)
        store = TimeSeriesStore(clock, interval_s=10.0)
        monitoring.metrics.bind_series(store)
        monitoring.metrics.incr("hits")
        monitoring.metrics.observe("lat", 0.5)
        monitoring.metrics.set_gauge("depth", 7.0)
        assert store.total("hits", 10.0) == 1.0
        assert store.total("lat", 10.0) == 0.5
        assert store.latest("depth").last == 7.0

    def test_registered_gauge_leaves_no_sample(self):
        from repro.cloudsim.healthplane import TimeSeriesStore
        clock = SimClock()
        metrics = MetricsRegistry()
        store = TimeSeriesStore(clock, interval_s=10.0)
        metrics.bind_series(store)
        metrics.register_gauge("depth", lambda: 3)
        assert metrics.gauge("depth") == 3
        assert not store.has_series("depth")

    def test_unbound_registry_unchanged(self):
        metrics = MetricsRegistry()
        metrics.incr("hits")       # must not raise without a bound store
        assert metrics.counter("hits") == 1
