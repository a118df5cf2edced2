"""Tests for cache eviction policies."""

from __future__ import annotations

import dataclasses
import zlib
from collections import Counter, OrderedDict
from typing import Dict, Hashable, List, TypeVar

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.caching.hierarchy import (
    BatchLookupResult,
    CacheHierarchy,
    CacheLevel,
    Origin,
    _Flight,
)
from repro.caching.policies import (
    Cache,
    LfuCache,
    LruCache,
    TinyLfuCache,
    TtlCache,
    TwoQueueCache,
    make_cache,
)
from repro.cloudsim.clock import SimClock
from repro.cloudsim.tracing import maybe_span
from repro.core.errors import ConfigurationError, NotFoundError

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class TestLru:
    def test_hit_miss_accounting(self):
        cache = LruCache(2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_ratio == 0.5

    def test_evicts_least_recent(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")           # refresh a
        cache.put("c", 3)        # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.stats.evictions == 1

    def test_update_refreshes(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        cache.put("c", 3)        # evicts b, not a
        assert cache.get("a") == 10
        assert cache.get("b") is None

    def test_invalidate(self):
        cache = LruCache(2)
        cache.put("a", 1)
        assert cache.invalidate("a")
        assert not cache.invalidate("a")
        assert cache.get("a") is None
        assert cache.stats.invalidations == 1

    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            LruCache(0)


class TestLfu:
    def test_evicts_least_frequent(self):
        cache = LfuCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        for _ in range(5):
            cache.get("a")
        cache.put("c", 3)        # b (freq 1) evicted, a (freq 6) kept
        assert cache.get("a") == 1
        assert cache.get("b") is None

    def test_tie_broken_by_recency(self):
        cache = LfuCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)        # a and b tied at freq 1; a older -> evicted
        assert cache.get("a") is None
        assert cache.get("b") == 2

    def test_remove_cleans_metadata(self):
        cache = LfuCache(2)
        cache.put("a", 1)
        cache.invalidate("a")
        assert len(cache) == 0
        cache.put("a", 2)
        assert cache.get("a") == 2


class TestTwoQueue:
    def test_one_hit_wonders_do_not_pollute_main(self):
        cache = TwoQueueCache(8, probation_fraction=0.25)
        cache.put("hot", 1)
        cache.get("hot")         # promoted to main
        for i in range(20):      # a scan of one-hit wonders
            cache.put(f"scan-{i}", i)
        assert cache.get("hot") == 1

    def test_second_touch_promotes(self):
        cache = TwoQueueCache(8)
        cache.put("a", 1)
        assert cache.get("a") == 1      # promotion
        assert "a" in cache._main

    def test_len_counts_both_queues(self):
        cache = TwoQueueCache(8)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        assert len(cache) == 2

    def test_invalid_fraction(self):
        with pytest.raises(ConfigurationError):
            TwoQueueCache(8, probation_fraction=1.5)


class TestTtl:
    def test_expires_after_ttl(self):
        clock = SimClock()
        cache = TtlCache(4, ttl_s=10.0, clock=clock)
        cache.put("a", 1)
        assert cache.get("a") == 1
        clock.advance(11.0)
        assert cache.get("a") is None
        assert cache.stats.expirations == 1

    def test_fresh_within_ttl(self):
        clock = SimClock()
        cache = TtlCache(4, ttl_s=10.0, clock=clock)
        cache.put("a", 1)
        clock.advance(9.0)
        assert cache.get("a") == 1

    def test_rewrite_resets_ttl(self):
        clock = SimClock()
        cache = TtlCache(4, ttl_s=10.0, clock=clock)
        cache.put("a", 1)
        clock.advance(9.0)
        cache.put("a", 2)
        clock.advance(9.0)
        assert cache.get("a") == 2

    def test_capacity_still_bounds(self):
        cache = TtlCache(2, ttl_s=100.0)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.stats.evictions == 1

    def test_invalid_ttl(self):
        with pytest.raises(ConfigurationError):
            TtlCache(2, ttl_s=0.0)


class _ReferenceLfu:
    """The pre-P4 O(n) LFU (min scan over (freq, recency)) — the oracle
    for trace-for-trace eviction equivalence of the O(1) bucket rewrite."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._data = {}
        self._freq = Counter()
        self._recency = {}
        self._tick = 0
        self.evicted = []

    def _touch(self, key):
        self._tick += 1
        self._freq[key] += 1
        self._recency[key] = self._tick

    def get(self, key):
        if key in self._data:
            self._touch(key)
            return self._data[key]
        return None

    def put(self, key, value):
        if key not in self._data and len(self._data) >= self.capacity:
            victim = min(self._data,
                         key=lambda k: (self._freq[k], self._recency[k]))
            del self._data[victim]
            del self._freq[victim]
            del self._recency[victim]
            self.evicted.append(victim)
        self._data[key] = value
        self._touch(key)

    def invalidate(self, key):
        if key in self._data:
            del self._data[key]
            del self._freq[key]
            del self._recency[key]


class _TrackingLfu(LfuCache):
    def __init__(self, capacity):
        super().__init__(capacity)
        self.evicted = []

    def _evict(self):
        before = set(self._data)
        super()._evict()
        self.evicted.extend(before - set(self._data))


_lfu_ops = st.lists(
    st.tuples(st.sampled_from(["get", "put", "invalidate"]),
              st.integers(min_value=0, max_value=9)),
    min_size=1, max_size=200)


class TestLfuO1Equivalence:
    @settings(max_examples=200, deadline=None)
    @given(capacity=st.integers(min_value=1, max_value=6), ops=_lfu_ops)
    def test_eviction_trace_matches_reference(self, capacity, ops):
        """The O(1) bucket LFU evicts exactly the keys, in exactly the
        order, of the old O(n) min-scan implementation."""
        fast = _TrackingLfu(capacity)
        reference = _ReferenceLfu(capacity)
        for op, key in ops:
            if op == "put":
                fast.put(key, key)
                reference.put(key, key)
            elif op == "get":
                assert fast.get(key) == reference.get(key)
            else:
                fast.invalidate(key)
                reference.invalidate(key)
            assert fast.evicted == reference.evicted
            assert set(fast._data) == set(reference._data)

    def test_eviction_is_o1_buckets(self):
        """Structural check: no O(n) min scan — the victim comes straight
        off the minimum-frequency bucket."""
        cache = LfuCache(3)
        for key in ("a", "b", "c"):
            cache.put(key, key)
        cache.get("b")
        cache.get("c")
        assert cache._min_freq == 1
        assert list(cache._buckets[1]) == ["a"]
        cache.put("d", "d")          # evicts a straight off bucket 1
        assert "a" not in cache._data
        assert cache.stats.evictions == 1


class TestTinyLfu:
    def test_hot_key_survives_scan(self):
        cache = TinyLfuCache(2)
        cache.put("hot", 1)
        for _ in range(5):
            cache.get("hot")
        cache.put("warm", 2)
        # A cold scan cannot displace the hot entries.
        for i in range(10):
            cache.put(f"scan-{i}", i)
        assert cache.get("hot") == 1
        assert cache.stats.admission_rejections > 0

    def test_repeat_misses_earn_admission(self):
        cache = TinyLfuCache(1)
        cache.put("a", 1)
        for _ in range(3):
            cache.get("a")
        assert cache.put("b", 2) is None and cache.get("b") is None
        for _ in range(6):
            cache.get("b")          # misses feed the sketch
        cache.put("b", 2)
        assert cache.get("b") == 2  # b out-frequencied a

    def test_update_in_place_never_rejected(self):
        cache = TinyLfuCache(1)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get("a") == 2
        assert cache.stats.admission_rejections == 0

    def test_stored_none_distinguishable(self):
        cache = TinyLfuCache(4)
        cache.put("k", None)
        hit, value = cache.lookup("k")
        assert hit and value is None

    def test_invalidate(self):
        cache = TinyLfuCache(4)
        cache.put("a", 1)
        assert cache.invalidate("a")
        assert cache.get("a") is None


class TestBulkSurface:
    def test_get_many_counts_per_key_stats(self):
        cache = LruCache(8)
        cache.put_many({"a": 1, "b": 2})
        found = cache.get_many(["a", "b", "c"])
        assert found == {"a": 1, "b": 2}
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1
        assert cache.stats.batch_gets == 1
        assert cache.stats.batch_puts == 1

    def test_put_many_accepts_pairs(self):
        cache = LruCache(8)
        cache.put_many([("a", 1), ("b", 2)])
        assert cache.get_many(["a", "b"]) == {"a": 1, "b": 2}


class TestFactory:
    @pytest.mark.parametrize("policy,cls", [
        ("lru", LruCache), ("lfu", LfuCache), ("2q", TwoQueueCache),
        ("ttl", TtlCache), ("tinylfu", TinyLfuCache),
    ])
    def test_make_cache(self, policy, cls):
        assert isinstance(make_cache(policy, 16), cls)

    def test_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            make_cache("arc", 16)


# -- reference models of the batch-native levels ------------------------------
#
# The per-key LRU, TinyLFU and count-min sketch that the batch-native
# levels replaced, verbatim but for their names: every probe goes through
# ``Cache.lookup``, and the sketch hashes a key on every add and estimate.


class _ReferenceLru(Cache[K, V]):
    """Least-recently-used eviction."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._data: "OrderedDict[K, V]" = OrderedDict()

    def _contains(self, key: K) -> bool:
        return key in self._data

    def _read(self, key: K) -> V:
        self._data.move_to_end(key)
        return self._data[key]

    def _write(self, key: K, value: V) -> None:
        if key in self._data:
            self._data.move_to_end(key)
        elif len(self._data) >= self.capacity:
            self._data.popitem(last=False)
            self.stats.evictions += 1
        self._data[key] = value

    def _remove(self, key: K) -> None:
        del self._data[key]

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()


class _ReferenceSketch:
    """4-row count-min frequency sketch with periodic halving (aging).

    Hashes with seeded CRC-32 over ``repr(key)`` rather than built-in
    ``hash`` so estimates — and therefore TinyLFU admission decisions —
    are identical across processes regardless of PYTHONHASHSEED.
    """

    DEPTH = 4

    def __init__(self, capacity: int, sample_factor: int = 10) -> None:
        width = 16
        while width < 4 * capacity:
            width *= 2
        self._mask = width - 1
        self._rows: List[List[int]] = [[0] * width for _ in range(self.DEPTH)]
        self._sample_size = max(1, sample_factor * capacity)
        self._additions = 0

    def _indexes(self, key: Hashable) -> List[int]:
        data = repr(key).encode("utf-8", "backslashreplace")
        return [zlib.crc32(data, row * 0x9E3779B1) & self._mask
                for row in range(self.DEPTH)]

    def add(self, key: Hashable) -> None:
        for row, index in enumerate(self._indexes(key)):
            self._rows[row][index] += 1
        self._additions += 1
        if self._additions >= self._sample_size:
            self._halve()

    def estimate(self, key: Hashable) -> int:
        return min(self._rows[row][index]
                   for row, index in enumerate(self._indexes(key)))

    def _halve(self) -> None:
        for row in self._rows:
            for i, count in enumerate(row):
                row[i] = count >> 1
        self._additions >>= 1


class _ReferenceTinyLfu(Cache[K, V]):
    """LRU main guarded by a TinyLFU admission filter (W-TinyLFU design).

    Every access — hit, miss, or write — feeds a count-min sketch.  When
    the main is full, a new key is admitted only if its estimated
    frequency *exceeds* the LRU victim's, so one-hit wonders (scans,
    exports) bounce off instead of flushing the hot set.  Rejections are
    counted in ``stats.admission_rejections``.
    """

    def __init__(self, capacity: int, sample_factor: int = 10) -> None:
        super().__init__(capacity)
        self._main: "OrderedDict[K, V]" = OrderedDict()
        self._sketch = _ReferenceSketch(capacity, sample_factor)

    def _contains(self, key: K) -> bool:
        return key in self._main

    def _read(self, key: K) -> V:
        self._sketch.add(key)
        self._main.move_to_end(key)
        return self._main[key]

    def _on_miss(self, key: K) -> None:
        self._sketch.add(key)   # repeat misses earn eventual admission

    def _write(self, key: K, value: V) -> None:
        self._sketch.add(key)
        if key in self._main:
            self._main[key] = value
            self._main.move_to_end(key)
            return
        if len(self._main) >= self.capacity:
            victim = next(iter(self._main))
            if self._sketch.estimate(key) <= self._sketch.estimate(victim):
                self.stats.admission_rejections += 1
                return
            del self._main[victim]
            self.stats.evictions += 1
        self._main[key] = value

    def _remove(self, key: K) -> None:
        del self._main[key]

    def __len__(self) -> int:
        return len(self._main)

    def clear(self) -> None:
        self._main.clear()


# Small pools of str, int and tuple keys, so batches repeat keys and
# levels fill, evict and reject.
_keys = st.one_of(st.integers(min_value=0, max_value=11),
                  st.sampled_from(["a", "b", "c", "d", "é"]),
                  st.tuples(st.integers(min_value=0, max_value=2),
                            st.sampled_from(["x", "y"])))
_values = st.one_of(st.none(), st.integers(min_value=0, max_value=99))
# ("get_many", keys, lazy): lazy passes the keys as a generator;
# ("put_many", pairs, mapping): mapping passes them as a dict.
_cache_ops = st.lists(st.one_of(
    st.tuples(st.just("get"), _keys),
    st.tuples(st.just("lookup"), _keys),
    st.tuples(st.just("get_many"), st.lists(_keys, max_size=12),
              st.booleans()),
    st.tuples(st.just("put"), _keys, _values),
    st.tuples(st.just("put_many"),
              st.lists(st.tuples(_keys, _values), max_size=8),
              st.booleans()),
    st.tuples(st.just("invalidate"), _keys),
    st.tuples(st.just("clear"))), min_size=1, max_size=120)


def _apply(cache, op):
    """Run one op; return what the caller sees (dict results as items,
    so their order is compared too)."""
    name, args = op[0], op[1:]
    if name == "get_many":
        keys, lazy = args
        found = cache.get_many((k for k in keys) if lazy else list(keys))
        return list(found.items())
    if name == "put_many":
        pairs, mapping = args
        return cache.put_many(dict(pairs) if mapping else list(pairs))
    if name == "clear":
        return cache.clear()
    return getattr(cache, name)(*args)


class TestBatchNativeLevelsMatchReference:
    @settings(max_examples=150, deadline=None)
    @given(capacity=st.integers(min_value=1, max_value=16), ops=_cache_ops)
    def test_lru_matches_reference(self, capacity, ops):
        cache, reference = LruCache(capacity), _ReferenceLru(capacity)
        for op in ops:
            assert _apply(cache, op) == _apply(reference, op)
            assert (dataclasses.asdict(cache.stats)
                    == dataclasses.asdict(reference.stats))
            assert list(cache._data.items()) == list(reference._data.items())

    @settings(max_examples=150, deadline=None)
    @given(capacity=st.integers(min_value=1, max_value=16), ops=_cache_ops)
    def test_tinylfu_matches_reference(self, capacity, ops):
        cache, reference = TinyLfuCache(capacity), _ReferenceTinyLfu(capacity)
        for op in ops:
            assert _apply(cache, op) == _apply(reference, op)
            assert (dataclasses.asdict(cache.stats)
                    == dataclasses.asdict(reference.stats))
            assert ([(key, value) for key, (value, _) in cache._main.items()]
                    == list(reference._main.items()))
            assert cache._sketch._rows == reference._sketch._rows
            assert cache._sketch._additions == reference._sketch._additions
            # Each resident key keeps exactly its own slots.
            for key, (_, slots) in cache._main.items():
                assert list(slots) == reference._sketch._indexes(key)

    def test_rejected_and_dropped_keys_keep_no_slots(self):
        cache = TinyLfuCache(1)
        cache.put("hot", 1)
        cache.get("hot")
        cache.put("cold", 2)             # rejected by the sketch
        assert cache.stats.admission_rejections == 1
        assert list(cache._main) == ["hot"]
        cache.invalidate("hot")
        assert not cache._main
        cache.put("a", 1)
        cache.clear()
        assert not cache._main


class _PerKeyHierarchy(CacheHierarchy):
    """The batch walk that filled the levels key by key, verbatim but for
    the fill's name: each filled key goes through every level before the
    next key."""

    def _get_many(self, all_keys: List[K], start: float
                  ) -> BatchLookupResult:

        unique: List[K] = []
        seen = set()
        for key in all_keys:
            if key in seen:
                self.coalesced += 1
                self._metric("cache.coalesced")
            else:
                seen.add(key)
                unique.append(key)

        values: Dict[K, V] = {}
        served: Dict[K, str] = {}
        missing: List[K] = []
        coalesced = len(all_keys) - len(unique)
        remaining: List[K] = []
        for key in unique:
            flight = self._inflight.get(key)
            if flight is not None and start < flight.completes_at:
                self.coalesced += 1
                coalesced += 1
                self._metric("cache.coalesced")
                self.clock.advance_to(flight.completes_at)
                if flight.not_found:
                    missing.append(key)
                else:
                    values[key] = flight.value
                served[key] = f"inflight:{flight.served_by}"
            elif self._negatively_cached(key, start):
                missing.append(key)
                served[key] = "negative-cache"
            else:
                remaining.append(key)

        levels_probed = 0
        for depth, level in enumerate(self.levels):
            if not remaining:
                break
            levels_probed += 1
            self.clock.advance(level.access_cost_s)
            hits = level.cache.get_many(remaining)
            if hits:
                for key, value in hits.items():
                    values[key] = value
                    served[key] = level.name
                    self._fill_key(key, value, upto=depth)
                remaining = [k for k in remaining if k not in hits]

        origin_keys = len(remaining)
        if remaining:
            with maybe_span(self.tracer, "cache.origin_fetch", "cache",
                            origin=self.origin.name, keys=len(remaining)):
                self.clock.advance(
                    self.origin.access_cost_s
                    + self.origin.per_item_cost_s * len(remaining))
                self.origin_loads += len(remaining)
                self._metric("cache.origin_loads", len(remaining))
                self._publish("origin_fetch", origin=self.origin.name,
                              keys=len(remaining))
                loaded = self.origin.load_many(remaining)
            completes = self.clock.now
            for key in remaining:
                served[key] = self.origin.name
                if key in loaded:
                    value = loaded[key]
                    values[key] = value
                    self._fill_key(key, value, upto=len(self.levels))
                    self._record_flight(key, _Flight(completes, value,
                                                     self.origin.name))
                else:
                    missing.append(key)
                    self._record_not_found(key)

        return BatchLookupResult(
            values=values, served_by=served, missing=tuple(missing),
            latency_s=self.clock.now - start, levels_probed=levels_probed,
            origin_keys=origin_keys, coalesced=coalesced)

    def _fill_key(self, key: K, value: V, upto: int) -> None:
        for level in self.levels[:upto]:
            level.cache.put(key, value)


_ORIGIN_KEYS = 24      # keys 0..23 exist at the origin; 24..29 do not
_hierarchy_ops = st.lists(st.one_of(
    st.tuples(st.just("get"), st.integers(min_value=0, max_value=29)),
    st.tuples(st.just("get_many"),
              st.lists(st.integers(min_value=0, max_value=29), max_size=16),
              st.booleans()),
    st.tuples(st.just("invalidate"), st.integers(min_value=0, max_value=29))),
    min_size=1, max_size=60)


def _two_level(cls, client, server, client_size, server_size):
    def loader(key):
        if key >= _ORIGIN_KEYS:
            raise NotFoundError(key)
        return f"v{key}"
    return cls([CacheLevel("client", client(client_size), 50e-6),
                CacheLevel("server", server(server_size), 2e-3)],
               Origin("kb", loader=loader, access_cost_s=80e-3,
                      per_item_cost_s=1e-3),
               clock=SimClock(), negative_ttl_s=0.01)


def _hierarchy_step(hierarchy, op):
    name, args = op[0], op[1:]
    if name == "get":
        try:
            result = hierarchy.get(args[0])
        except NotFoundError:
            return "not found"
        return (result.value, result.served_by, result.latency_s,
                result.levels_probed, result.coalesced)
    if name == "get_many":
        keys, lazy = args
        result = hierarchy.get_many((k for k in keys) if lazy else keys)
        return (list(result.values.items()), list(result.served_by.items()),
                result.missing, result.latency_s, result.levels_probed,
                result.origin_keys, result.coalesced)
    return hierarchy.invalidate(args[0])


class TestTwoLevelHierarchyMatchesReference:
    @settings(max_examples=100, deadline=None)
    @given(client_size=st.integers(min_value=1, max_value=6),
           server_size=st.integers(min_value=1, max_value=16),
           ops=_hierarchy_ops)
    def test_lru_over_tinylfu(self, client_size, server_size, ops):
        """Batch-native levels with one fill loop per level serve, count
        and fill exactly as per-key levels filled key by key."""
        fast = _two_level(CacheHierarchy, LruCache, TinyLfuCache,
                          client_size, server_size)
        reference = _two_level(_PerKeyHierarchy, _ReferenceLru,
                               _ReferenceTinyLfu, client_size, server_size)
        for op in ops:
            assert _hierarchy_step(fast, op) == _hierarchy_step(reference, op)
            assert [(name, dataclasses.asdict(stats))
                    for name, stats in fast.stats_by_level()] == [
                (name, dataclasses.asdict(stats))
                for name, stats in reference.stats_by_level()]
            assert fast.origin_loads == reference.origin_loads
            assert fast.clock.now == reference.clock.now
            fast_server, reference_server = (fast.levels[1].cache,
                                             reference.levels[1].cache)
            assert (list(fast.levels[0].cache._data.items())
                    == list(reference.levels[0].cache._data.items()))
            assert list(fast_server._main) == list(reference_server._main)
            assert (fast_server._sketch._rows
                    == reference_server._sketch._rows)
