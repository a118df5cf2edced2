"""Cache eviction policies (Sections I, III).

"Our system employs caching at multiple levels and not just at the client
level."  This module provides the single-node cache with pluggable
eviction policies — LRU, LFU, 2Q, TTL-bounded, and TinyLFU-admission
variants — and hit/miss accounting.  The A1 ablation benchmark compares
the policies on Zipf, looping, and shifting traces; the P4 read-path
benchmark exercises the bulk ``get_many``/``put_many`` surface.
"""

from __future__ import annotations

from collections import Counter, OrderedDict, deque
from dataclasses import dataclass, field
from typing import (Any, Dict, Generic, Hashable, Iterable, List, Mapping,
                    Optional, Sequence, Tuple, TypeVar, Union)
from zlib import crc32

from ..core.errors import ConfigurationError
from ..cloudsim.clock import SimClock

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


@dataclass
class CacheStats:
    """Hit/miss/eviction accounting."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    expirations: int = 0
    invalidations: int = 0
    admission_rejections: int = 0   # TinyLFU: writes the sketch turned away
    batch_gets: int = 0             # get_many calls (hits/misses stay per-key)
    batch_puts: int = 0             # put_many calls

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class Cache(Generic[K, V]):
    """Abstract bounded cache; subclasses define the victim choice."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError("cache capacity must be >= 1")
        self.capacity = capacity
        self.stats = CacheStats()

    # Subclass surface -------------------------------------------------------

    def _contains(self, key: K) -> bool:
        raise NotImplementedError

    def _read(self, key: K) -> V:
        raise NotImplementedError

    def _write(self, key: K, value: V) -> None:
        raise NotImplementedError

    def _remove(self, key: K) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def _on_miss(self, key: K) -> None:
        """Hook for policies that learn from misses (TinyLFU's sketch)."""

    # Public API --------------------------------------------------------------

    def lookup(self, key: K) -> Tuple[bool, Optional[V]]:
        """(hit, value) probe that distinguishes a stored None from a miss."""
        if self._contains(key):
            self.stats.hits += 1
            return True, self._read(key)
        self.stats.misses += 1
        self._on_miss(key)
        return False, None

    def get(self, key: K) -> Optional[V]:
        """Value for key, or None; updates stats."""
        return self.lookup(key)[1]

    def get_many(self, keys: Iterable[K]) -> Dict[K, V]:
        """Bulk probe: present keys only; per-key hit/miss stats in one pass."""
        self.stats.batch_gets += 1
        found: Dict[K, V] = {}
        for key in keys:
            hit, value = self.lookup(key)
            if hit:
                found[key] = value
        return found

    def put(self, key: K, value: V) -> None:
        self._write(key, value)

    def put_many(self, pairs: Union[Mapping[K, V],
                                    Iterable[Tuple[K, V]]]) -> None:
        """Bulk insert (single batched-stats charge)."""
        self.stats.batch_puts += 1
        items = pairs.items() if isinstance(pairs, Mapping) else pairs
        for key, value in items:
            self._write(key, value)

    def invalidate(self, key: K) -> bool:
        """Drop one entry (consistency protocols call this)."""
        if self._contains(key):
            self._remove(key)
            self.stats.invalidations += 1
            return True
        return False

    def clear(self) -> None:
        raise NotImplementedError


class LruCache(Cache[K, V]):
    """Least-recently-used eviction."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._data: "OrderedDict[K, V]" = OrderedDict()

    def _contains(self, key: K) -> bool:
        return key in self._data

    def _read(self, key: K) -> V:
        self._data.move_to_end(key)
        return self._data[key]

    def get_many(self, keys: Iterable[K]) -> Dict[K, V]:
        """Bulk probe in one loop, with ``lookup``'s per-key effects."""
        stats, data = self.stats, self._data
        stats.batch_gets += 1
        found: Dict[K, V] = {}
        for key in keys:
            if key in data:
                stats.hits += 1
                data.move_to_end(key)
                found[key] = data[key]
            else:
                stats.misses += 1
        return found

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


class LfuCache(Cache[K, V]):
    """Least-frequently-used eviction (ties broken by recency).

    O(1) per operation: keys live in per-frequency buckets (an OrderedDict
    each, so insertion order within a bucket is last-touch order), and the
    victim is the front of the minimum-frequency bucket — the least
    recently touched among the least frequently used, exactly the old
    O(n) ``min`` scan's choice.
    """

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._data: Dict[K, V] = {}
        self._freq: Dict[K, int] = {}
        self._buckets: Dict[int, "OrderedDict[K, None]"] = {}
        self._min_freq = 0

    def _touch(self, key: K) -> None:
        freq = self._freq.get(key, 0)
        if freq:
            bucket = self._buckets[freq]
            del bucket[key]
            if not bucket:
                del self._buckets[freq]
                if self._min_freq == freq:
                    self._min_freq = freq + 1
        else:
            self._min_freq = 1
        self._freq[key] = freq + 1
        self._buckets.setdefault(freq + 1, OrderedDict())[key] = None

    def _evict(self) -> None:
        if self._min_freq not in self._buckets:   # stale after invalidate()
            self._min_freq = min(self._buckets)
        bucket = self._buckets[self._min_freq]
        victim, _ = bucket.popitem(last=False)
        if not bucket:
            del self._buckets[self._min_freq]
        del self._data[victim]
        del self._freq[victim]
        self.stats.evictions += 1

    def _contains(self, key: K) -> bool:
        return key in self._data

    def _read(self, key: K) -> V:
        self._touch(key)
        return self._data[key]

    def _write(self, key: K, value: V) -> None:
        if key not in self._data and len(self._data) >= self.capacity:
            self._evict()
        self._data[key] = value
        self._touch(key)

    def _remove(self, key: K) -> None:
        freq = self._freq.pop(key)
        del self._data[key]
        bucket = self._buckets[freq]
        del bucket[key]
        if not bucket:
            del self._buckets[freq]

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()
        self._freq.clear()
        self._buckets.clear()
        self._min_freq = 0


class TwoQueueCache(Cache[K, V]):
    """2Q: a FIFO probation queue filters one-hit wonders from the LRU main."""

    def __init__(self, capacity: int, probation_fraction: float = 0.25) -> None:
        super().__init__(capacity)
        if not 0.0 < probation_fraction < 1.0:
            raise ConfigurationError("probation_fraction must be in (0, 1)")
        # Probation + main always sum to exactly ``capacity``; a 1-entry
        # cache degenerates to probation-only (no promotion possible).
        self._probation_cap = min(capacity,
                                  max(1, int(capacity * probation_fraction)))
        self._main_cap = capacity - self._probation_cap
        self._probation: "OrderedDict[K, V]" = OrderedDict()
        self._main: "OrderedDict[K, V]" = OrderedDict()

    def _contains(self, key: K) -> bool:
        return key in self._probation or key in self._main

    def _read(self, key: K) -> V:
        if key in self._main:
            self._main.move_to_end(key)
            return self._main[key]
        if self._main_cap == 0:
            return self._probation[key]  # degenerate: nowhere to promote
        # Second touch promotes probation -> main.
        value = self._probation.pop(key)
        self._admit_to_main(key, value)
        return value

    def _admit_to_main(self, key: K, value: V) -> None:
        if len(self._main) >= self._main_cap:
            self._main.popitem(last=False)
            self.stats.evictions += 1
        self._main[key] = value

    def _write(self, key: K, value: V) -> None:
        if key in self._main:
            self._main[key] = value
            self._main.move_to_end(key)
            return
        if key in self._probation:
            self._probation[key] = value
            return
        if len(self._probation) >= self._probation_cap:
            self._probation.popitem(last=False)
            self.stats.evictions += 1
        self._probation[key] = value

    def _remove(self, key: K) -> None:
        if key in self._probation:
            del self._probation[key]
        else:
            del self._main[key]

    def __len__(self) -> int:
        return len(self._probation) + len(self._main)

    def clear(self) -> None:
        self._probation.clear()
        self._main.clear()


class _CountMinSketch:
    """4-row count-min frequency sketch with periodic halving (aging).

    Hashes with seeded CRC-32 over ``repr(key)`` rather than built-in
    ``hash`` so estimates — and therefore TinyLFU admission decisions —
    are identical across processes regardless of PYTHONHASHSEED.

    :meth:`slots` hashes a key into its counter index in each row;
    :meth:`add` and :meth:`estimate` take those slots, so a caller that
    keeps them (TinyLFU keeps each resident key's) hashes a key once.
    The four rows are unrolled in all three.
    """

    DEPTH = 4
    _SEEDS = tuple(row * 0x9E3779B1 for row in range(DEPTH))

    def __init__(self, capacity: int, sample_factor: int = 10) -> None:
        width = 16
        while width < 4 * capacity:
            width *= 2
        self._mask = width - 1
        self._rows: List[List[int]] = [[0] * width for _ in range(self.DEPTH)]
        self._sample_size = max(1, sample_factor * capacity)
        self._additions = 0

    def slots(self, key: Hashable) -> Tuple[int, int, int, int]:
        data = repr(key).encode("utf-8", "backslashreplace")
        mask = self._mask
        s0, s1, s2, s3 = self._SEEDS
        return (crc32(data, s0) & mask, crc32(data, s1) & mask,
                crc32(data, s2) & mask, crc32(data, s3) & mask)

    def add(self, slots: Tuple[int, int, int, int]) -> None:
        r0, r1, r2, r3 = self._rows
        i0, i1, i2, i3 = slots
        r0[i0] += 1
        r1[i1] += 1
        r2[i2] += 1
        r3[i3] += 1
        self._additions += 1
        if self._additions >= self._sample_size:
            self._halve()

    def estimate(self, slots: Tuple[int, int, int, int]) -> int:
        r0, r1, r2, r3 = self._rows
        i0, i1, i2, i3 = slots
        return min(r0[i0], r1[i1], r2[i2], r3[i3])

    def _halve(self) -> None:
        for row in self._rows:
            for i, count in enumerate(row):
                row[i] = count >> 1
        self._additions >>= 1


class TinyLfuCache(Cache[K, V]):
    """LRU main guarded by a TinyLFU admission filter (W-TinyLFU design).

    Every access — hit, miss, or write — feeds a count-min sketch.  When
    the main is full, a new key is admitted only if its estimated
    frequency *exceeds* the LRU victim's, so one-hit wonders (scans,
    exports) bounce off instead of flushing the hot set.  Rejections are
    counted in ``stats.admission_rejections``.  The main stores each
    resident key's sketch slots beside its value, so hits and the
    victim's estimate hash nothing.  A hit or an update therefore counts
    under the stored key's ``repr``: keys that compare equal but print
    differently (``1`` and ``1.0``) share one count.
    """

    def __init__(self, capacity: int, sample_factor: int = 10) -> None:
        super().__init__(capacity)
        # key -> (value, the key's sketch slots), in LRU order
        self._main: "OrderedDict[K, Tuple[V, Tuple[int, int, int, int]]]" \
            = OrderedDict()
        self._sketch = _CountMinSketch(capacity, sample_factor)

    def _contains(self, key: K) -> bool:
        return key in self._main

    def _read(self, key: K) -> V:
        value, slots = self._main[key]
        self._sketch.add(slots)
        self._main.move_to_end(key)
        return value

    def _on_miss(self, key: K) -> None:
        # repeat misses earn eventual admission
        self._sketch.add(self._sketch.slots(key))

    def get_many(self, keys: Iterable[K]) -> Dict[K, V]:
        """Bulk probe in one loop, with ``lookup``'s per-key effects."""
        stats, main, sketch = self.stats, self._main, self._sketch
        stats.batch_gets += 1
        found: Dict[K, V] = {}
        for key in keys:
            entry = main.get(key)
            if entry is not None:
                stats.hits += 1
                sketch.add(entry[1])
                main.move_to_end(key)
                found[key] = entry[0]
            else:
                stats.misses += 1
                sketch.add(sketch.slots(key))
        return found

    def _write(self, key: K, value: V) -> None:
        main, sketch = self._main, self._sketch
        entry = main.get(key)
        if entry is not None:
            sketch.add(entry[1])
            main[key] = (value, entry[1])
            main.move_to_end(key)
            return
        slots = sketch.slots(key)
        sketch.add(slots)
        if len(main) >= self.capacity:
            victim, (_, victim_slots) = next(iter(main.items()))
            if sketch.estimate(slots) <= sketch.estimate(victim_slots):
                self.stats.admission_rejections += 1
                return
            del main[victim]
            self.stats.evictions += 1
        main[key] = (value, slots)

    def _remove(self, key: K) -> None:
        del self._main[key]

    def __len__(self) -> int:
        return len(self._main)

    def clear(self) -> None:
        self._main.clear()


class TtlCache(Cache[K, V]):
    """LRU bounded by capacity *and* a per-entry time-to-live.

    Expiry is the simplest cache-consistency mechanism Section III
    discusses; the consistency module builds the stronger protocols.
    """

    def __init__(self, capacity: int, ttl_s: float,
                 clock: Optional[SimClock] = None) -> None:
        super().__init__(capacity)
        if ttl_s <= 0:
            raise ConfigurationError("ttl must be positive")
        self.ttl_s = ttl_s
        self.clock = clock if clock is not None else SimClock()
        self._data: "OrderedDict[K, Tuple[V, float]]" = OrderedDict()

    def _expired(self, key: K) -> bool:
        _, stored_at = self._data[key]
        return self.clock.now - stored_at >= self.ttl_s

    def _contains(self, key: K) -> bool:
        if key not in self._data:
            return False
        if self._expired(key):
            del self._data[key]
            self.stats.expirations += 1
            return False
        return True

    def _read(self, key: K) -> V:
        self._data.move_to_end(key)
        return self._data[key][0]

    def _write(self, key: K, value: V) -> None:
        if key in self._data:
            self._data.move_to_end(key)
        elif len(self._data) >= self.capacity:
            self._data.popitem(last=False)
            self.stats.evictions += 1
        self._data[key] = (value, self.clock.now)

    def _remove(self, key: K) -> None:
        del self._data[key]

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()


def make_cache(policy: str, capacity: int, ttl_s: float = 60.0,
               clock: Optional[SimClock] = None) -> Cache:
    """Factory used by benchmarks: 'lru' | 'lfu' | '2q' | 'ttl' | 'tinylfu'."""
    if policy == "lru":
        return LruCache(capacity)
    if policy == "lfu":
        return LfuCache(capacity)
    if policy == "2q":
        return TwoQueueCache(capacity)
    if policy == "ttl":
        return TtlCache(capacity, ttl_s, clock)
    if policy == "tinylfu":
        return TinyLfuCache(capacity)
    raise ConfigurationError(f"unknown cache policy {policy!r}")
