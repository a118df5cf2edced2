"""Cache consistency protocols (Section III).

"If the data are changing frequently, cache consistency algorithms need to
be applied to keep multiple versions of the data consistent."  Three
protocols with different freshness/traffic trade-offs, measured in A1:

* **TTL (expiration)** — caches serve entries for a bounded lifetime; a
  write becomes visible at every cache within one TTL.  No origin state.
* **Invalidation** — the origin broadcasts an invalidate to subscribed
  caches on every write.  Strong freshness, write-side fan-out cost.
* **Version leases** — each cached value carries a version; caches
  revalidate with a cheap version check once their lease expires, and
  refetch only when the version moved.

:class:`ConsistencyHarness` replays a read/write workload under a chosen
protocol and reports stale reads and message counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generic, Hashable, List, Optional, Tuple, TypeVar

from ..core.errors import CacheConsistencyError, ConfigurationError
from ..cloudsim.clock import SimClock

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class VersionedStore(Generic[K, V]):
    """The origin: authoritative versioned values + invalidation fan-out."""

    def __init__(self) -> None:
        self._values: Dict[K, V] = {}
        self._versions: Dict[K, int] = {}
        self._subscribers: List["ConsistentCache"] = []
        self.reads = 0
        self.version_checks = 0
        self.invalidations_sent = 0

    def subscribe(self, cache: "ConsistentCache") -> None:
        self._subscribers.append(cache)

    def write(self, key: K, value: V) -> int:
        """Authoritative write; bumps version, fans out invalidations."""
        self._values[key] = value
        self._versions[key] = self._versions.get(key, 0) + 1
        for cache in self._subscribers:
            if cache.protocol == "invalidate":
                cache.receive_invalidation(key)
                self.invalidations_sent += 1
        return self._versions[key]

    def read(self, key: K) -> Tuple[V, int]:
        if key not in self._values:
            raise CacheConsistencyError(f"origin has no value for {key!r}")
        self.reads += 1
        return self._values[key], self._versions[key]

    def version_of(self, key: K) -> int:
        self.version_checks += 1
        return self._versions.get(key, 0)

    def current_version(self, key: K) -> int:
        """Version without charging a protocol message (for verification)."""
        return self._versions.get(key, 0)


@dataclass
class _Entry(Generic[V]):
    value: V
    version: int
    fetched_at: float
    lease_until: float


class ConsistentCache(Generic[K, V]):
    """A client/server cache speaking one of the three protocols."""

    PROTOCOLS = ("ttl", "invalidate", "lease")

    def __init__(self, name: str, origin: VersionedStore,
                 protocol: str, capacity: int = 1024,
                 ttl_s: float = 5.0, lease_s: float = 5.0,
                 clock: Optional[SimClock] = None) -> None:
        if protocol not in self.PROTOCOLS:
            raise ConfigurationError(f"unknown protocol {protocol!r}")
        self.name = name
        self.origin = origin
        self.protocol = protocol
        self.ttl_s = ttl_s
        self.lease_s = lease_s
        self.clock = clock if clock is not None else SimClock()
        self._entries: Dict[K, _Entry] = {}
        self._capacity = capacity
        self.stale_reads = 0
        self.fresh_reads = 0
        self.origin_fetches = 0
        origin.subscribe(self)

    # -- protocol events ----------------------------------------------------

    def receive_invalidation(self, key: K) -> None:
        self._entries.pop(key, None)

    # -- reads ---------------------------------------------------------------

    def get(self, key: K) -> V:
        """Protocol-governed read; tracks staleness against the origin."""
        entry = self._entries.get(key)
        if entry is not None and self._usable(key, entry):
            value = entry.value
            # Ground truth check (not part of the protocol): was it stale?
            if entry.version == self.origin.current_version(key):
                self.fresh_reads += 1
            else:
                self.stale_reads += 1
            return value
        value, version = self.origin.read(key)
        self.origin_fetches += 1
        self.fresh_reads += 1
        self._store(key, value, version)
        return value

    def _usable(self, key: K, entry: _Entry) -> bool:
        now = self.clock.now
        if self.protocol == "ttl":
            return now - entry.fetched_at < self.ttl_s
        if self.protocol == "invalidate":
            return True  # presence implies validity
        # lease: within the lease serve directly; past it, revalidate.
        if now < entry.lease_until:
            return True
        current = self.origin.version_of(key)
        if current == entry.version:
            entry.lease_until = now + self.lease_s
            return True
        del self._entries[key]
        return False

    def _store(self, key: K, value: V, version: int) -> None:
        if len(self._entries) >= self._capacity and key not in self._entries:
            oldest = min(self._entries, key=lambda k: self._entries[k].fetched_at)
            del self._entries[oldest]
        now = self.clock.now
        self._entries[key] = _Entry(value, version, now, now + self.lease_s)

    @property
    def total_reads(self) -> int:
        return self.fresh_reads + self.stale_reads

    @property
    def stale_ratio(self) -> float:
        return self.stale_reads / self.total_reads if self.total_reads else 0.0


@dataclass
class ConsistencyReport:
    """Workload replay outcome for one protocol."""

    protocol: str
    reads: int
    writes: int
    stale_reads: int
    origin_fetches: int
    version_checks: int
    invalidations_sent: int

    @property
    def stale_ratio(self) -> float:
        return self.stale_reads / self.reads if self.reads else 0.0

    @property
    def protocol_messages(self) -> int:
        """Messages beyond unavoidable data fetches."""
        return self.version_checks + self.invalidations_sent


class ConsistencyHarness:
    """Replays an interleaved read/write trace under one protocol."""

    def __init__(self, protocol: str, num_caches: int = 4,
                 ttl_s: float = 5.0, lease_s: float = 5.0) -> None:
        self.clock = SimClock()
        self.origin: VersionedStore = VersionedStore()
        self.caches = [
            ConsistentCache(f"cache-{i}", self.origin, protocol,
                            ttl_s=ttl_s, lease_s=lease_s, clock=self.clock)
            for i in range(num_caches)
        ]
        self.protocol = protocol
        self._reads = 0
        self._writes = 0

    def write(self, key: Any, value: Any) -> None:
        self._writes += 1
        self.origin.write(key, value)

    def read(self, cache_index: int, key: Any) -> Any:
        self._reads += 1
        return self.caches[cache_index].get(key)

    def advance(self, seconds: float) -> None:
        self.clock.advance(seconds)

    def report(self) -> ConsistencyReport:
        return ConsistencyReport(
            protocol=self.protocol,
            reads=self._reads,
            writes=self._writes,
            stale_reads=sum(c.stale_reads for c in self.caches),
            origin_fetches=sum(c.origin_fetches for c in self.caches),
            version_checks=self.origin.version_checks,
            invalidations_sent=self.origin.invalidations_sent,
        )
