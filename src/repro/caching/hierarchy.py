"""Multi-level cache hierarchy (Fig. 4, Section III).

"Caching ... takes place at multiple parts of the architecture, both at the
clients and servers."  A :class:`CacheHierarchy` chains levels — e.g.
client cache (50 µs), server cache (2 ms), origin knowledge base (80+ ms) —
each with a simulated access cost.  Lookups walk the levels nearest-first,
charge the clock for every level touched, and promote the value into every
missed level on the way back (inclusive caching).

The origin is any loader function; :class:`Origin` wraps one with an access
cost so the E3 experiment's "orders of magnitude" claim is measurable.

Three scale-out mechanisms serve the bulk read path (P4):

* **batched lookups** — :meth:`CacheHierarchy.get_many` walks the levels
  once per *batch* (one access-cost charge per level touched, not per
  key) and issues one bulk origin load for the residual misses;
* **single-flight coalescing** — an in-flight table records the
  simulated window ``[start, completes_at)`` of every origin fetch, so
  N concurrent misses on one hot key (requests whose ``start_at`` falls
  inside the window) share one fetch;
* **negative caching** — a :class:`NotFoundError` from the origin is
  remembered for ``negative_ttl_s``, so repeated lookups of absent keys
  stop hammering the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, Generic, Hashable, Iterable, List,
                    Optional, Sequence, Tuple, TypeVar)

from ..core.errors import ConfigurationError, NotFoundError
from ..cloudsim.clock import SimClock
from ..cloudsim.monitoring import MonitoringService
from ..cloudsim.tracing import maybe_span
from .policies import Cache, CacheStats

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


@dataclass
class CacheLevel(Generic[K, V]):
    """One level: a named cache plus the cost of consulting it."""

    name: str
    cache: Cache
    access_cost_s: float

    def __post_init__(self) -> None:
        if self.access_cost_s < 0:
            raise ConfigurationError(f"level {self.name}: negative cost")


@dataclass
class Origin(Generic[K, V]):
    """The authoritative source behind the hierarchy.

    ``loader`` serves single keys; ``batch_loader`` (optional) serves a
    key list in one call, returning a dict that simply omits unknown
    keys.  ``per_item_cost_s`` is the marginal cost of each key on top
    of ``access_cost_s``, so a batch of B costs one access plus B
    marginals instead of B full accesses.
    """

    name: str
    loader: Callable[[K], V]
    access_cost_s: float
    batch_loader: Optional[Callable[[Sequence[K]], Dict[K, V]]] = None
    per_item_cost_s: float = 0.0
    fetches: int = 0
    batch_loads: int = 0

    def load(self, key: K) -> V:
        self.fetches += 1
        return self.loader(key)

    def load_many(self, keys: Sequence[K]) -> Dict[K, V]:
        """One bulk load; keys the origin lacks are absent from the dict."""
        self.batch_loads += 1
        keys = list(keys)
        self.fetches += len(keys)
        if self.batch_loader is not None:
            return dict(self.batch_loader(keys))
        out: Dict[K, V] = {}
        for key in keys:
            try:
                out[key] = self.loader(key)
            except NotFoundError:
                pass
        return out


@dataclass(frozen=True)
class LookupResult(Generic[V]):
    """Outcome of one hierarchy lookup."""

    value: V
    served_by: str          # level name or origin name
    latency_s: float        # total simulated time charged
    levels_probed: int
    coalesced: bool = False


@dataclass(frozen=True)
class BatchLookupResult(Generic[K, V]):
    """Outcome of one :meth:`CacheHierarchy.get_many` call."""

    values: Dict[K, V]
    served_by: Dict[K, str]
    missing: Tuple[K, ...]     # keys the origin does not have
    latency_s: float
    levels_probed: int
    origin_keys: int           # residual misses shipped to the origin
    coalesced: int             # duplicate/in-flight keys that shared a fetch


@dataclass
class _Flight:
    """One origin fetch's simulated in-flight window."""

    completes_at: float
    value: Any
    served_by: str
    not_found: bool = False


class CacheHierarchy(Generic[K, V]):
    """Nearest-first chain of cache levels over an origin."""

    _INFLIGHT_PRUNE_SIZE = 1024

    def __init__(self, levels: List[CacheLevel], origin: Origin,
                 clock: Optional[SimClock] = None,
                 negative_ttl_s: float = 0.0,
                 monitoring: Optional[MonitoringService] = None) -> None:
        if not levels:
            raise ConfigurationError("hierarchy needs at least one level")
        if negative_ttl_s < 0:
            raise ConfigurationError("negative_ttl_s cannot be negative")
        self.levels = list(levels)
        self.origin = origin
        self.clock = clock if clock is not None else SimClock()
        self.negative_ttl_s = negative_ttl_s
        self.monitoring = monitoring
        self._inflight: Dict[K, _Flight] = {}
        self._negative: Dict[K, float] = {}     # key -> expiry time
        # Hierarchy-level accounting: get_many and coalesced requests do
        # not run one per-key probe per level, so level-0 stats under-count
        # and the overall ratio must be derived from these instead.
        self.requests = 0
        self.origin_loads = 0
        self.coalesced = 0
        self.negative_hits = 0
        self.batched_lookups = 0

    # -- single-key path -----------------------------------------------------

    def get(self, key: K, start_at: Optional[float] = None) -> LookupResult:
        """Fetch through the hierarchy, charging simulated time.

        ``start_at`` models a request that began earlier than ``clock.now``
        (a concurrent client): if it falls inside another fetch's in-flight
        window the request coalesces onto that fetch instead of walking
        the hierarchy itself.
        """
        start = self.clock.now if start_at is None else start_at
        if start > self.clock.now:
            self.clock.advance_to(start)
        self.requests += 1

        with maybe_span(self.clock.tracer, "cache.get", "cache",
                        key=str(key)) as span:
            joined = self._join_flight(key, start)
            if joined is not None:
                span.set_attribute("served_by", joined.served_by)
                span.set_attribute("coalesced", True)
                return joined

            if self._negatively_cached(key, start):
                self.clock.advance(self.levels[0].access_cost_s)
                span.set_attribute("served_by", "negative-cache")
                raise NotFoundError(
                    f"{key!r}: negatively cached by {self.origin.name}")

            probed = 0
            for depth, level in enumerate(self.levels):
                probed += 1
                self.clock.advance(level.access_cost_s)
                hit, value = level.cache.lookup(key)
                if hit:
                    self._fill({key: value}, upto=depth)
                    span.set_attribute("served_by", level.name)
                    span.set_attribute("hit_level", depth)
                    span.set_attribute("levels_probed", probed)
                    return LookupResult(value, level.name,
                                        self.clock.now - start, probed)

            span.set_attribute("served_by", self.origin.name)
            span.set_attribute("levels_probed", probed)
            with maybe_span(self.clock.tracer, "cache.origin_fetch", "cache",
                            origin=self.origin.name, keys=1):
                self.clock.advance(self.origin.access_cost_s
                                   + self.origin.per_item_cost_s)
                self.origin_loads += 1
                self._publish("origin_fetch", origin=self.origin.name,
                              keys=1)
                try:
                    value = self.origin.load(key)
                except NotFoundError:
                    self._record_not_found(key)
                    raise
            self._record_flight(key, _Flight(self.clock.now, value,
                                             self.origin.name))
            self._fill({key: value}, upto=len(self.levels))
            return LookupResult(value, self.origin.name,
                                self.clock.now - start, probed)

    # -- batched path --------------------------------------------------------

    def get_many(self, keys: Iterable[K],
                 start_at: Optional[float] = None) -> BatchLookupResult:
        """One hierarchy walk for a whole batch.

        Each level touched is charged once (not once per key); residual
        misses go to the origin as a single bulk load (one access cost
        plus per-item marginals).  Duplicate keys in the batch and keys
        inside another fetch's in-flight window coalesce.
        """
        start = self.clock.now if start_at is None else start_at
        if start > self.clock.now:
            self.clock.advance_to(start)
        all_keys = list(keys)
        self.batched_lookups += 1
        self.requests += len(all_keys)
        with maybe_span(self.clock.tracer, "cache.get_many", "cache",
                        keys=len(all_keys)) as span:
            result = self._get_many(all_keys, start)
            span.set_attribute("origin_keys", result.origin_keys)
            span.set_attribute("coalesced", result.coalesced)
            span.set_attribute("levels_probed", result.levels_probed)
            span.set_attribute("missing", len(result.missing))
            return result

    def _get_many(self, all_keys: List[K], start: float
                  ) -> BatchLookupResult:

        unique: List[K] = []
        seen = set()
        for key in all_keys:
            if key in seen:
                self.coalesced += 1
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
                self._fill(hits, upto=depth)
                remaining = [k for k in remaining if k not in hits]

        origin_keys = len(remaining)
        if remaining:
            with maybe_span(self.clock.tracer, "cache.origin_fetch", "cache",
                            origin=self.origin.name, keys=len(remaining)):
                self.clock.advance(
                    self.origin.access_cost_s
                    + self.origin.per_item_cost_s * len(remaining))
                self.origin_loads += len(remaining)
                self._publish("origin_fetch", origin=self.origin.name,
                              keys=len(remaining))
                loaded = self.origin.load_many(remaining)
            completes = self.clock.now
            found: Dict[K, V] = {}
            for key in remaining:
                served[key] = self.origin.name
                if key in loaded:
                    value = loaded[key]
                    values[key] = found[key] = value
                    self._record_flight(key, _Flight(completes, value,
                                                     self.origin.name))
                else:
                    missing.append(key)
                    self._record_not_found(key)
            self._fill(found, upto=len(self.levels))

        return BatchLookupResult(
            values=values, served_by=served, missing=tuple(missing),
            latency_s=self.clock.now - start, levels_probed=levels_probed,
            origin_keys=origin_keys, coalesced=coalesced)

    # -- writes --------------------------------------------------------------

    def put(self, key: K, value: V) -> None:
        """Write-through: install in every level."""
        self._negative.pop(key, None)
        for level in self.levels:
            level.cache.put(key, value)

    def put_many(self, pairs: Dict[K, V]) -> None:
        """Bulk write-through (one batched put per level)."""
        for key in pairs:
            self._negative.pop(key, None)
        for level in self.levels:
            level.cache.put_many(pairs)

    def invalidate(self, key: K) -> int:
        """Drop the key everywhere; returns how many levels held it."""
        self._negative.pop(key, None)
        self._inflight.pop(key, None)
        return sum(1 for level in self.levels if level.cache.invalidate(key))

    def _fill(self, pairs: Dict[K, V], upto: int) -> None:
        """Install ``pairs`` in the first ``upto`` levels: one loop per
        level, keys in ``pairs``' order."""
        for level in self.levels[:upto]:
            put = level.cache.put
            for key, value in pairs.items():
                put(key, value)

    # -- single-flight / negative internals ---------------------------------

    def _join_flight(self, key: K, start: float) -> Optional[LookupResult]:
        flight = self._inflight.get(key)
        if flight is None:
            return None
        if start >= flight.completes_at:      # window over: prune lazily
            del self._inflight[key]
            return None
        self.coalesced += 1
        self.clock.advance_to(flight.completes_at)
        if flight.not_found:
            raise NotFoundError(
                f"{key!r}: coalesced onto a fetch that found nothing")
        return LookupResult(flight.value, f"inflight:{flight.served_by}",
                            flight.completes_at - start, 0, coalesced=True)

    def _negatively_cached(self, key: K, start: float) -> bool:
        expiry = self._negative.get(key)
        if expiry is None:
            return False
        if start < expiry:
            self.negative_hits += 1
            return True
        del self._negative[key]
        return False

    def _record_not_found(self, key: K) -> None:
        if self.negative_ttl_s > 0:
            self._negative[key] = self.clock.now + self.negative_ttl_s
            self._record_flight(key, _Flight(self.clock.now, None,
                                             self.origin.name,
                                             not_found=True))

    def _record_flight(self, key: K, flight: _Flight) -> None:
        if len(self._inflight) >= self._INFLIGHT_PRUNE_SIZE:
            now = self.clock.now
            self._inflight = {k: f for k, f in self._inflight.items()
                              if f.completes_at > now}
        self._inflight[key] = flight

    def _publish(self, kind: str, **attributes: Any) -> None:
        if self.monitoring is not None:
            self.monitoring.publish("cache", f"cache.{kind}", **attributes)

    # -- reporting -----------------------------------------------------------

    def stats_by_level(self) -> List[Tuple[str, CacheStats]]:
        return [(level.name, level.cache.stats) for level in self.levels]

    def overall_hit_ratio(self) -> float:
        """Fraction of key-requests answered without their own origin fetch.

        Counts batched (``get_many``) and coalesced requests, which never
        run one per-key probe per level — deriving this from level-0
        stats would under-count them.
        """
        if self.requests == 0:
            return 0.0
        return 1.0 - self.origin_loads / self.requests

    def publish_metrics(self, monitoring: Optional[MonitoringService] = None
                        ) -> None:
        """Register per-level and hierarchy gauges with a monitoring
        service; each reads this hierarchy's counts when asked."""
        target = monitoring if monitoring is not None else self.monitoring
        if target is None:
            raise ConfigurationError("no monitoring service to publish to")
        register = target.metrics.register_gauge
        for name, stats in self.stats_by_level():
            for field in ("hits", "misses", "evictions",
                          "admission_rejections"):
                register(f"cache.{name}.{field}",
                         lambda stats=stats, field=field:
                         float(getattr(stats, field)))
        for field in ("requests", "coalesced", "negative_hits",
                      "origin_loads", "batched_lookups"):
            register(f"cache.hierarchy.{field}",
                     lambda field=field: float(getattr(self, field)))
        register("cache.hierarchy.hit_ratio", self.overall_hit_ratio)
