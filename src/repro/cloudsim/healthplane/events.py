"""The platform event stream: seeded, ordered pub/sub with bounded fans.

Every layer of the platform emits structured lifecycle events — the
gateway per request, the resilience layer per breaker transition, the
cache hierarchy per origin fetch, the sharded blockchain per shard
commit, the ingestion frontend per sealed batch and flush, the compute
scheduler per job, task and worker change.  An
:class:`EventBus` gives them one ordered stream (the Ray-dashboard
idiom: one place a dashboard, an autoscaler, or the compute
orchestrator subscribes to), with the properties a simulation needs:

* **total order** — one global sequence number, assigned at publish, so
  any two subscribers that saw the same events saw them in the same
  order;
* **determinism** — event ids are a pure function of ``(seed, seq,
  source, kind)``; two runs of the same workload produce byte-identical
  streams;
* **bounded subscribers** — each :class:`Subscription` holds at most
  ``maxlen`` undelivered events; overflow drops the *oldest* (a slow
  dashboard loses history, never freshness) and every drop is counted
  on the subscription and mirrored to the metrics registry, so
  backpressure is visible instead of silent.

The bus never advances the simulated clock and never logs (it only
bumps counters), so publishing from inside the logging path cannot
recurse.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from ...core.errors import ConfigurationError
from ..clock import SimClock
from ..monitoring import MonitoringService

# Recent events kept for snapshot introspection (EventBus.recent).
HISTORY = 1024


@dataclass(frozen=True)
class PlatformEvent:
    """One structured lifecycle event on the platform stream."""

    seq: int
    event_id: str
    timestamp_s: float
    source: str                      # emitting layer: gateway, cache, ...
    kind: str                        # dotted type: "api.request", ...
    attributes: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "event_id": self.event_id,
            "timestamp_s": self.timestamp_s,
            "source": self.source,
            "kind": self.kind,
            "attributes": dict(self.attributes),
        }


class Subscription:
    """One subscriber's bounded, in-order view of the stream."""

    def __init__(self, name: str, maxlen: int,
                 kinds: Optional[Sequence[str]] = None) -> None:
        if maxlen < 1:
            raise ConfigurationError(
                f"subscription {name!r}: maxlen must be >= 1")
        self.name = name
        self.maxlen = maxlen
        # Kind *prefixes* this subscriber wants; None means everything.
        self.kinds: Optional[Tuple[str, ...]] = (
            tuple(kinds) if kinds is not None else None)
        self.delivered = 0
        self.dropped = 0
        self._queue: Deque[PlatformEvent] = deque()

    def wants(self, event: PlatformEvent) -> bool:
        if self.kinds is None:
            return True
        return any(event.kind == k or event.kind.startswith(k + ".")
                   for k in self.kinds)

    def _offer(self, event: PlatformEvent) -> bool:
        """Enqueue; on overflow drop the oldest.  Returns False on drop."""
        dropped = False
        if len(self._queue) >= self.maxlen:
            self._queue.popleft()
            self.dropped += 1
            dropped = True
        self._queue.append(event)
        self.delivered += 1
        return not dropped

    @property
    def backlog(self) -> int:
        return len(self._queue)

    def poll(self, max_events: Optional[int] = None) -> List[PlatformEvent]:
        """Drain up to ``max_events`` (default: all) in publish order."""
        budget = len(self._queue) if max_events is None else max_events
        out: List[PlatformEvent] = []
        while self._queue and len(out) < budget:
            out.append(self._queue.popleft())
        return out


class EventBus:
    """Seeded, totally ordered pub/sub for platform lifecycle events."""

    def __init__(self, clock: Optional[SimClock] = None, seed: int = 0,
                 monitoring: Optional[MonitoringService] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.seed = seed
        self.monitoring = monitoring
        self.published = 0
        self.dropped = 0
        self.by_source: Dict[str, int] = {}
        self._subscriptions: Dict[str, Subscription] = {}
        self._history: Deque[PlatformEvent] = deque(maxlen=HISTORY)

    def subscribe(self, name: str, maxlen: int = 256,
                  kinds: Optional[Sequence[str]] = None) -> Subscription:
        """Register a named subscriber with a bounded queue.

        ``kinds`` filters by kind prefix (``"api"`` matches
        ``"api.request"``); omit it to receive the whole stream.
        """
        if name in self._subscriptions:
            raise ConfigurationError(f"subscriber {name!r} already exists")
        subscription = Subscription(name, maxlen, kinds)
        self._subscriptions[name] = subscription
        return subscription

    def subscription(self, name: str) -> Subscription:
        try:
            return self._subscriptions[name]
        except KeyError:
            raise ConfigurationError(f"no subscriber {name!r}") from None

    def _event_id(self, seq: int, source: str, kind: str) -> str:
        digest = hashlib.sha256(
            f"{self.seed}:{seq}:{source}:{kind}".encode()).hexdigest()
        return f"ev-{digest[:16]}"

    def publish(self, source: str, kind: str,
                **attributes: Any) -> PlatformEvent:
        """Append one event to the stream and fan it out."""
        self.published += 1
        seq = self.published
        event = PlatformEvent(
            seq=seq,
            event_id=self._event_id(seq, source, kind),
            timestamp_s=self.clock.now,
            source=source,
            kind=kind,
            attributes=dict(attributes),
        )
        self.by_source[source] = self.by_source.get(source, 0) + 1
        self._history.append(event)
        for subscription in self._subscriptions.values():
            if not subscription.wants(event):
                continue
            if subscription._offer(event):
                # Mirror clean deliveries too, so every subscriber has a
                # good/bad counter pair the healthplane can turn into a
                # drop-rate SLO (see HealthPlane.register_subscriber_slo).
                if self.monitoring is not None:
                    self.monitoring.metrics.incr(
                        f"healthplane.events.delivered.{subscription.name}")
            else:
                self.dropped += 1
                if self.monitoring is not None:
                    self.monitoring.metrics.incr(
                        f"healthplane.events.dropped.{subscription.name}")
        if self.monitoring is not None:
            self.monitoring.metrics.incr("healthplane.events.published")
        return event

    def recent(self, limit: Optional[int] = None) -> List[PlatformEvent]:
        """The newest events in the history ring, oldest-first."""
        events = list(self._history)
        return events if limit is None else events[-limit:]

    def describe(self) -> Dict[str, Any]:
        """Serializable accounting for health snapshots."""
        return {
            "published": self.published,
            "dropped": self.dropped,
            "by_source": dict(sorted(self.by_source.items())),
            "subscribers": {
                name: {"backlog": sub.backlog, "delivered": sub.delivered,
                       "dropped": sub.dropped, "maxlen": sub.maxlen}
                for name, sub in sorted(self._subscriptions.items())
            },
        }
