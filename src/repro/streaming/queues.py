"""Bounded per-shard stream queues with pluggable load shedding.

The open-loop feed does not wait for the platform; when arrivals outrun
the commit path something has to give, and it must give *explicitly*.
Every offered event is therefore accounted for: it is either admitted,
or shed with a recorded reason — the pipeline's ledger invariant
(arrivals == admitted + shed) is what "no silent drops" means.

Three policies cover the classic trade-offs:

* :class:`DropOldestPolicy` — freshest-wins; evict the head.  Right for
  census-style telemetry where only the latest value matters.
* :class:`PriorityShedPolicy` — evict the lowest-(priority, age) victim,
  but only for a strictly higher-priority arrival; otherwise shed the
  arrival itself.  Labs survive census pings.
* :class:`AdaptiveShedPolicy` — probabilistic early shedding between an
  occupancy low/high watermark (seeded, deterministic), protecting
  high-priority classes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .feed import StreamEvent

# AdaptiveShedPolicy's ramp: no shedding at or below the low occupancy
# watermark, every sheddable arrival shed at or above the high one.
SHED_LOW_WATERMARK = 0.5
SHED_HIGH_WATERMARK = 0.9
# Events at or above this priority are never shed adaptively.
PROTECT_PRIORITY = 3


@dataclass(frozen=True)
class OfferResult:
    """Outcome of offering one event to a bounded queue."""

    admitted: bool
    shed_event: Optional[StreamEvent] = None   # victim (may be the offer)
    reason: str = ""                           # "", "queue-full", "priority",
                                               # "adaptive"


class SheddingPolicy:
    """Decides what to do when a queue must lose an event."""

    name = "abstract"

    def on_offer(self, queue: "StreamQueue",
                 event: StreamEvent) -> OfferResult:
        raise NotImplementedError


class DropOldestPolicy(SheddingPolicy):
    """Freshest-wins: evict the head to admit the new arrival."""

    name = "drop-oldest"

    def on_offer(self, queue: "StreamQueue",
                 event: StreamEvent) -> OfferResult:
        victim = queue._pop_head()
        queue._append(event)
        return OfferResult(admitted=True, shed_event=victim,
                           reason="queue-full")


class PriorityShedPolicy(SheddingPolicy):
    """Evict the lowest-priority (oldest among ties) entry, but only if
    the incoming event strictly outranks it; otherwise shed the arrival.
    """

    name = "priority"

    def on_offer(self, queue: "StreamQueue",
                 event: StreamEvent) -> OfferResult:
        victim_at = min(range(len(queue._entries)),
                        key=lambda i: (queue._entries[i][1].priority,
                                       queue._entries[i][0]))
        victim = queue._entries[victim_at][1]
        if event.priority > victim.priority:
            queue._pop_at(victim_at)
            queue._append(event)
            return OfferResult(admitted=True, shed_event=victim,
                               reason="priority")
        return OfferResult(admitted=False, shed_event=event,
                           reason="priority")


class AdaptiveShedPolicy(SheddingPolicy):
    """Probabilistic early shedding between occupancy watermarks.

    At or below :data:`SHED_LOW_WATERMARK` occupancy nothing is shed; at
    or above :data:`SHED_HIGH_WATERMARK` every sheddable arrival is
    refused; in between the shed probability ramps linearly.  Events with
    priority >= :data:`PROTECT_PRIORITY` are never shed adaptively — at a
    full queue they fall back to drop-oldest so they still land.
    """

    name = "adaptive"

    def __init__(self, *, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._fallback = DropOldestPolicy()

    @staticmethod
    def shed_probability(occupancy: float) -> float:
        if occupancy <= SHED_LOW_WATERMARK:
            return 0.0
        if occupancy >= SHED_HIGH_WATERMARK:
            return 1.0
        return ((occupancy - SHED_LOW_WATERMARK)
                / (SHED_HIGH_WATERMARK - SHED_LOW_WATERMARK))

    def on_offer(self, queue: "StreamQueue",
                 event: StreamEvent) -> OfferResult:
        if event.priority >= PROTECT_PRIORITY:
            if queue.depth >= queue.capacity:
                return self._fallback.on_offer(queue, event)
            queue._append(event)
            return OfferResult(admitted=True)
        probability = self.shed_probability(queue.depth / queue.capacity)
        if probability > 0.0 and self._rng.random() < probability:
            return OfferResult(admitted=False, shed_event=event,
                               reason="adaptive")
        if queue.depth >= queue.capacity:
            return OfferResult(admitted=False, shed_event=event,
                               reason="queue-full")
        queue._append(event)
        return OfferResult(admitted=True)


class StreamQueue:
    """One bounded FIFO in front of a blockchain shard.

    Entries are (sequence, event) so policies can break priority ties by
    age deterministically.  All shed/admit accounting lives here; the
    pipeline aggregates it across shards.  Because an evicted victim was
    itself previously admitted, the exact ledger invariant is

        ``offered == popped + shed + depth``

    — every offered event is, at any instant, exactly one of: handed to
    the processor, explicitly shed, or still queued.
    """

    def __init__(self, name: str, capacity: int,
                 policy: Optional[SheddingPolicy] = None) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self.policy = policy if policy is not None else DropOldestPolicy()
        self._entries: List[Tuple[int, StreamEvent]] = []
        self._sequence = 0
        self.offered = 0
        self.admitted = 0
        self.popped = 0
        self.shed = 0
        self.shed_by_reason: Dict[str, int] = {}
        self.shed_by_class: Dict[str, int] = {}
        self.peak_depth = 0

    # -- policy-facing internals ----------------------------------------------

    def _append(self, event: StreamEvent) -> None:
        self._entries.append((self._sequence, event))
        self._sequence += 1
        self.peak_depth = max(self.peak_depth, len(self._entries))

    def _pop_head(self) -> StreamEvent:
        return self._entries.pop(0)[1]

    def _pop_at(self, index: int) -> StreamEvent:
        return self._entries.pop(index)[1]

    # -- public surface --------------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self._entries)

    @property
    def head(self) -> Optional[StreamEvent]:
        return self._entries[0][1] if self._entries else None

    def offer(self, event: StreamEvent) -> OfferResult:
        """Offer an arrival; returns the explicit admit/shed outcome."""
        self.offered += 1
        if self.depth < self.capacity and not isinstance(
                self.policy, AdaptiveShedPolicy):
            self._append(event)
            result = OfferResult(admitted=True)
        else:
            result = self.policy.on_offer(self, event)
        if result.admitted:
            self.admitted += 1
        if result.shed_event is not None:
            self.shed += 1
            shed = result.shed_event
            self.shed_by_reason[result.reason] = (
                self.shed_by_reason.get(result.reason, 0) + 1)
            self.shed_by_class[shed.event_class] = (
                self.shed_by_class.get(shed.event_class, 0) + 1)
        return result

    def pop(self) -> StreamEvent:
        """Dequeue the head for processing."""
        if not self._entries:
            raise IndexError(f"queue {self.name} is empty")
        self.popped += 1
        return self._pop_head()

    def describe(self) -> Dict:
        return {
            "name": self.name,
            "capacity": self.capacity,
            "policy": self.policy.name,
            "depth": self.depth,
            "peak_depth": self.peak_depth,
            "offered": self.offered,
            "admitted": self.admitted,
            "popped": self.popped,
            "shed": self.shed,
            "shed_by_reason": dict(sorted(self.shed_by_reason.items())),
            "shed_by_class": dict(sorted(self.shed_by_class.items())),
        }
