"""Remote access to knowledge bases (Section III).

"We cache data from these knowledge bases locally.  That way, data can be
accessed and analyzed more quickly than if it needs to be fetched
remotely.  For the most up-to-date data, the remote knowledge bases can be
directly queried."

:class:`RemoteKnowledgeBase` wraps any KB object, charging simulated WAN
latency for every method call; calling it is the paper's direct query.
The local cache is a :class:`~repro.caching.hierarchy.CacheHierarchy`
over an :class:`~repro.caching.hierarchy.Origin` whose loaders call
:meth:`RemoteKnowledgeBase.call` and :meth:`RemoteKnowledgeBase.call_batch`:
it ships residual misses as one batch, and ``invalidate`` followed by
``get`` refreshes a key from the remote.
"""

from __future__ import annotations

from typing import Any, Hashable, Optional, Sequence, Tuple

from ..cloudsim.clock import SimClock, WAN_ROUND_TRIP
from ..cloudsim.tracing import maybe_span
from ..core.errors import ServiceUnavailableError


class RemoteKnowledgeBase:
    """Proxy that charges network latency for each KB method call.

    Chaos-aware: an attached :class:`~repro.cloudsim.faults.FaultPlan`
    can drop or slow the WAN link the proxy models (``link`` names its
    two endpoints), and an optional
    :class:`~repro.core.resilience.ResilientExecutor` absorbs those
    failures with retries/backoff under a ``kb.<name>`` circuit breaker.
    """

    def __init__(self, base: Any, clock: Optional[SimClock] = None,
                 round_trip_s: float = WAN_ROUND_TRIP,
                 link: Tuple[str, str] = ("cloud-a", "external-kb"),
                 resilience: Optional[Any] = None,
                 per_item_cost_s: float = 2e-4) -> None:
        self._base = base
        self.clock = clock if clock is not None else SimClock()
        self.round_trip_s = round_trip_s
        self.per_item_cost_s = per_item_cost_s
        self.remote_calls = 0
        self.failed_calls = 0
        self.batched_items = 0
        self.name = getattr(base, "name", type(base).__name__)
        self.link = link
        self.fault_plan = None
        self.resilience = resilience
        self.tracer = None   # optional request-path tracing hook

    def call(self, method: str, *args: Hashable) -> Any:
        """Invoke a KB method remotely (clock advances by one round trip)."""
        if self.resilience is not None:
            return self.resilience.call(
                f"kb.{self.name}", lambda: self._call_once(method, *args))
        return self._call_once(method, *args)

    def call_batch(self, method: str, items: Sequence[Hashable]) -> Any:
        """Invoke a *bulk* KB method (``fingerprints``, ``targets_many``...)
        as one request: one round trip plus a per-item marginal cost,
        instead of N full round trips.

        The batch is atomic under faults: a dropped link fails the whole
        request, and an attached resilience executor retries it as a
        whole (counters are only advanced on success, so a retried batch
        is never double-counted).
        """
        items = list(items)
        if self.resilience is not None:
            return self.resilience.call(
                f"kb.{self.name}", lambda: self._call_batch_once(method, items))
        return self._call_batch_once(method, items)

    def _call_once(self, method: str, *args: Hashable) -> Any:
        with maybe_span(self.tracer, "kb.call", "knowledge",
                        kb=self.name, method=method) as span:
            round_trip = self.round_trip_s
            if self.fault_plan is not None:
                round_trip *= self.fault_plan.latency_multiplier(*self.link)
                if self.fault_plan.link_dropped(*self.link):
                    self.clock.advance(round_trip)  # the timed-out trip
                    self.failed_calls += 1
                    span.set_attribute("dropped", True)
                    raise ServiceUnavailableError(
                        f"remote KB {self.name}: "
                        f"{self.link[0]}<->{self.link[1]} "
                        "dropped the request")
            self.clock.advance(round_trip)
            self.remote_calls += 1
            return getattr(self._base, method)(*args)

    def _call_batch_once(self, method: str, items: Sequence[Hashable]) -> Any:
        with maybe_span(self.tracer, "kb.call_batch", "knowledge",
                        kb=self.name, method=method,
                        items=len(items)) as span:
            round_trip = self.round_trip_s + self.per_item_cost_s * len(items)
            if self.fault_plan is not None:
                round_trip *= self.fault_plan.latency_multiplier(*self.link)
                if self.fault_plan.link_dropped(*self.link):
                    self.clock.advance(round_trip)  # the timed-out trip
                    self.failed_calls += 1
                    span.set_attribute("dropped", True)
                    raise ServiceUnavailableError(
                        f"remote KB {self.name}: "
                        f"{self.link[0]}<->{self.link[1]} "
                        f"dropped a {len(items)}-item batch")
            self.clock.advance(round_trip)
            result = getattr(self._base, method)(list(items))
            self.remote_calls += 1
            self.batched_items += len(items)
            return result
