"""The streaming hot path: arrival → queue → shed/admit → commit →
incremental-update → push.

One serial stream worker on the shared SimClock, driven open-loop: the
feed dictates arrival timestamps, the worker serves queued events
between arrivals, and when arrivals outrun service the bounded per-shard
queues shed — explicitly, with every event accounted for.  The ledger
invariant is

    ``arrivals == processed + shed + still-queued``

so nothing is ever dropped silently.

Every processed event is traced as one span tree (root
``streaming.process`` with admit/commit/update/push children, so the
critical-path attribution sums to exactly 100%), metered under
``streaming.*`` (``streaming.queue_depth`` is a gauge that reads
:attr:`StreamingPipeline.depth` when asked, and the shed counters become
healthplane series the moment a plane is attached, via
``bind_series``), and chaos-hardened:
the commit stage consults an optional
:class:`~repro.cloudsim.faults.FaultPlan` on the worker→orderer link and
retries through a ``ResilientExecutor``, falling back to the frontend's
keep-sealed-batches behaviour when a whole flush window fails.

Push latency (arrival to subscriber publish) is the user-facing SLI; it
feeds a good/bad counter pair and an exemplar-linked histogram, and
:meth:`StreamingPipeline.register_push_slo` turns it into a paging SLO.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Callable, Dict, List, Optional

from ..cloudsim.clock import SimClock
from ..cloudsim.monitoring import MonitoringService
from ..cloudsim.tracing import maybe_span
from ..core.errors import HealthCloudError, ServiceUnavailableError
from ..core.resilience import ResiliencePolicy, ResilientExecutor
from ..ingestion.pipeline import ShardedIngestionFrontend
from .feed import StreamEvent
from .incremental import StreamingAnalytics
from .queues import DropOldestPolicy, SheddingPolicy, StreamQueue
from .subscriptions import SubscriptionRegistry

# Simulated service costs for the fixed-price stages.  The update stage
# is priced by the analytics layer (pair evaluations actually spent).
ADMIT_COST_S = 0.2e-3      # dequeue + dedupe + consent/stub checks
PUSH_COST_S = 0.3e-3       # match + serialize + publish

# The commit window: a flush after this many processed events, with 4
# attempts 2, 4 and 6 ms apart and no per-attempt timeout (a flush that
# commits a backlog may outlast the default 1 s).  The default breaker
# opens after 5 consecutive failures, so it never cuts one flush short.
FLUSH_EVERY_EVENTS = 32
COMMIT_POLICY = ResiliencePolicy(max_attempts=4, base_backoff_s=2e-3,
                                 max_backoff_s=6e-3, jitter=0.0,
                                 timeout_s=math.inf)

PUSH_GOOD_SERIES = "streaming.push.good"
PUSH_BAD_SERIES = "streaming.push.bad"


class StreamingPipeline:
    """Bounded queues + incremental analytics in front of the ledger."""

    def __init__(self, *, frontend: ShardedIngestionFrontend,
                 analytics: StreamingAnalytics,
                 registry: Optional[SubscriptionRegistry] = None,
                 clock: Optional[SimClock] = None,
                 monitoring: Optional[MonitoringService] = None,
                 queue_capacity: int = 64,
                 policy_factory: Optional[
                     Callable[[str], SheddingPolicy]] = None,
                 scheduler=None,
                 push_slo_threshold_s: float = 0.25) -> None:
        self.frontend = frontend
        self.analytics = analytics
        self.registry = registry
        self.clock = clock if clock is not None else frontend.network.clock
        self.monitoring = (monitoring if monitoring is not None
                           else frontend.monitoring)
        self.queue_capacity = queue_capacity
        self.policy_factory = (policy_factory if policy_factory is not None
                               else (lambda name: DropOldestPolicy()))
        self.scheduler = scheduler
        self.push_slo_threshold_s = push_slo_threshold_s
        self._commits = ResilientExecutor(COMMIT_POLICY, self.clock,
                                          self.monitoring)
        # Chaos hook, attached post-construction.
        self.fault_plan = None
        self._queues: Dict[int, StreamQueue] = {}
        self.arrivals = 0
        self.processed = 0
        self.commit_retries_used = 0
        self.failed_flushes = 0
        self.flushes = 0
        self.refresh_jobs: List[str] = []
        self._since_flush = 0
        self.last_trace_id: Optional[str] = None
        self.monitoring.metrics.register_gauge("streaming.queue_depth",
                                               lambda: self.depth)

    # -- queue plumbing --------------------------------------------------------

    def _queue_for(self, event: StreamEvent) -> StreamQueue:
        shard = self.frontend.network.router.shard_for(event.patient_id)
        queue = self._queues.get(shard)
        if queue is None:
            name = f"stream-{self.frontend.network.shard_name(shard)}"
            queue = StreamQueue(name, self.queue_capacity,
                                self.policy_factory(name))
            self._queues[shard] = queue
        return queue

    @property
    def queues(self) -> List[StreamQueue]:
        return [self._queues[s] for s in sorted(self._queues)]

    @property
    def depth(self) -> int:
        return sum(q.depth for q in self._queues.values())

    @property
    def shed(self) -> int:
        return sum(q.shed for q in self._queues.values())

    # -- the open-loop driver --------------------------------------------------

    def submit(self, event: StreamEvent) -> bool:
        """Offer one arrival to its shard queue; True when admitted."""
        self.arrivals += 1
        self.monitoring.metrics.incr("streaming.arrivals")
        result = self._queue_for(event).offer(event)
        if result.shed_event is not None:
            self.monitoring.metrics.incr("streaming.shed")
            self.monitoring.metrics.incr(
                f"streaming.shed.{result.reason}")
            self.monitoring.metrics.incr(
                f"streaming.shed.class.{result.shed_event.event_class}")
        if result.admitted:
            self.monitoring.metrics.incr("streaming.admitted")
        return result.admitted

    def run(self, events) -> None:
        """Replay an arrival sequence open-loop to completion.

        Between consecutive arrivals the worker serves queued events;
        at each arrival the clock catches up to the arrival timestamp
        (arrivals never wait for the worker — that is what makes the
        queues, and therefore the shedding, real).
        """
        for event in events:
            self.drain_until(event.arrival_s)
            if self.clock.now < event.arrival_s:
                self.clock.advance_to(event.arrival_s)
            self.submit(event)
        self.drain_until(None)
        self.flush(force=True)

    def drain_until(self, limit_s: Optional[float],
                    max_events: Optional[int] = None) -> int:
        """Serve queued events while simulated time remains; returns count."""
        served = 0
        while self._queues and (max_events is None or served < max_events):
            if limit_s is not None and self.clock.now >= limit_s:
                break
            queue = self._next_queue()
            if queue is None:
                break
            self._process(queue.pop())
            served += 1
        return served

    def _next_queue(self) -> Optional[StreamQueue]:
        """The non-empty queue whose head arrived first (FIFO overall)."""
        best: Optional[StreamQueue] = None
        best_key = None
        for shard in sorted(self._queues):
            queue = self._queues[shard]
            head = queue.head
            if head is None:
                continue
            key = (head.arrival_s, head.event_id)
            if best_key is None or key < best_key:
                best, best_key = queue, key
        return best

    # -- per-event service -----------------------------------------------------

    def _process(self, event: StreamEvent) -> None:
        """One event through admit → commit → update → push, fully traced."""
        wait_s = self.clock.now - event.arrival_s
        with maybe_span(self.clock.tracer, "streaming.process", "streaming",
                        event_id=event.event_id,
                        event_class=event.event_class,
                        queue_wait_s=wait_s) as root:
            with maybe_span(self.clock.tracer, "streaming.admit",
                            "streaming.queue"):
                self.clock.advance(ADMIT_COST_S)
            with maybe_span(self.clock.tracer, "streaming.commit",
                            "streaming.commit") as span:
                self._commit(event, span)
            with maybe_span(self.clock.tracer, "streaming.update",
                            "streaming.analytics") as span:
                cost = self.analytics.apply(event)
                span.set_attribute("update_cost_s", cost)
                self.clock.advance(cost)
            with maybe_span(self.clock.tracer, "streaming.push",
                            "streaming.push") as span:
                self.clock.advance(PUSH_COST_S)
                self._push(event, root, span)
            self.last_trace_id = root.trace_id
        self.processed += 1
        self.monitoring.metrics.incr("streaming.processed")
        self.monitoring.metrics.observe("streaming.queue.wait_s", wait_s,
                                        trace_id=self.last_trace_id)

    def _commit(self, event: StreamEvent, span) -> None:
        """Buffer the provenance event; flush the window when it is due."""
        leaf = self.frontend.record_event(
            event.patient_id,
            handle=f"stream/{event.event_id}",
            data_hash="sha256:" + hashlib.sha256(
                event.event_id.encode()).hexdigest()[:16],
            event="received",
            actor=event.tenant_id,
            metadata={"event_class": event.event_class,
                      "arrival_s": round(event.arrival_s, 6)})
        span.set_attribute("leaf_index", leaf)
        self._since_flush += 1
        if self._since_flush >= FLUSH_EVERY_EVENTS:
            self.flush()

    def flush(self, force: bool = False) -> bool:
        """Commit the sealed window through the pipeline's executor.

        The executor retries a dropped worker→orderer link and a flush
        the write path refuses, one backoff per failed attempt.  When
        every attempt fails, or the commit breaker is open, the frontend
        keeps its sealed batches (its failed-ingest contract) and the
        next window retries them — the events are delayed, never lost.
        """
        self._since_flush = 0
        if not force and self.frontend.pending_events == 0:
            return True
        try:
            self._commits.call("stream.commit", self._commit_attempt)
        except HealthCloudError:
            self.failed_flushes += 1
            self.monitoring.metrics.incr("streaming.commit.failed_flushes")
            return False
        self.flushes += 1
        self._refresh()
        return True

    def _commit_attempt(self) -> None:
        """One try: cross the worker→orderer link, then flush."""
        try:
            if (self.fault_plan is not None
                    and self.fault_plan.link_dropped("stream-worker",
                                                     "orderer")):
                raise ServiceUnavailableError(
                    "link stream-worker -> orderer dropped")
            self.frontend.flush()
        except HealthCloudError:
            self.commit_retries_used += 1
            raise

    def _refresh(self) -> None:
        """Re-enqueue dirty-entity rows through the compute scheduler."""
        if self.scheduler is None:
            return
        job = self.analytics.engine.refresh_job(self.scheduler)
        if job is not None:
            self.scheduler.run(job.job_id)
            self.refresh_jobs.append(job.job_id)
            self.monitoring.metrics.incr("streaming.refresh.jobs")

    def _push(self, event: StreamEvent, root, span) -> None:
        latency_s = self.clock.now - event.arrival_s
        matched = 0
        if self.registry is not None:
            matched = self.registry.push(event, latency_s=latency_s,
                                         trace_id=root.trace_id)
        span.set_attribute("matched", matched)
        span.set_attribute("push_latency_s", latency_s)
        self.monitoring.metrics.observe("streaming.push.latency_s",
                                        latency_s,
                                        trace_id=root.trace_id)
        good = latency_s <= self.push_slo_threshold_s
        self.monitoring.metrics.incr(
            PUSH_GOOD_SERIES if good else PUSH_BAD_SERIES)

    # -- SLO wiring ------------------------------------------------------------

    def register_push_slo(self, plane, *, target: float = 0.99,
                          name: str = "streaming-push"):
        """Page when too many pushes exceed the latency threshold."""
        from ..cloudsim.healthplane.slo import FAST_PAGE, SloObjective
        return plane.slos.register(SloObjective(
            name=name, good_series=PUSH_GOOD_SERIES,
            bad_series=PUSH_BAD_SERIES, target=target,
            rules=(FAST_PAGE,)))

    # -- accounting ------------------------------------------------------------

    def ledger(self) -> Dict[str, int]:
        """The no-silent-drops balance sheet."""
        return {
            "arrivals": self.arrivals,
            "processed": self.processed,
            "shed": self.shed,
            "queued": self.depth,
        }

    def ledger_balanced(self) -> bool:
        ledger = self.ledger()
        return (ledger["arrivals"]
                == ledger["processed"] + ledger["shed"] + ledger["queued"])

    def describe(self) -> Dict[str, Any]:
        return {
            "ledger": self.ledger(),
            "ledger_balanced": self.ledger_balanced(),
            "flushes": self.flushes,
            "failed_flushes": self.failed_flushes,
            "commit_retries": self.commit_retries_used,
            "refresh_jobs": len(self.refresh_jobs),
            "queues": [q.describe() for q in self.queues],
            "analytics": self.analytics.describe(),
        }
