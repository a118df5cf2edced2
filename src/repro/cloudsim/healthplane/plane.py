"""The health control plane: one facade wiring the four substrates.

:class:`HealthPlane` owns a :class:`~.timeseries.TimeSeriesStore`, an
:class:`~.events.EventBus`, an :class:`~.slo.SloEvaluator`, and a
:class:`~.accounting.UsageAccountant`, attached to one
:class:`~repro.cloudsim.monitoring.MonitoringService`:

* the metrics registry is bound to the series store, so every existing
  ``incr``/``observe``/``set_gauge`` call anywhere in the platform
  gains a time dimension without touching its call site;
* instrumented layers (circuit breakers, cache hierarchy, ingestion
  frontend, compute scheduler) publish lifecycle events through
  :meth:`~repro.cloudsim.monitoring.MonitoringService.publish`, which
  does nothing until a plane attaches — the same optional pattern as
  the tracer and the fault plan.  The gateway and the sharded ingest
  call :meth:`observe_request` and :meth:`observe_shard_commit`, which
  also feed series and accounting;
* :meth:`observe_request` is the gateway's one-call instrumentation
  point: labeled latency series, good/bad SLO counters, per-tenant and
  per-route accounting, and an ``api.request`` stream event;
* :meth:`log_tail` feeds the event stream from the hash-chained log
  (WARN-and-up by default) using the log store's indexed, level-ranked
  filtering;
* :meth:`snapshot` produces a :class:`HealthReport`: active alerts,
  top tenants/shards by requests/latency/faults, event-stream and
  series-store accounting, and histogram exemplars cross-linking the
  worst observed latencies to their trace ids.

Everything reads the simulated clock and nothing advances it: enabling
the health plane leaves simulated latencies bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..clock import SimClock
from ..monitoring import LogEntry, MonitoringService
from .accounting import UsageAccountant
from .events import EventBus, PlatformEvent
from .slo import Alert, SloEvaluator, SloObjective
from .timeseries import TimeSeriesStore

# Default SLO counter series for the API gateway objective.
API_GOOD_SERIES = "api.requests.good"
API_BAD_SERIES = "api.requests.bad"


@dataclass(frozen=True)
class HealthReport:
    """One serializable snapshot of platform health."""

    taken_at_s: float
    active_alerts: List[Dict[str, Any]]
    alerts_total: int
    top_usage: Dict[str, Dict[str, List[Dict[str, Any]]]]
    exemplars: Dict[str, Dict[str, Any]]
    events: Dict[str, Any]
    series: Dict[str, float]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "taken_at_s": self.taken_at_s,
            "active_alerts": list(self.active_alerts),
            "alerts_total": self.alerts_total,
            "top_usage": self.top_usage,
            "exemplars": self.exemplars,
            "events": self.events,
            "series": self.series,
        }


class HealthPlane:
    """Wires series + events + SLOs + accounting onto a monitoring service."""

    def __init__(self, monitoring: MonitoringService,
                 interval_s: float = 60.0, window_count: int = 4320,
                 max_series: int = 1024, seed: int = 0,
                 accounting_capacity: int = 128,
                 exemplar_metrics: Sequence[str] = ("api.latency",)) -> None:
        self.monitoring = monitoring
        self.clock: SimClock = monitoring.clock
        self.series = TimeSeriesStore(self.clock, interval_s=interval_s,
                                      window_count=window_count,
                                      max_series=max_series)
        self.events = EventBus(self.clock, seed=seed, monitoring=monitoring)
        self.slos = SloEvaluator(self.series, self.clock,
                                 events=self.events, monitoring=monitoring)
        self.accounting = UsageAccountant(capacity=accounting_capacity)
        self.exemplar_metrics = tuple(exemplar_metrics)
        self._log_cursor = 0
        # Attach: existing metric call sites gain the time dimension and
        # instrumented layers discover the plane through monitoring.
        monitoring.metrics.bind_series(self.series)
        monitoring.healthplane = self

    # -- gateway instrumentation --------------------------------------------

    def observe_request(self, tenant: str, route: str, status: int,
                        latency_s: float,
                        trace_id: Optional[str] = None) -> None:
        """Record one API request across all four substrates.

        5xx responses count against the availability SLO (the platform
        failed); 4xx are the caller's fault and burn no budget.
        """
        good = status < 500
        self.series.record(API_GOOD_SERIES if good else API_BAD_SERIES, 1.0)
        self.series.record("api.request.latency", latency_s,
                           labels={"tenant": tenant, "route": route})
        self.accounting.charge("tenant", tenant, latency_s=latency_s,
                               faults=0.0 if good else 1.0)
        self.accounting.charge("route", route, latency_s=latency_s,
                               faults=0.0 if good else 1.0)
        attributes: Dict[str, Any] = {"tenant": tenant, "route": route,
                                      "status": status,
                                      "latency_s": latency_s}
        if trace_id is not None:
            attributes["trace"] = trace_id
        self.events.publish("gateway", "api.request", **attributes)

    # -- shard instrumentation ----------------------------------------------

    def observe_shard_commit(self, shard: str, transactions: int,
                             rounds: int, makespan_s: float) -> None:
        """Record one shard's slice of a fork-join ingest."""
        self.series.record("blockchain.shard.commit_s", makespan_s,
                           labels={"shard": shard})
        self.accounting.charge("shard", shard, requests=float(transactions),
                               latency_s=makespan_s)
        self.events.publish("blockchain", "shard.commit", shard=shard,
                            transactions=transactions, rounds=rounds,
                            makespan_s=makespan_s)

    # -- log tail ------------------------------------------------------------

    def log_tail(self, min_level: str = "WARN") -> List[PlatformEvent]:
        """Publish new log entries at/above ``min_level`` onto the stream.

        Uses the log store's indexed cursor so each entry is published
        exactly once across repeated calls.
        """
        entries: List[LogEntry] = self.monitoring.logs.entries(
            since_index=self._log_cursor, min_level=min_level)
        self._log_cursor = len(self.monitoring.logs)
        return [
            self.events.publish("log", "log.entry", index=entry.index,
                                stream=entry.stream, level=entry.level,
                                message=entry.message)
            for entry in entries
        ]

    # -- SLOs ---------------------------------------------------------------

    def register_api_slo(self, target: float = 0.999,
                         name: str = "api-availability") -> SloObjective:
        """Convenience: the gateway availability objective."""
        return self.slos.register(SloObjective(
            name=name, good_series=API_GOOD_SERIES,
            bad_series=API_BAD_SERIES, target=target))

    def register_subscriber_slo(self, subscriber: str,
                                target: float = 0.99) -> SloObjective:
        """Drop-rate objective for one event-bus subscriber.

        The bus mirrors every clean delivery and every overflow drop to
        ``healthplane.events.delivered.<name>`` /
        ``healthplane.events.dropped.<name>`` counters; binding them as
        an SLO means a saturated slow subscriber pages instead of
        silently losing history.
        """
        from .slo import FAST_PAGE
        return self.slos.register(SloObjective(
            name=f"events-{subscriber}",
            good_series=f"healthplane.events.delivered.{subscriber}",
            bad_series=f"healthplane.events.dropped.{subscriber}",
            target=target, rules=(FAST_PAGE,)))

    def evaluate(self) -> List[Alert]:
        """Run one SLO evaluation pass; returns newly fired alerts."""
        return self.slos.evaluate()

    # -- snapshot ------------------------------------------------------------

    def snapshot(self, k: int = 8) -> HealthReport:
        """The 'who is burning the platform down' report."""
        exemplars: Dict[str, Dict[str, Any]] = {}
        for metric in self.exemplar_metrics:
            exemplar = self.monitoring.metrics.exemplar(metric)
            if exemplar is not None:
                exemplars[metric] = exemplar
        return HealthReport(
            taken_at_s=self.clock.now,
            active_alerts=[a.to_dict() for a in self.slos.active_alerts()],
            alerts_total=len(self.slos.alerts),
            top_usage=self.accounting.snapshot(k),
            exemplars=exemplars,
            events=self.events.describe(),
            series=self.series.describe(),
        )
