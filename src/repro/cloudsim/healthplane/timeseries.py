"""Windowed time-series metrics: the health plane's time dimension.

:class:`~repro.cloudsim.monitoring.MetricsRegistry` answers "how many,
ever" and "how slow, overall"; it cannot answer "how many *in the last
five minutes*", which is the question every SLO burn-rate rule and every
"which tenant is burning the platform down right now" query starts
from.  A :class:`TimeSeriesStore` adds that dimension:

* samples land in **fixed-interval windows** aligned to the simulated
  clock (``floor(now / interval_s) * interval_s``), one ring buffer of
  finalized :class:`WindowAggregate` records per series — memory is
  bounded by ``window_count`` regardless of run length;
* each window keeps ``sum/count/min/max/last`` plus nearest-rank
  ``p50/p99`` (samples are held only for the still-open window and
  folded into the aggregate when the window closes);
* series are **labeled** — ``api.request.latency{route=/records,
  tenant=t-07}`` — with deterministic key rendering (sorted label
  names), and total cardinality is **bounded**: past ``max_series`` the
  least-recently-updated series is evicted and counted, so a cardinality
  explosion degrades gracefully instead of eating the host;
* horizon queries (:meth:`TimeSeriesStore.total`,
  :meth:`TimeSeriesStore.aggregate`) sum the windows that overlap the
  trailing ``horizon_s`` of simulated time — the primitive the SLO
  evaluator's multi-window burn rates are built on.

Everything is timed purely on :class:`~repro.cloudsim.clock.SimClock`
reads; the store never advances time, so attaching it costs zero
simulated latency (same contract as the tracer).
"""

from __future__ import annotations

import math
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Mapping, Optional, Tuple

from ...core.errors import ConfigurationError
from ..clock import SimClock
from ..monitoring import nearest_rank


def series_key(name: str, labels: Optional[Mapping[str, str]] = None) -> str:
    """Canonical ``name{k=v,...}`` rendering with sorted label names."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


@dataclass(frozen=True)
class WindowAggregate:
    """One closed (or snapshotted live) window of a series."""

    start_s: float
    end_s: float
    count: int
    sum: float
    min: float
    max: float
    last: float
    p50: float
    p99: float

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class TimeSeries:
    """One labeled series: a ring of closed windows plus the open one."""

    __slots__ = ("interval_s", "_closed", "_live_start", "_live")

    def __init__(self, interval_s: float, window_count: int) -> None:
        self.interval_s = interval_s
        self._closed: Deque[WindowAggregate] = deque(maxlen=window_count)
        self._live_start: Optional[float] = None
        self._live: List[float] = []

    def record(self, now: float, value: float) -> None:
        window_start = math.floor(now / self.interval_s) * self.interval_s
        if self._live_start is None:
            self._live_start = window_start
        elif window_start > self._live_start:
            self._closed.append(self._finalize())
            self._live_start = window_start
            self._live = []
        self._live.append(value)

    def _finalize(self) -> WindowAggregate:
        assert self._live_start is not None and self._live
        ordered = sorted(self._live)
        return WindowAggregate(
            start_s=self._live_start,
            end_s=self._live_start + self.interval_s,
            count=len(self._live),
            sum=sum(self._live),
            min=ordered[0],
            max=ordered[-1],
            last=self._live[-1],
            p50=nearest_rank(ordered, 0.50),
            p99=nearest_rank(ordered, 0.99),
        )

    def windows(self) -> List[WindowAggregate]:
        """Closed windows oldest-first, plus a snapshot of the live one."""
        out = list(self._closed)
        if self._live:
            out.append(self._finalize())
        return out


class TimeSeriesStore:
    """Bounded-cardinality store of labeled windowed series.

    ``interval_s * window_count`` is the store's *span*: the longest
    trailing horizon any query (and therefore any SLO window) can cover.
    """

    def __init__(self, clock: Optional[SimClock] = None,
                 interval_s: float = 60.0, window_count: int = 4320,
                 max_series: int = 1024) -> None:
        if interval_s <= 0:
            raise ConfigurationError("interval_s must be positive")
        if window_count < 1:
            raise ConfigurationError("window_count must be >= 1")
        if max_series < 1:
            raise ConfigurationError("max_series must be >= 1")
        self.clock = clock if clock is not None else SimClock()
        self.interval_s = interval_s
        self.window_count = window_count
        self.max_series = max_series
        self.evictions = 0
        self._series: "OrderedDict[str, TimeSeries]" = OrderedDict()

    @property
    def span_s(self) -> float:
        """The longest trailing horizon this store can answer for."""
        return self.interval_s * self.window_count

    @property
    def cardinality(self) -> int:
        return len(self._series)

    def record(self, name: str, value: float = 1.0,
               labels: Optional[Mapping[str, str]] = None) -> None:
        """Add one sample to the series' current window."""
        key = series_key(name, labels)
        series = self._series.get(key)
        if series is None:
            series = TimeSeries(self.interval_s, self.window_count)
            self._series[key] = series
            if len(self._series) > self.max_series:
                self._series.popitem(last=False)   # least recently updated
                self.evictions += 1
        else:
            self._series.move_to_end(key)
        series.record(self.clock.now, value)

    # -- queries -------------------------------------------------------------

    def keys(self) -> List[str]:
        return sorted(self._series)

    def has_series(self, name: str,
                   labels: Optional[Mapping[str, str]] = None) -> bool:
        return series_key(name, labels) in self._series

    def windows(self, name: str,
                labels: Optional[Mapping[str, str]] = None
                ) -> List[WindowAggregate]:
        series = self._series.get(series_key(name, labels))
        return series.windows() if series is not None else []

    def _horizon_windows(self, name: str, horizon_s: float,
                         labels: Optional[Mapping[str, str]]
                         ) -> List[WindowAggregate]:
        if horizon_s <= 0:
            raise ConfigurationError("horizon_s must be positive")
        cutoff = self.clock.now - horizon_s
        return [w for w in self.windows(name, labels) if w.end_s > cutoff]

    def aggregate(self, name: str, horizon_s: float,
                  labels: Optional[Mapping[str, str]] = None
                  ) -> Tuple[int, float]:
        """``(count, sum)`` over windows overlapping the trailing horizon."""
        count = 0
        total = 0.0
        for window in self._horizon_windows(name, horizon_s, labels):
            count += window.count
            total += window.sum
        return count, total

    def total(self, name: str, horizon_s: float,
              labels: Optional[Mapping[str, str]] = None) -> float:
        """Sum over the trailing horizon (0.0 for an unknown series)."""
        return self.aggregate(name, horizon_s, labels)[1]

    def latest(self, name: str,
               labels: Optional[Mapping[str, str]] = None
               ) -> Optional[WindowAggregate]:
        windows = self.windows(name, labels)
        return windows[-1] if windows else None

    def describe(self) -> Dict[str, float]:
        """Serializable self-accounting (for health snapshots)."""
        return {
            "interval_s": self.interval_s,
            "window_count": self.window_count,
            "span_s": self.span_s,
            "cardinality": self.cardinality,
            "max_series": self.max_series,
            "evictions": self.evictions,
        }
