"""Logging and Monitoring service (Section II-A).

Provides secure, append-only log streams for infrastructure and platform
services, metric counters/gauges, and an integrity chain over log entries
so tampering is detectable — the property audit (Section IV-E) relies on.
Log entries must not contain sensitive data; a scrubber enforces that.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Optional, Pattern,
                    Tuple)

from ..core.canonical import canonical_json
from ..core.errors import ConfigurationError, IntegrityError
from .clock import SimClock

# Patterns that must never appear in logs (PHI scrubbing, Section IV-E:
# "logged events cannot contain sensitive data").
_SENSITIVE_PATTERNS: List[Pattern[str]] = [
    re.compile(r"\b\d{3}-\d{2}-\d{4}\b"),            # SSN
    re.compile(r"\b[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}\b"),  # email
    re.compile(r"\b(?:\d[ -]*?){13,16}\b"),           # credit-card-like digit runs
]


def scrub(message: str) -> str:
    """Redact sensitive substrings from a log message."""
    for pattern in _SENSITIVE_PATTERNS:
        message = pattern.sub("[REDACTED]", message)
    return message


def scrub_value(value: Any) -> Any:
    """Recursively scrub every string inside a log attribute value.

    Attributes arrive as arbitrarily nested dicts/lists/tuples (e.g. a
    whole patient record passed as ``patient={...}``); scrubbing only the
    top-level strings would let an SSN ride into the hash chain inside a
    nested dict.  Dict *keys* are scrubbed too — a sensitive value used
    as a key leaks just the same.
    """
    if isinstance(value, str):
        return scrub(value)
    if isinstance(value, dict):
        return {(scrub(k) if isinstance(k, str) else k): scrub_value(v)
                for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        scrubbed = [scrub_value(v) for v in value]
        return scrubbed if isinstance(value, list) else tuple(scrubbed)
    if isinstance(value, (set, frozenset)):
        # Sets are not JSON-serializable, so the append will still be
        # rejected with a typed error — but that error message (and any
        # debugger peeking at the attribute) must not see raw PHI.
        cleaned = {scrub_value(v) for v in value}
        return frozenset(cleaned) if isinstance(value, frozenset) else cleaned
    return value


@dataclass(frozen=True)
class LogEntry:
    """One immutable, hash-chained log record."""

    index: int
    timestamp: float
    stream: str
    level: str
    message: str
    attributes: Dict[str, Any]
    prev_hash: str
    entry_hash: str


def _hash_entry(index: int, timestamp: float, stream: str, level: str,
                message: str, attributes: Dict[str, Any], prev_hash: str) -> str:
    payload = canonical_json(
        [index, timestamp, stream, level, message, attributes, prev_hash])
    return hashlib.sha256(payload).hexdigest()


# Severity ranking for LogStore.entries(min_level=...).  Levels not in
# the table (custom streams) rank above everything, so a min-level
# filter never silently hides an entry it does not understand.
LEVEL_RANKS: Dict[str, int] = {
    "DEBUG": 10,
    "INFO": 20,
    "WARN": 30,
    "ERROR": 40,
    "CRITICAL": 50,
}


class LogStore:
    """Append-only, hash-chained, scrubbed log store."""

    GENESIS = "0" * 64

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._entries: List[LogEntry] = []

    def append(self, stream: str, message: str, level: str = "INFO",
               **attributes: Any) -> LogEntry:
        """Append a scrubbed entry and return it.

        Attributes are scrubbed recursively and validated as
        JSON-serializable *before* anything is appended, so a bad log call
        raises a typed :class:`ConfigurationError` (naming the offending
        key) instead of half-corrupting the append-only chain with a raw
        ``TypeError`` from ``json.dumps``.  The entry hash encodes the
        attributes once; only when that encoding fails are they checked
        key by key.
        """
        message = scrub(message)
        attributes = {k: scrub_value(v) for k, v in attributes.items()}
        index = len(self._entries)
        prev_hash = self._entries[-1].entry_hash if self._entries else self.GENESIS
        timestamp = self.clock.now
        try:
            entry_hash = _hash_entry(index, timestamp, stream, level,
                                     message, attributes, prev_hash)
        except (TypeError, ValueError):
            self._require_serializable(attributes)
            raise
        entry = LogEntry(index, timestamp, stream, level, message,
                         dict(attributes), prev_hash, entry_hash)
        self._entries.append(entry)
        return entry

    @staticmethod
    def _require_serializable(attributes: Dict[str, Any]) -> None:
        try:
            json.dumps(attributes, sort_keys=True)
        except (TypeError, ValueError):
            for key, value in attributes.items():
                try:
                    json.dumps({key: value}, sort_keys=True)
                except (TypeError, ValueError) as exc:
                    raise ConfigurationError(
                        f"log attribute {key!r} is not JSON-serializable: "
                        f"{exc}") from None
            raise ConfigurationError(
                "log attributes are not JSON-serializable") from None

    def entries(self, stream: Optional[str] = None,
                level: Optional[str] = None,
                since_index: Optional[int] = None,
                min_level: Optional[str] = None) -> List[LogEntry]:
        """Filtered view over the log.

        ``since_index`` keeps only entries at or past that index (the
        tail-cursor idiom the health plane's log tail uses); ``level``
        matches one level exactly while ``min_level`` keeps everything
        at or above the given severity per :data:`LEVEL_RANKS`.  An
        unknown ``min_level`` is a caller bug and raises
        :class:`ConfigurationError`; entry levels outside the table are
        ranked above everything so they are never silently dropped.
        """
        result: Iterable[LogEntry] = self._entries
        if since_index is not None:
            # Entries are index-ordered by construction: slice, don't scan.
            result = self._entries[max(0, since_index):]
        if stream is not None:
            result = [e for e in result if e.stream == stream]
        if level is not None:
            result = [e for e in result if e.level == level]
        if min_level is not None:
            if min_level not in LEVEL_RANKS:
                raise ConfigurationError(
                    f"unknown min_level {min_level!r} (expected one of "
                    f"{', '.join(sorted(LEVEL_RANKS, key=LEVEL_RANKS.get))})")
            threshold = LEVEL_RANKS[min_level]
            top = max(LEVEL_RANKS.values()) + 1
            result = [e for e in result
                      if LEVEL_RANKS.get(e.level, top) >= threshold]
        return list(result)

    def __len__(self) -> int:
        return len(self._entries)

    def verify_chain(self) -> bool:
        """Recompute the hash chain; raise IntegrityError on tampering."""
        prev = self.GENESIS
        for i, entry in enumerate(self._entries):
            if entry.index != i or entry.prev_hash != prev:
                raise IntegrityError(f"log chain broken at index {i}")
            expected = _hash_entry(entry.index, entry.timestamp, entry.stream,
                                   entry.level, entry.message,
                                   entry.attributes, entry.prev_hash)
            if expected != entry.entry_hash:
                raise IntegrityError(f"log entry {i} hash mismatch")
            prev = entry.entry_hash
        return True


def nearest_rank(sorted_values: List[float], p: float) -> float:
    """The p-th percentile of ascending samples, by nearest rank.

    The value at rank ``ceil(p*n)`` (1-based) of n samples, i.e. index
    ``ceil(p*n) - 1``; ``int(p*n)`` would overshoot by one rank (p50 of
    ``[1.0, 2.0]`` would report the max).
    """
    n = len(sorted_values)
    return sorted_values[min(n - 1, max(0, math.ceil(p * n) - 1))]


def summarize(values: Iterable[float]) -> Dict[str, float]:
    """count/mean/min/max/p50/p95/p99 of samples, with
    :func:`nearest_rank` percentiles; ``{"count": 0}`` for none."""
    ordered = sorted(values)
    if not ordered:
        return {"count": 0}
    n = len(ordered)
    return {
        "count": n,
        "mean": sum(ordered) / n,
        "min": ordered[0],
        "max": ordered[-1],
        "p50": nearest_rank(ordered, 0.50),
        "p95": nearest_rank(ordered, 0.95),
        "p99": nearest_rank(ordered, 0.99),
    }


class MetricsRegistry:
    """Counters, gauges, and latency histograms for platform services."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._readers: Dict[str, Callable[[], float]] = {}
        self._histograms: Dict[str, List[float]] = {}
        self._exemplars: Dict[str, Tuple[float, str]] = {}
        # Optional windowed time-series sink (healthplane).  When bound,
        # every counter increment, pushed gauge value, and histogram
        # sample also lands in a clock-aligned window, giving existing
        # call sites a time dimension without touching them.
        self._series = None

    def bind_series(self, store: Any) -> None:
        """Mirror all future samples into a windowed time-series store."""
        self._series = store

    def incr(self, name: str, value: float = 1.0) -> float:
        self._counters[name] = self._counters.get(name, 0.0) + value
        if self._series is not None:
            self._series.record(name, value)
        return self._counters[name]

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    def register_gauge(self, name: str, read: Callable[[], float]) -> None:
        """Make ``gauge(name)`` return ``read()``, so a gauge reads the
        state its owner keeps when asked and leaves no series sample.

        A name has one owner: a second reader for it raises
        :class:`ConfigurationError`.
        """
        if name in self._readers:
            raise ConfigurationError(f"gauge {name!r} already has a reader")
        self._readers[name] = read

    def set_gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value
        if self._series is not None:
            self._series.record(name, value)

    def gauge(self, name: str) -> Optional[float]:
        read = self._readers.get(name)
        if read is not None:
            return read()
        return self._gauges.get(name)

    def observe(self, name: str, value: float,
                trace_id: Optional[str] = None) -> None:
        """Record a histogram sample, optionally tagged with the trace
        that produced it.  The worst (largest) traced sample is kept as
        the histogram's exemplar, so an outlier in a latency summary
        links straight back to its span tree."""
        self._histograms.setdefault(name, []).append(value)
        if self._series is not None:
            self._series.record(name, value)
        if trace_id is not None:
            current = self._exemplars.get(name)
            if current is None or value >= current[0]:
                self._exemplars[name] = (value, trace_id)

    def exemplar(self, name: str) -> Optional[Dict[str, Any]]:
        """The worst traced sample of a histogram: value + trace id."""
        record = self._exemplars.get(name)
        if record is None:
            return None
        return {"value": record[0], "trace_id": record[1]}

    def summary(self, name: str) -> Dict[str, float]:
        """:func:`summarize` over a histogram's samples."""
        return summarize(self._histograms.get(name, []))

    def histogram_values(self, name: str) -> List[float]:
        return list(self._histograms.get(name, []))


class MonitoringService:
    """Facade combining logs and metrics, shared by all platform services."""

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.logs = LogStore(self.clock)
        self.metrics = MetricsRegistry()
        # Optional health control plane (repro.cloudsim.healthplane),
        # set when a HealthPlane attaches; None by default, like the
        # fault_plan hooks and the clock's tracer.
        self.healthplane: Optional[Any] = None

    def log(self, stream: str, message: str, level: str = "INFO",
            **attributes: Any) -> LogEntry:
        """Append to the log, then count the entry under
        ``log.<stream>.<level>``; a rejected entry is not counted."""
        counter = f"log.{stream}.{level.lower()}"
        entry = self.logs.append(stream, message, level=level, **attributes)
        self.metrics.incr(counter)
        return entry

    def publish(self, source: str, kind: str, **attributes: Any) -> None:
        """Emit a lifecycle event on the attached health plane's stream.

        Does nothing when no plane is attached.
        """
        if self.healthplane is not None:
            self.healthplane.events.publish(source, kind, **attributes)
