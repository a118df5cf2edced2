"""Request-path tracing: hash-linked span trees on the simulated clock.

The Logging & Monitoring service (Section II-A) makes every event
countable; this module makes every *request* attributable.  A
:class:`Tracer` records a tree of :class:`Span` objects per request —
gateway dispatch, resilient call attempts, cache walks, remote knowledge
base round trips, blockchain endorsement/commit, ingestion jobs — all
timed exclusively on :class:`~repro.cloudsim.clock.SimClock`, so a trace
of a chaos run replays byte-identically.

Design constraints, in order:

* **Zero simulated latency.** The tracer only ever *reads* ``clock.now``;
  it never advances the clock.  Simulated latencies with tracing enabled
  are bit-identical to tracing disabled (the P5 bench asserts this).
* **One attachment point.** ``Tracer(clock)`` sets ``clock.tracer``, and
  every component with a span site reads ``self.clock.tracer``, so one
  tracer covers every component that shares the clock.  A clock holds
  at most one tracer; a second raises
  :class:`~repro.core.errors.ConfigurationError`.
* **Near-zero cost when disabled.** ``clock.tracer`` is ``None`` on an
  untraced clock, and :func:`maybe_span` then returns one shared no-op
  context manager.
* **Tamper evidence.** When a trace finishes, every span is sealed with
  a hash over its own fields plus its children's hashes (Merkle-style,
  bottom-up), so the root hash commits to the whole tree — the property
  audit's "attributable" claim (Section IV-E) holds against log editing.

On top of finished trees:

* :meth:`Tracer.critical_path` extracts the chain of spans that bounds
  end-to-end latency and attributes each simulated second to the layer
  that spent it (percentages sum to 100% of the root span's duration);
* :meth:`~repro.cloudsim.monitoring.MetricsRegistry.observe` accepts a
  ``trace_id`` exemplar, linking a histogram outlier back to the exact
  trace that produced it;
* :meth:`Tracer.export_trace` emits deterministic JSON (sorted keys,
  sim timestamps only) for replay diffing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..core.errors import ConfigurationError, IntegrityError, NotFoundError
from .clock import SimClock

GENESIS_HASH = "0" * 64

# Finished traces a tracer keeps; the oldest is dropped past this.
MAX_TRACES = 10_000


@dataclass(frozen=True)
class TraceContext:
    """The propagation handle a request carries across components.

    ``trace_id`` names the tree; ``span_id`` names the caller's span, the
    parent of anything the callee starts.  Travels inside
    :class:`~repro.core.api.RequestContext` through handler code.
    """

    trace_id: str
    span_id: str


@dataclass(frozen=True)
class SpanEvent:
    """A point-in-time annotation on a span (backoff, failover, ...)."""

    name: str
    timestamp_s: float
    attributes: Dict[str, Any] = field(default_factory=dict)


class Span:
    """One timed operation in a trace tree.

    Spans are created open (``end_s is None``) and finished by the
    tracer's context manager; ``status`` is ``"OK"`` unless an exception
    escaped the span (``"ERROR"``) or the component marked it.
    ``span_hash`` is assigned when the whole trace is sealed.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "layer",
                 "start_s", "end_s", "attributes", "status", "error",
                 "events", "children", "span_hash")

    def __init__(self, trace_id: str, span_id: str, parent_id: Optional[str],
                 name: str, layer: str, start_s: float,
                 attributes: Optional[Dict[str, Any]] = None) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.layer = layer
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.status = "OK"
        self.error = ""
        self.events: List[SpanEvent] = []
        self.children: List["Span"] = []
        self.span_hash: Optional[str] = None

    # -- recording -----------------------------------------------------------

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def add_event(self, name: str, timestamp_s: float,
                  **attributes: Any) -> None:
        self.events.append(SpanEvent(name, timestamp_s, dict(attributes)))

    def set_status(self, status: str, error: str = "") -> None:
        self.status = status
        self.error = error

    # -- introspection -------------------------------------------------------

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    @property
    def finished(self) -> bool:
        return self.end_s is not None

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first, children in order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready view (recursive, deterministic field set)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "layer": self.layer,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "status": self.status,
            "error": self.error,
            "attributes": self.attributes,
            "events": [{"name": e.name, "timestamp_s": e.timestamp_s,
                        "attributes": e.attributes} for e in self.events],
            "children": [child.to_dict() for child in self.children],
            "span_hash": self.span_hash,
        }


def _span_payload(span: Span, child_hashes: List[str]) -> bytes:
    """The canonical byte string a span's hash commits to."""
    return json.dumps(
        [span.trace_id, span.span_id, span.parent_id, span.name, span.layer,
         span.start_s, span.end_s, span.status, span.error,
         span.attributes,
         [[e.name, e.timestamp_s, e.attributes] for e in span.events],
         child_hashes],
        sort_keys=True, separators=(",", ":"), default=str).encode()


def _seal(span: Span) -> str:
    """Hash a finished subtree bottom-up; returns (and stores) the hash."""
    child_hashes = [_seal(child) for child in span.children]
    span.span_hash = hashlib.sha256(
        _span_payload(span, child_hashes)).hexdigest()
    return span.span_hash


def _recompute(span: Span) -> str:
    child_hashes = [_recompute(child) for child in span.children]
    return hashlib.sha256(_span_payload(span, child_hashes)).hexdigest()


@dataclass(frozen=True)
class PathSegment:
    """One span's own contribution to the end-to-end critical path."""

    span_id: str
    name: str
    layer: str
    self_time_s: float


@dataclass(frozen=True)
class CriticalPath:
    """The latency-bounding chain through one finished trace."""

    trace_id: str
    total_s: float
    segments: Tuple[PathSegment, ...]

    def by_layer(self) -> Dict[str, float]:
        """Simulated seconds attributed to each layer."""
        out: Dict[str, float] = {}
        for segment in self.segments:
            out[segment.layer] = out.get(segment.layer, 0.0) \
                + segment.self_time_s
        return out

    def layer_percentages(self) -> Dict[str, float]:
        """Per-layer share of end-to-end latency; sums to 100.0."""
        if self.total_s <= 0.0:
            return {}
        return {layer: 100.0 * seconds / self.total_s
                for layer, seconds in self.by_layer().items()}


class _NoopSpan:
    """The do-nothing span handed out when tracing is off."""

    trace_id = None
    span_id = None

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def add_event(self, name: str, timestamp_s: float = 0.0,
                  **attributes: Any) -> None:
        pass

    def set_status(self, status: str, error: str = "") -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class _ActiveSpan:
    """Context manager pairing a Span with its tracer's stack discipline."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc is not None and self.span.status == "OK":
            self.span.set_status("ERROR", f"{type(exc).__name__}: {exc}")
        self._tracer._finish(self.span)
        return None


def maybe_span(tracer: Optional["Tracer"], name: str, layer: str,
               **attributes: Any) -> Any:
    """A span under ``tracer``, or the shared no-op when tracing is off.

    The single hook components call, as
    ``maybe_span(self.clock.tracer, ...)``; ``tracer is None`` costs one
    comparison and no allocation.
    """
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, layer, **attributes)


class Tracer:
    """Builds, stores, seals, and analyses span trees on a SimClock.

    Building one attaches it to its clock (``clock.tracer``); a clock
    that already has a tracer raises :class:`ConfigurationError`.
    A span started while another is active becomes its child; a span
    started with no active span roots a new trace.  Finished traces are
    kept (bounded by :data:`MAX_TRACES`, oldest dropped) for
    critical-path analysis, export, and exemplar resolution.
    """

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        if self.clock.tracer is not None:
            raise ConfigurationError("this clock already has a tracer")
        self.clock.tracer = self
        self._stack: List[Span] = []
        self._traces: Dict[str, Span] = {}      # finished, oldest first
        self._trace_counter = 0
        self._span_counter = 0

    # -- recording -----------------------------------------------------------

    def span(self, name: str, layer: str, **attributes: Any) -> Any:
        """Open a span (context manager yielding the :class:`Span`)."""
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._trace_counter += 1
            trace_id = f"t-{self._trace_counter:08d}"
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        self._span_counter += 1
        span = Span(trace_id, f"s-{self._span_counter:08d}", parent_id,
                    name, layer, self.clock.now, attributes)
        if parent is not None:
            parent.children.append(span)
        self._stack.append(span)
        return _ActiveSpan(self, span)

    def current_context(self) -> Optional[TraceContext]:
        """The propagation handle for the innermost active span."""
        if not self._stack:
            return None
        top = self._stack[-1]
        return TraceContext(top.trace_id, top.span_id)

    def _finish(self, span: Span) -> None:
        span.end_s = self.clock.now
        # Exceptions can unwind several spans at once; pop through any
        # abandoned descendants so the stack stays consistent.
        while self._stack:
            popped = self._stack.pop()
            if popped is span:
                break
            popped.end_s = self.clock.now
        if span.parent_id is None:
            _seal(span)
            self._traces[span.trace_id] = span
            if len(self._traces) > MAX_TRACES:
                del self._traces[next(iter(self._traces))]

    # -- lookup --------------------------------------------------------------

    def trace_ids(self) -> List[str]:
        return list(self._traces)

    def get_trace(self, trace_id: str) -> Span:
        try:
            return self._traces[trace_id]
        except KeyError:
            raise NotFoundError(f"no finished trace {trace_id!r}") from None

    def has_trace(self, trace_id: str) -> bool:
        return trace_id in self._traces

    def spans(self, trace_id: str) -> List[Span]:
        """Every span of a finished trace, depth-first."""
        return list(self.get_trace(trace_id).walk())

    # -- integrity -----------------------------------------------------------

    def verify_trace(self, trace_id: str) -> bool:
        """Recompute the hash tree; raise IntegrityError on tampering."""
        root = self.get_trace(trace_id)
        for span in root.walk():
            expected = _recompute(span)
            if span.span_hash != expected:
                raise IntegrityError(
                    f"trace {trace_id}: span {span.span_id} hash mismatch")
        return True

    # -- analysis ------------------------------------------------------------

    def critical_path(self, trace_id: str) -> CriticalPath:
        """The chain of spans bounding end-to-end latency.

        Walks backwards from each span's end: the child whose interval
        abuts the unexplained tail is on the path; the gaps between
        children are the span's own (self) time.  In the sequential
        simulation child intervals nest without overlap, so the segment
        self-times sum exactly to the root duration.
        """
        root = self.get_trace(trace_id)
        if not root.finished:
            raise IntegrityError(f"trace {trace_id} has an unfinished root")
        segments: List[PathSegment] = []

        def walk(span: Span, end_bound: float) -> None:
            cursor = min(span.end_s, end_bound)
            self_time = 0.0
            kids = sorted(
                (c for c in span.children if c.finished),
                key=lambda c: (c.end_s, c.start_s), reverse=True)
            on_path: List[Tuple[Span, float]] = []
            for child in kids:
                if child.end_s > cursor or child.start_s < span.start_s:
                    continue    # overlapped by a later sibling: off-path
                self_time += cursor - child.end_s
                on_path.append((child, child.end_s))
                cursor = child.start_s
            self_time += cursor - span.start_s
            segments.append(PathSegment(span.span_id, span.name, span.layer,
                                        self_time))
            for child, bound in on_path:
                walk(child, bound)

        walk(root, root.end_s)
        return CriticalPath(trace_id, root.duration_s, tuple(segments))

    # -- export --------------------------------------------------------------

    def export_trace(self, trace_id: str) -> str:
        """Deterministic JSON: sorted keys, sim timestamps only."""
        return json.dumps(self.get_trace(trace_id).to_dict(),
                          sort_keys=True, separators=(",", ":"),
                          default=str)
