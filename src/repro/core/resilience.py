"""Platform-wide resilience policies: retries, breakers, failover.

Every cross-component call in the platform (remote knowledge bases,
external AI providers, blockchain endorsement, replicated storage) can
fail transiently under the chaos layer
(:mod:`repro.cloudsim.faults`).  A :class:`ResiliencePolicy` describes
how a caller should absorb those failures:

* per-attempt **timeout** against the simulated clock;
* **capped exponential backoff with deterministic jitter** between
  retries (the jitter RNG is seeded, so chaos runs are reproducible);
* a global **retry budget** so a fault storm cannot amplify itself into
  a retry storm;
* a per-target **circuit breaker** (closed -> open on consecutive
  failures -> half-open probe after a cool-down -> closed on success);
* **failover**: once a target's attempts are spent, or its breaker is
  open, the next fallback target is tried.

:class:`ResilientExecutor` applies a policy to named operations and
surfaces every retry / breaker transition / failover as a
:class:`~repro.cloudsim.monitoring.MonitoringService` metric, so a chaos
run can be audited from the metrics alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..cloudsim.clock import SimClock
from ..cloudsim.monitoring import MonitoringService
from ..cloudsim.tracing import Tracer, maybe_span
from .errors import ConfigurationError, DeadlineExceededError, ServiceUnavailableError


@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs for one class of cross-component calls."""

    timeout_s: float = 1.0            # per-attempt simulated-time budget
    max_attempts: int = 3             # per target, including the first try
    base_backoff_s: float = 0.05
    max_backoff_s: float = 2.0
    jitter: float = 0.1               # +/- fraction of the backoff
    retry_budget: int = 10_000        # total retries this executor may spend
    breaker_failure_threshold: int = 5
    breaker_reset_s: float = 30.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.timeout_s <= 0 or self.base_backoff_s < 0:
            raise ConfigurationError("timeout/backoff must be positive")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError("jitter must be in [0,1]")
        if self.breaker_failure_threshold < 1:
            raise ConfigurationError("breaker threshold must be >= 1")

    def backoff_s(self, retry_index: int, rng: random.Random) -> float:
        """Capped exponential backoff with deterministic, seeded jitter."""
        base = min(self.max_backoff_s,
                   self.base_backoff_s * (2 ** retry_index))
        if self.jitter == 0.0:
            return base
        return base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


class BreakerState(Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Consecutive-failure breaker with a half-open probe."""

    def __init__(self, name: str, policy: ResiliencePolicy,
                 clock: SimClock,
                 monitoring: Optional[MonitoringService] = None) -> None:
        self.name = name
        self.policy = policy
        self.clock = clock
        self.monitoring = monitoring
        self.state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0

    def allow(self) -> bool:
        """May a call proceed right now?

        An open breaker rejects until ``breaker_reset_s`` has elapsed,
        then admits exactly one half-open probe.
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if self.clock.now - self._opened_at >= self.policy.breaker_reset_s:
                self._transition(BreakerState.HALF_OPEN)
                return True
            return False
        return True  # HALF_OPEN: the probe is in flight

    def record_success(self) -> None:
        self._consecutive_failures = 0
        if self.state is not BreakerState.CLOSED:
            self._transition(BreakerState.CLOSED)

    def record_failure(self) -> None:
        self._consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self._trip()  # failed probe: straight back to open
        elif (self.state is BreakerState.CLOSED and self._consecutive_failures
                >= self.policy.breaker_failure_threshold):
            self._trip()

    def _trip(self) -> None:
        self._opened_at = self.clock.now
        self._transition(BreakerState.OPEN)

    def _transition(self, state: BreakerState) -> None:
        self.state = state
        if self.monitoring is not None:
            self.monitoring.metrics.incr(
                f"resilience.breaker.{self.name}.{state.value}")
            self.monitoring.log(
                "resilience", f"breaker {self.name} -> {state.value}",
                level="WARN" if state is BreakerState.OPEN else "INFO")
            self.monitoring.publish("resilience", "breaker.transition",
                                    breaker=self.name, state=state.value,
                                    failures=self._consecutive_failures)


class ResilientExecutor:
    """Applies one :class:`ResiliencePolicy` to named call targets.

    ``call`` runs a primary target with retries under its breaker, then
    fails over to the given fallbacks (each under *its* breaker) when the
    primary is exhausted or its breaker is open.  Simulated backoff time
    advances the shared clock, so chaos benchmarks see realistic latency
    inflation for retried calls.
    """

    def __init__(self, policy: Optional[ResiliencePolicy] = None,
                 clock: Optional[SimClock] = None,
                 monitoring: Optional[MonitoringService] = None,
                 tracer: Optional[Tracer] = None) -> None:
        self.policy = policy if policy is not None else ResiliencePolicy()
        self.clock = clock if clock is not None else SimClock()
        self.monitoring = (monitoring if monitoring is not None
                           else MonitoringService(self.clock))
        self.tracer = tracer
        self._rng = random.Random(self.policy.seed)
        self._breakers: Dict[str, CircuitBreaker] = {}
        self.retries_left = self.policy.retry_budget

    def breaker(self, name: str) -> CircuitBreaker:
        if name not in self._breakers:
            self._breakers[name] = CircuitBreaker(
                name, self.policy, self.clock, self.monitoring)
        return self._breakers[name]

    # -- the main entry point ----------------------------------------------

    def call(self, name: str, fn: Callable[[], Any],
             fallbacks: Sequence[Tuple[str, Callable[[], Any]]] = ()) -> Any:
        """Run ``fn`` under the policy; fail over to ``fallbacks`` in order.

        Raises the last failure when every target is exhausted.
        """
        targets: list = [(name, fn)] + list(fallbacks)
        last_error: Optional[Exception] = None
        with maybe_span(self.tracer, f"resilience.{name}", "resilience",
                        target=name, fallbacks=len(fallbacks)) as span:
            for index, (target_name, target_fn) in enumerate(targets):
                breaker = self.breaker(target_name)
                if not breaker.allow():
                    self._metric(f"resilience.{target_name}.rejected_open")
                    span.add_event("breaker.rejected_open", self.clock.now,
                                   target=target_name)
                    last_error = ServiceUnavailableError(
                        f"{target_name}: circuit breaker open")
                    if index + 1 < len(targets):
                        self._metric("resilience.failover")
                        span.add_event("failover", self.clock.now,
                                       from_target=target_name)
                    continue
                try:
                    result = self._attempts(target_name, target_fn, breaker)
                    span.set_attribute("served_by", target_name)
                    return result
                except Exception as exc:
                    last_error = exc
                if index + 1 < len(targets):
                    self._metric("resilience.failover")
                    span.add_event("failover", self.clock.now,
                                   from_target=target_name)
            assert last_error is not None
            raise last_error

    def _attempts(self, name: str, fn: Callable[[], Any],
                  breaker: CircuitBreaker) -> Any:
        policy = self.policy
        last_error: Optional[Exception] = None
        for attempt in range(policy.max_attempts):
            with maybe_span(self.tracer, "resilience.attempt", "resilience",
                            target=name, attempt=attempt) as span:
                if attempt > 0:
                    if self.retries_left <= 0:
                        self._metric("resilience.budget_exhausted")
                        span.add_event("retry_budget_exhausted",
                                       self.clock.now)
                        break
                    self.retries_left -= 1
                    self._metric(f"resilience.{name}.retries")
                    self._metric("resilience.retries")
                    backoff = policy.backoff_s(attempt - 1, self._rng)
                    self.clock.advance(backoff)
                    span.add_event("backoff", self.clock.now,
                                   backoff_s=backoff)
                    if not breaker.allow():  # opened under us mid-loop
                        self._metric(f"resilience.{name}.rejected_open")
                        span.add_event("breaker.rejected_open",
                                       self.clock.now, target=name)
                        break
                started = self.clock.now
                try:
                    result = fn()
                except Exception as exc:
                    breaker.record_failure()
                    self._metric(f"resilience.{name}.failures")
                    span.set_status("ERROR", f"{type(exc).__name__}: {exc}")
                    last_error = exc
                    continue
                elapsed = self.clock.now - started
                if elapsed > policy.timeout_s:
                    breaker.record_failure()
                    self._metric(f"resilience.{name}.timeouts")
                    span.set_status(
                        "ERROR", f"timeout after {elapsed:.3f}s")
                    span.set_attribute("timeout", True)
                    last_error = DeadlineExceededError(
                        f"{name}: attempt took {elapsed:.3f}s "
                        f"(> {policy.timeout_s}s)")
                    continue
                breaker.record_success()
                self._metric(f"resilience.{name}.success")
                return result
        assert last_error is not None
        raise last_error

    def _metric(self, name: str) -> None:
        self.monitoring.metrics.incr(name)
