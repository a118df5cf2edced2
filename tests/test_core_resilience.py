"""Tests for resilience policies, circuit breakers, and the executor."""

import random

import pytest

from repro.cloudsim.clock import SimClock
from repro.cloudsim.monitoring import MonitoringService
from repro.core.errors import (
    ConfigurationError,
    DeadlineExceededError,
    ServiceUnavailableError,
)
from repro.core.resilience import (
    BreakerState,
    CircuitBreaker,
    ResiliencePolicy,
    ResilientExecutor,
)


class TestResiliencePolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(jitter=1.5)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(breaker_failure_threshold=0)

    def test_backoff_exponential_and_capped(self):
        policy = ResiliencePolicy(base_backoff_s=0.1, max_backoff_s=0.5,
                                  jitter=0.0)
        rng = random.Random(0)
        assert policy.backoff_s(0, rng) == pytest.approx(0.1)
        assert policy.backoff_s(1, rng) == pytest.approx(0.2)
        assert policy.backoff_s(2, rng) == pytest.approx(0.4)
        assert policy.backoff_s(3, rng) == pytest.approx(0.5)  # capped
        assert policy.backoff_s(10, rng) == pytest.approx(0.5)

    def test_backoff_jitter_is_seed_deterministic(self):
        policy = ResiliencePolicy(base_backoff_s=0.1, jitter=0.2)
        first = [policy.backoff_s(i, random.Random(7)) for i in range(5)]
        second = [policy.backoff_s(i, random.Random(7)) for i in range(5)]
        assert first == second
        # Jitter stays within +/- 20% of the deterministic base.
        rng = random.Random(7)
        for i in range(5):
            base = min(policy.max_backoff_s,
                       policy.base_backoff_s * 2 ** i)
            assert abs(policy.backoff_s(i, rng) - base) <= 0.2 * base + 1e-12


class TestCircuitBreaker:
    def _breaker(self, threshold=3, reset_s=10.0):
        clock = SimClock()
        policy = ResiliencePolicy(breaker_failure_threshold=threshold,
                                  breaker_reset_s=reset_s)
        return CircuitBreaker("kb", policy, clock), clock

    def test_opens_after_consecutive_failures(self):
        breaker, _ = self._breaker(threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()

    def test_success_resets_failure_streak(self):
        breaker, _ = self._breaker(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_then_close(self):
        breaker, clock = self._breaker(threshold=1, reset_s=10.0)
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        clock.advance(9.0)
        assert not breaker.allow()
        clock.advance(1.0)
        assert breaker.allow()                      # the half-open probe
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens(self):
        breaker, clock = self._breaker(threshold=1, reset_s=10.0)
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()                    # probe fails
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()

    def test_transitions_emit_metrics(self):
        clock = SimClock()
        monitoring = MonitoringService(clock)
        policy = ResiliencePolicy(breaker_failure_threshold=1)
        breaker = CircuitBreaker("ai.x", policy, clock, monitoring)
        breaker.record_failure()
        assert monitoring.metrics.counter(
            "resilience.breaker.ai.x.open") == 1.0


class TestResilientExecutor:
    def _executor(self, **kwargs):
        clock = SimClock()
        monitoring = MonitoringService(clock)
        policy = ResiliencePolicy(**kwargs)
        return ResilientExecutor(policy, clock, monitoring)

    def test_retries_then_succeeds(self):
        executor = self._executor(max_attempts=3)
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise ServiceUnavailableError("transient")
            return "ok"

        assert executor.call("kb", flaky) == "ok"
        assert len(attempts) == 3
        assert executor.monitoring.metrics.counter("resilience.retries") == 2.0
        assert executor.monitoring.metrics.counter(
            "resilience.kb.success") == 1.0

    def test_backoff_advances_simulated_time_deterministically(self):
        elapsed = []
        for _ in range(2):
            executor = self._executor(max_attempts=3, base_backoff_s=0.5,
                                      jitter=0.5, seed=11)
            calls = [0]

            def flaky():
                calls[0] += 1
                if calls[0] < 3:
                    raise ServiceUnavailableError("transient")
                return "ok"

            executor.call("kb", flaky)
            elapsed.append(executor.clock.now)
        assert elapsed[0] == elapsed[1]
        assert elapsed[0] > 0.0

    def test_raises_after_exhausting_attempts(self):
        executor = self._executor(max_attempts=2)

        def dead():
            raise ServiceUnavailableError("down")

        with pytest.raises(ServiceUnavailableError):
            executor.call("kb", dead)
        assert executor.monitoring.metrics.counter(
            "resilience.kb.failures") == 2.0

    def test_retry_budget_caps_retries(self):
        executor = self._executor(max_attempts=5, retry_budget=1)

        def dead():
            raise ServiceUnavailableError("down")

        with pytest.raises(ServiceUnavailableError):
            executor.call("kb", dead)
        # 1 initial attempt + 1 budgeted retry, then the budget is dry.
        assert executor.monitoring.metrics.counter(
            "resilience.kb.failures") == 2.0
        assert executor.monitoring.metrics.counter(
            "resilience.budget_exhausted") == 1.0
        assert executor.retries_left == 0

    def test_slow_success_counts_as_timeout(self):
        executor = self._executor(max_attempts=1, timeout_s=0.1)
        clock = executor.clock

        def slow():
            clock.advance(0.5)
            return "late"

        with pytest.raises(DeadlineExceededError):
            executor.call("kb", slow)
        assert executor.monitoring.metrics.counter(
            "resilience.kb.timeouts") == 1.0

    def test_failover_to_fallback(self):
        executor = self._executor(max_attempts=1)

        def dead():
            raise ServiceUnavailableError("primary down")

        result = executor.call("a", dead, fallbacks=[("b", lambda: "backup")])
        assert result == "backup"
        assert executor.monitoring.metrics.counter(
            "resilience.failover") == 1.0
        assert executor.monitoring.metrics.counter(
            "resilience.b.success") == 1.0

    def test_open_breaker_skipped_at_dispatch(self):
        executor = self._executor(max_attempts=1,
                                  breaker_failure_threshold=1,
                                  breaker_reset_s=1e9)
        executor.breaker("a").record_failure()  # trip it
        result = executor.call(
            "a", lambda: "never", fallbacks=[("b", lambda: "backup")])
        assert result == "backup"
        assert executor.monitoring.metrics.counter(
            "resilience.a.rejected_open") == 1.0

    def test_breaker_instances_are_cached_per_target(self):
        executor = self._executor()
        assert executor.breaker("x") is executor.breaker("x")
        assert executor.breaker("x") is not executor.breaker("y")
