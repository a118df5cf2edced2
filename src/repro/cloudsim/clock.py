"""Simulated time for the infrastructure cloud.

All latency-sensitive experiments (caching, intercloud transfer, edge
execution) run against a :class:`SimClock` rather than the wall clock, so
results are deterministic and the simulated WAN can be orders of magnitude
"slower" than local memory without the benchmark actually waiting.
"""

from __future__ import annotations


class SimClock:
    """A monotonically advancing simulated clock, in seconds."""

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError("clock cannot start before t=0")
        self._now = float(start)
        # The one Tracer built on this clock, set by ``Tracer(clock)``;
        # every component that holds the clock spans under it.
        self.tracer = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward by ``seconds`` and return the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time {seconds}")
        self._now += seconds
        return self._now

    def advance_to(self, t: float) -> float:
        """Move time forward to absolute time ``t`` (no-op if in the past)."""
        if t > self._now:
            self._now = t
        return self._now


# Reference access costs, in seconds, used across the latency experiments.
# These track the paper's citation [1-3] claim that remote cloud access is
# orders of magnitude costlier than local access.
LOCAL_MEMORY_ACCESS = 50e-6      # client-local cache hit
LAN_ROUND_TRIP = 2e-3            # same-datacenter hop
WAN_ROUND_TRIP = 80e-3           # client <-> remote cloud region
INTER_REGION_ROUND_TRIP = 120e-3  # cloud region <-> cloud region
