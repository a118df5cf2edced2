"""Per-tenant / per-shard resource accounting via heavy-hitter sketches.

"Which tenant is burning the platform down right now" needs top-k over
an unbounded key population (millions of patients, thousands of
tenants) in bounded memory.  :class:`SpaceSavingSketch` is the classic
answer (Metwally et al.): ``capacity`` counters; a new key past
capacity *replaces* the minimum counter and inherits its count as the
new key's maximum possible error.  Guarantees:

* every tracked estimate over-counts by at most its recorded ``error``
  (never under-counts), so ``estimate - error`` is a certain lower
  bound;
* any key whose true count exceeds the smallest tracked counter is in
  the sketch — true heavy hitters cannot be evicted by tail traffic;
* with ``capacity >= distinct keys`` the sketch is exact (error 0),
  which the P7 benchmark exploits to assert top-k == ground truth.

:class:`UsageAccountant` keeps one sketch per ``(scope, dimension)`` —
scopes are ``tenant`` / ``shard`` / ``route``, dimensions ``requests``
/ ``latency_s`` / ``faults`` — fed by the gateway and the sharded
write path through :class:`~.plane.HealthPlane`.  All ordering is
deterministic (ties break on the key string), so snapshots serialize
byte-identically across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ...core.errors import ConfigurationError


@dataclass(frozen=True)
class HeavyHitter:
    """One top-k entry: an over-estimate and its maximum error."""

    key: str
    estimate: float
    error: float

    @property
    def guaranteed(self) -> float:
        """Certain lower bound on the true count."""
        return self.estimate - self.error

    def to_dict(self) -> Dict[str, float]:
        return {"key": self.key, "estimate": round(self.estimate, 9),
                "error": round(self.error, 9)}


class SpaceSavingSketch:
    """Deterministic space-saving top-k over weighted updates."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ConfigurationError("sketch capacity must be >= 1")
        self.capacity = capacity
        self.total = 0.0
        self.replacements = 0
        self._counts: Dict[str, float] = {}
        self._errors: Dict[str, float] = {}

    def offer(self, key: str, weight: float = 1.0) -> None:
        """Count ``weight`` toward ``key``."""
        if weight < 0:
            raise ConfigurationError("weight must be non-negative")
        self.total += weight
        if key in self._counts:
            self._counts[key] += weight
            return
        if len(self._counts) < self.capacity:
            self._counts[key] = weight
            self._errors[key] = 0.0
            return
        # Replace the minimum counter; ties break on the key string so
        # the victim (and thus the whole sketch) is deterministic.
        victim = min(self._counts, key=lambda k: (self._counts[k], k))
        floor = self._counts.pop(victim)
        self._errors.pop(victim)
        self._counts[key] = floor + weight
        self._errors[key] = floor
        self.replacements += 1

    def __len__(self) -> int:
        return len(self._counts)

    def estimate(self, key: str) -> Tuple[float, float]:
        """``(estimate, error)`` for a tracked key; ``(0, 0)`` otherwise."""
        if key not in self._counts:
            return 0.0, 0.0
        return self._counts[key], self._errors[key]

    def top(self, k: int = 8) -> List[HeavyHitter]:
        """The k largest estimates, descending, key-tie-broken."""
        ranked = sorted(self._counts,
                        key=lambda key: (-self._counts[key], key))
        return [HeavyHitter(key, self._counts[key], self._errors[key])
                for key in ranked[:k]]

    @property
    def exact(self) -> bool:
        """True when no counter was ever replaced (all errors are 0)."""
        return self.replacements == 0


class UsageAccountant:
    """Sketched usage per scope (tenant/shard/route) and dimension."""

    DIMENSIONS = ("requests", "latency_s", "faults")

    def __init__(self, capacity: int = 128) -> None:
        self.capacity = capacity
        self._sketches: Dict[Tuple[str, str], SpaceSavingSketch] = {}

    def _sketch(self, scope: str, dimension: str) -> SpaceSavingSketch:
        key = (scope, dimension)
        sketch = self._sketches.get(key)
        if sketch is None:
            sketch = SpaceSavingSketch(self.capacity)
            self._sketches[key] = sketch
        return sketch

    def charge(self, scope: str, key: str, *, requests: float = 1.0,
               latency_s: float = 0.0, faults: float = 0.0) -> None:
        """Attribute one unit of work to ``key`` within ``scope``."""
        if requests:
            self._sketch(scope, "requests").offer(key, requests)
        if latency_s:
            self._sketch(scope, "latency_s").offer(key, latency_s)
        if faults:
            self._sketch(scope, "faults").offer(key, faults)

    def top(self, scope: str, dimension: str,
            k: int = 8) -> List[HeavyHitter]:
        if dimension not in self.DIMENSIONS:
            raise ConfigurationError(
                f"unknown accounting dimension {dimension!r} "
                f"(expected one of {', '.join(self.DIMENSIONS)})")
        sketch = self._sketches.get((scope, dimension))
        return sketch.top(k) if sketch is not None else []

    def scopes(self) -> List[str]:
        return sorted({scope for scope, _ in self._sketches})

    def snapshot(self, k: int = 8) -> Dict[str, Dict[str, List[Dict]]]:
        """Every scope's top-k per dimension, JSON-ready, sorted keys."""
        out: Dict[str, Dict[str, List[Dict]]] = {}
        for scope in self.scopes():
            out[scope] = {}
            for dimension in self.DIMENSIONS:
                hitters = self.top(scope, dimension, k)
                if hitters:
                    out[scope][dimension] = [h.to_dict() for h in hitters]
        return out
