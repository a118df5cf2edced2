"""Access traces for the caching experiments (E3, A1).

Three canonical trace shapes, each stressing a different policy:

* **Zipf** — skewed popularity (web/KB access); LRU and LFU both do well,
  LFU slightly better at small caches.
* **Looping** — a sequential scan longer than the cache; LRU's worst case.
* **Shifting** — Zipf whose popular set moves over time; punishes LFU's
  stale frequency counts.
"""

from __future__ import annotations

from typing import List

import numpy as np


def zipf_trace(n_items: int, length: int, skew: float = 1.0,
               seed: int = 0) -> List[int]:
    """Zipf-distributed accesses over ``n_items`` keys."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, n_items + 1, dtype=float)
    weights = ranks ** (-skew)
    probabilities = weights / weights.sum()
    return rng.choice(n_items, size=length, p=probabilities).tolist()


def looping_trace(n_items: int, length: int) -> List[int]:
    """Sequential scan repeated until ``length`` accesses."""
    return [i % n_items for i in range(length)]


def shifting_trace(n_items: int, length: int, phases: int = 4,
                   skew: float = 1.0, seed: int = 0) -> List[int]:
    """Zipf trace whose popularity ranking rotates each phase."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, n_items + 1, dtype=float)
    weights = ranks ** (-skew)
    probabilities = weights / weights.sum()
    phase_length = max(1, -(-length // phases))  # ceil division
    trace: List[int] = []
    permutation = np.arange(n_items)
    for phase in range(phases):
        rng.shuffle(permutation)
        draws = rng.choice(n_items, size=phase_length, p=probabilities)
        trace.extend(int(permutation[d]) for d in draws)
    return trace[:length]


def zipf_with_scans_trace(n_items: int, length: int, skew: float = 1.0,
                          scan_every: int = 1000, scan_length: int = 300,
                          seed: int = 0) -> List[int]:
    """Zipf traffic interrupted by periodic one-shot scans of cold keys.

    The classic cache-pollution workload: scans (reports, backups, batch
    exports) touch long runs of never-reused keys.  Recency-only policies
    evict the hot set; 2Q's probation queue and LFU's frequency counts
    absorb the scan.  Cold keys are offset by ``n_items`` so they never
    collide with the hot set.
    """
    base = zipf_trace(n_items, length, skew=skew, seed=seed)
    trace: List[int] = []
    cold = n_items
    for i, key in enumerate(base):
        trace.append(key)
        if i > 0 and i % scan_every == 0:
            trace.extend(range(cold, cold + scan_length))
            cold += scan_length
    return trace


def mixed_read_write_trace(n_items: int, length: int,
                           write_fraction: float = 0.1, skew: float = 1.0,
                           seed: int = 0) -> List[tuple]:
    """(op, key) trace for the consistency experiments."""
    rng = np.random.default_rng(seed)
    keys = zipf_trace(n_items, length, skew=skew, seed=seed)
    ops = []
    for key in keys:
        op = "write" if rng.random() < write_fraction else "read"
        ops.append((op, key))
    return ops
