"""Arithmetic and bookkeeping shared by every workload.

* percentiles by nearest rank, and the tail rule: report the highest of
  p99, p95 and p90 that still leaves at least ten samples beyond it;
* :class:`Recorder`, which collects per-op wall and simulated latencies
  and the wall time spent inside the program's calls;
* the sim digest: a hash of simulated outputs taken after a fixed number
  of ops, recorded per (source tree, workload, seed) so that two runs of
  the same code that disagree are caught.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

TAIL_PERCENTILES = (99.0, 95.0, 90.0)
MIN_SAMPLES_BEYOND = 10
WINDOW_S = 0.5        # busy seconds per throughput window


def percentile(values: Sequence[float], p: float,
               weights: Optional[Sequence[int]] = None) -> float:
    """Nearest-rank percentile; ``weights[i]`` ops saw ``values[i]``."""
    if not values:
        raise ValueError("percentile of no samples")
    if weights is None:
        weights = [1] * len(values)
    rank = max(1, math.ceil(p / 100.0 * sum(weights)))
    seen = 0
    for value, weight in sorted(zip(values, weights)):
        seen += weight
        if seen >= rank:
            return value
    raise ValueError("weights must be positive")


def samples_beyond(values: Sequence[float], p: float,
                   weights: Optional[Sequence[int]] = None) -> int:
    """Samples (timed calls, not weighted ops) strictly above the percentile.

    Ops that share one timed call share its latency, so they are one
    sample of the tail, not many.
    """
    cut = percentile(values, p, weights)
    return sum(1 for value in values if value > cut)


def tail_percentile(values: Sequence[float],
                    weights: Optional[Sequence[int]] = None
                    ) -> Optional[float]:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if samples_beyond(values, p, weights) >= MIN_SAMPLES_BEYOND:
            return p
    return None


class Recorder:
    """Per-op samples of one measured phase.

    ``busy_s`` sums the wall time spent inside timed calls into the
    program; the benchmark's own bookkeeping between calls (building
    request envelopes, checking answers) is excluded from it.  Every
    :data:`WINDOW_S` of busy time closes a throughput window, so a few
    seconds of interference from other processes on the machine move
    only the windows they hit, not the median rate.
    """

    def __init__(self) -> None:
        self.wall_ms: List[float] = []    # one entry per timed call
        self.sim_ms: List[float] = []
        self.weights: List[int] = []      # ops each timed call stands for
        self.busy_s = 0.0
        self.ops = 0          # successful ops
        self.attempted = 0
        self.failed = 0
        self.prefix_busy_s: Optional[float] = None
        self.prefix_rss_mb: Optional[float] = None
        self.window_rates: List[float] = []
        self._window_start = (0, 0.0)   # (ops, busy_s) when it opened

    def mark_prefix(self) -> None:
        """Note busy time and peak memory at the end of the fixed op
        prefix that every run of a seed shares: traced and untraced runs
        compare busy time over it, and memory read there does not grow
        with how many ops a faster build fits into the run."""
        self.prefix_busy_s = self.busy_s
        self.prefix_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def sample(self, wall_s: float, sim_s: float, count: int = 1,
               ok: Optional[int] = None) -> None:
        """``count`` ops that each saw these latencies; ``ok`` of them
        (default all) succeeded."""
        ok = count if ok is None else ok
        self.busy_s += wall_s
        self.attempted += count
        self.ops += ok
        self.failed += count - ok
        self.wall_ms.append(wall_s * 1e3)
        self.sim_ms.append(sim_s * 1e3)
        self.weights.append(count)
        ops, busy = self._window_start
        if self.busy_s - busy >= WINDOW_S:
            self.window_rates.append((self.ops - ops) / (self.busy_s - busy))
            self._window_start = (self.ops, self.busy_s)


def end_to_end(recorder: Recorder, tail_p: float,
               setup_s: float) -> Dict[str, float]:
    """The end-to-end metrics of one run (values only)."""
    wall, weights = recorder.wall_ms, recorder.weights
    return {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(recorder.window_rates),
        "op_p50_ms": percentile(wall, 50.0, weights),
        "op_tail_ms": percentile(wall, tail_p, weights),
        "ok_share": (recorder.attempted - recorder.failed)
        / recorder.attempted,
        "peak_rss_mb": recorder.prefix_rss_mb,
    }


UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
         "op_tail_ms": "ms", "ok_share": "ratio",
         "peak_rss_mb": "MB"}


# -- sim digest ----------------------------------------------------------------

def sim_digest(fields: Dict) -> str:
    """Stable hash of simulated outputs (floats hash by their repr)."""
    blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def tree_hash(root: Path, subdirs: Iterable[str]) -> str:
    """Hash of every ``.py`` file under ``subdirs``: names one commit."""
    digest = hashlib.sha256()
    for sub in subdirs:
        for path in sorted((root / sub).rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def check_digest(path: Path, key: str, digest: str) -> Optional[str]:
    """Record ``digest`` under ``key`` in the JSON map kept at ``path``
    between runs; return the digest recorded earlier if it differs."""
    try:
        recorded = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        recorded = {}
    earlier = recorded.setdefault(key, digest)
    if earlier != digest:
        return earlier
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(recorded, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return None
