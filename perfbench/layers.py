"""Per-layer wall-time attribution from the benchmark's own wrappers.

Each layer is named after the module it covers and lists the public
functions timed for it.  :class:`LayerTracer` replaces those functions
with timing wrappers: a method is patched on its class; a module-level
function is patched in its defining module and in every ``repro`` module
that imported it by name.  Each call leaves one record ``(function,
start_ns, end_ns, parent)`` in flat arrays kept in memory.

A layer's *self* time is the time inside its wrapped calls minus the time
spent in wrapped calls nested inside them (of any layer), so the self
times of all records telescope to the total time of the outermost ones
and never count an interval twice.  ``unattributed`` is the rest of the
measured wall.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

# layer -> [(module, qualified function name)]
LAYERS: Dict[str, List[Tuple[str, str]]] = {
    "core.api": [("repro.core.api", "ApiGateway.dispatch")],
    "rbac": [("repro.rbac.federation",
              "FederatedIdentityService.authenticate"),
             ("repro.rbac.engine", "RbacEngine.require")],
    "cloudsim.monitoring": [
        ("repro.cloudsim.monitoring", "MonitoringService.log"),
        ("repro.cloudsim.monitoring", "MetricsRegistry.incr"),
        ("repro.cloudsim.monitoring", "MetricsRegistry.observe"),
        ("repro.cloudsim.monitoring", "MetricsRegistry.set_gauge"),
        ("repro.cloudsim.healthplane.plane", "HealthPlane.observe_request")],
    "caching": [("repro.caching.hierarchy", "CacheHierarchy.get"),
                ("repro.caching.hierarchy", "CacheHierarchy.get_many")],
    "knowledge.remote": [
        ("repro.knowledge.remote", "RemoteKnowledgeBase.call"),
        ("repro.knowledge.remote", "RemoteKnowledgeBase.call_batch")],
    "core.resilience": [("repro.core.resilience", "ResilientExecutor.call")],
    "crypto.rsa": [("repro.crypto.rsa", "generate_keypair"),
                   ("repro.crypto.rsa", "RsaPrivateKey.private_op"),
                   ("repro.crypto.rsa", "rsa_verify"),
                   ("repro.crypto.rsa", "rsa_verify_batch"),
                   ("repro.crypto.rsa", "hybrid_decrypt")],
    "crypto.symmetric": [
        ("repro.crypto.symmetric", "SharedKeyCipher.encrypt"),
        ("repro.crypto.symmetric", "SharedKeyCipher.decrypt")],
    "ingestion": [
        ("repro.ingestion.pipeline", "IngestionService.process_pending"),
        ("repro.ingestion.datalake", "DataLake.store"),
        ("repro.ingestion.pipeline", "ShardedIngestionFrontend.record_event"),
        ("repro.ingestion.pipeline", "ShardedIngestionFrontend.flush")],
    "fhir_privacy": [
        ("repro.fhir.validation", "BundleValidator.validate"),
        ("repro.ingestion.malware", "MalwareScanner.scan"),
        ("repro.privacy.deidentify", "Deidentifier.deidentify_bundle"),
        ("repro.privacy.verification",
         "AnonymizationVerificationService.assess_bundle")],
    "blockchain": [
        ("repro.blockchain.network", "BlockchainNetwork.submit_batch"),
        ("repro.blockchain.network", "BlockchainNetwork.flush"),
        ("repro.blockchain.network", "Peer.commit_block"),
        ("repro.blockchain.sharding", "ShardedBlockchainNetwork.ingest")],
    "streaming": [("repro.streaming.pipeline", "StreamingPipeline.submit"),
                  ("repro.streaming.queues", "StreamQueue.offer"),
                  ("repro.streaming.queues", "StreamQueue.pop"),
                  ("repro.streaming.subscriptions",
                   "SubscriptionRegistry.push")],
    "analytics": [("repro.streaming.incremental", "StreamingAnalytics.apply")],
    "compute": [("repro.compute.scheduler", "Scheduler.run")],
}

# Payload bytes a call handles, for the layers that count bytes.
AMOUNTS: Dict[str, Callable] = {
    "SharedKeyCipher.encrypt": lambda args, kwargs: len(args[1]),
    "SharedKeyCipher.decrypt": lambda args, kwargs: len(args[1].body),
}


class LayerTracer:
    """Timing wrappers around every function in :data:`LAYERS`."""

    def __init__(self, layers: Dict[str, List[Tuple[str, str]]] = LAYERS,
                 clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.layers = layers
        self.functions: List[Tuple[str, str]] = [
            (layer, name) for layer, targets in layers.items()
            for _, name in targets]
        self.clock = clock
        self.func = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.amount = array("q")
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------------

    def wrap(self, index: int, original: Callable,
             amount: Optional[Callable] = None) -> Callable:
        """A wrapper that records one call of function ``index``."""
        func, start, end, parent = (self.func, self.start, self.end,
                                    self.parent)
        amounts, stack, clock = self.amount, self._stack, self.clock

        @functools.wraps(original)
        def timed(*args, **kwargs):
            record = len(start)
            func.append(index)
            parent.append(stack[-1] if stack else -1)
            amounts.append(amount(args, kwargs) if amount else 0)
            end.append(0)
            stack.append(record)
            start.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                end[record] = clock()
                stack.pop()
        return timed

    def install(self) -> None:
        """Patch every listed function (undo with :meth:`uninstall`)."""
        index = 0
        for targets in self.layers.values():
            for module_name, name in targets:
                self._patch(importlib.import_module(module_name), name,
                            index)
                index += 1

    def _patch(self, module, name: str, index: int) -> None:
        amount = AMOUNTS.get(name)
        if "." in name:
            owner_name, attr = name.split(".")
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            self._set(owner, attr, self.wrap(index, original, amount))
            return
        original = getattr(module, name)
        wrapper = self.wrap(index, original, amount)
        for loaded in list(sys.modules.values()):
            if (getattr(loaded, "__name__", "").startswith("repro")
                    and getattr(loaded, name, None) is original):
                self._set(loaded, name, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -----------------------------------------------------------------

    @property
    def records(self) -> int:
        return len(self.start)

    def arrays(self, first: int = 0, last: Optional[int] = None):
        """Numpy views of records ``[first, last)``, parents re-based."""
        last = self.records if last is None else last
        func = np.frombuffer(self.func, dtype=np.int32)[first:last]
        start = np.frombuffer(self.start, dtype=np.int64)[first:last]
        end = np.frombuffer(self.end, dtype=np.int64)[first:last]
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:last] - first
        amount = np.frombuffer(self.amount, dtype=np.int64)[first:last]
        return func, start, end, parent, amount

    def summarize(self, first: int, last: int, wall_ns: int
                  ) -> Dict[str, Dict[str, float]]:
        """Per-layer self ns, calls and amounts over records [first, last).

        The window must hold whole call trees: every record's parent lies
        inside it (true when it spans whole ops of the benchmark loop).
        """
        func, start, end, parent, amount = self.arrays(first, last)
        own = self_times(start, end, parent)
        layer_names = list(self.layers)
        layer_of = np.array([layer_names.index(layer)
                             for layer, _ in self.functions], dtype=np.int64)
        by_layer = layer_of[func] if len(func) else np.zeros(0, np.int64)
        out: Dict[str, Dict[str, float]] = {}
        for i, layer in enumerate(layer_names):
            mask = by_layer == i
            out[layer] = {"self_ns": float(own[mask].sum()),
                          "calls": float(mask.sum()),
                          "amount": float(amount[mask].sum())}
        attributed = sum(v["self_ns"] for v in out.values())
        out["unattributed"] = {"self_ns": float(wall_ns - attributed),
                               "calls": 0.0, "amount": 0.0}
        return out

    def calls_of(self, name: str, first: int = 0,
                 last: Optional[int] = None) -> Tuple[int, int]:
        """(calls, total ns) of one function over records [first, last)."""
        index = [n for _, n in self.functions].index(name)
        func, start, end, _, _ = self.arrays(first, last)
        mask = func == index
        return int(mask.sum()), int((end[mask] - start[mask]).sum())

    def dump(self, path, first: int = 0) -> None:
        """Write the records (from ``first`` on) as one ``.npz`` file."""
        func, start, end, parent, _ = self.arrays(first)
        np.savez_compressed(path, func=func, start=start, end=end,
                            parent=parent,
                            functions=np.array(
                                [f"{layer}:{name}"
                                 for layer, name in self.functions]))


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Duration of each record minus the durations of its direct children."""
    duration = (end - start).astype(np.int64)
    children = np.zeros(len(duration), dtype=np.int64)
    nested = parent >= 0
    np.add.at(children, parent[nested], duration[nested])
    return duration - children


def per_layer_metrics(summary: Dict[str, Dict[str, float]], ops: int,
                      wall_ns: int) -> Dict[str, float]:
    """``<layer>.self_ms_per_op``, ``.calls_per_op`` and ``.share_pct``."""
    metrics: Dict[str, float] = {}
    for layer, row in summary.items():
        metrics[f"{layer}.self_ms_per_op"] = row["self_ns"] / 1e6 / ops
        metrics[f"{layer}.share_pct"] = 100.0 * row["self_ns"] / wall_ns
        if layer != "unattributed":
            metrics[f"{layer}.calls_per_op"] = row["calls"] / ops
    return metrics


# Counts read from the library's public counters (or from the wrappers'
# call counts where the library keeps none): name -> (unit, better).
COUNTS: Dict[str, Tuple[str, str]] = {
    "cloudsim.monitoring.log_entries_per_op": ("count", "lower"),
    "caching.hit_ratio.client": ("ratio", "higher"),
    "caching.hit_ratio.server": ("ratio", "higher"),
    "caching.origin_fetches_per_op": ("count", "lower"),
    "knowledge.remote.remote_calls_per_op": ("count", "lower"),
    "core.resilience.attempts_per_call": ("count", "lower"),
    "crypto.rsa.private_ops_per_op": ("count", "lower"),
    "crypto.rsa.verify_calls_per_op": ("count", "lower"),
    "crypto.symmetric.bytes_per_op": ("B", "lower"),
    "ingestion.provenance_events_per_op": ("count", "lower"),
    "blockchain.tx_per_op": ("count", "lower"),
    "blockchain.blocks_per_op": ("count", "lower"),
    "streaming.shed": ("count", "lower"),
    "streaming.max_queue_depth": ("count", "lower"),
    "streaming.commit_retries": ("count", "lower"),
    "analytics.pair_evals_per_op": ("count", "lower"),
    "compute.tasks_per_refresh": ("count", "lower"),
    "setup.keypairs": ("count", "lower"),
    "setup.keygen_s": ("s", "lower"),
    "setup.inputs_s": ("s", "lower"),
    "tracing.overhead_pct": ("%", "lower"),
    "tracing.wall_ms_per_op": ("ms", "lower"),
}


def per_layer_spec(layers: Sequence[str] = tuple(LAYERS)
                   ) -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric a traced run reports: name -> (unit, better)."""
    spec: Dict[str, Tuple[str, str]] = {}
    for layer in list(layers) + ["unattributed"]:
        spec[f"{layer}.self_ms_per_op"] = ("ms", "lower")
        spec[f"{layer}.share_pct"] = ("%", "lower")
        if layer != "unattributed":
            spec[f"{layer}.calls_per_op"] = ("count", "lower")
    spec.update(COUNTS)
    return spec
