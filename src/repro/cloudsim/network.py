"""Simulated network fabric connecting clients, servers, and clouds.

The fabric is a graph of named endpoints joined by :class:`Link` objects
with latency and bandwidth.  Transfers advance the shared
:class:`~repro.cloudsim.clock.SimClock` by the modelled cost; multi-hop
routes are resolved with a shortest-latency path search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.errors import ConfigurationError, NotFoundError, ServiceUnavailableError
from .clock import SimClock


@dataclass(frozen=True)
class Link:
    """A bidirectional network link.

    latency_s: one-way propagation delay in seconds.
    bandwidth_bps: bytes per second the link can carry.
    """

    latency_s: float
    bandwidth_bps: float

    def transfer_time(self, nbytes: int) -> float:
        """One-way time to push ``nbytes`` across this link."""
        if nbytes < 0:
            raise ValueError("cannot transfer negative bytes")
        return self.latency_s + nbytes / self.bandwidth_bps


@dataclass
class TransferRecord:
    """Accounting entry for one completed transfer."""

    src: str
    dst: str
    nbytes: int
    started_at: float
    duration_s: float
    hops: Tuple[str, ...]


class NetworkFabric:
    """Latency/bandwidth model over a set of named endpoints."""

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        # Imported here, not at module level: only a fabric builds or
        # searches a graph, and ``import repro`` should not pay for it.
        import networkx as nx
        self.clock = clock if clock is not None else SimClock()
        self._graph = nx.Graph()
        self._partitioned: set = set()
        self.transfers: List[TransferRecord] = []
        # Optional chaos hook (a repro.cloudsim.faults.FaultPlan, assigned):
        # when set, transfers consult it for drops and latency spikes.
        self.fault_plan = None
        self.dropped_transfers = 0

    def add_endpoint(self, name: str) -> None:
        """Register an endpoint; idempotent."""
        self._graph.add_node(name)

    def connect(self, a: str, b: str, latency_s: float, bandwidth_bps: float) -> None:
        """Join two endpoints with a bidirectional link."""
        if latency_s < 0 or bandwidth_bps <= 0:
            raise ConfigurationError(
                f"invalid link {a}<->{b}: latency={latency_s}, bw={bandwidth_bps}"
            )
        self._graph.add_edge(a, b, link=Link(latency_s, bandwidth_bps))

    def partition(self, endpoint: str) -> None:
        """Disconnect an endpoint (models a client going offline)."""
        if endpoint not in self._graph:
            raise NotFoundError(f"unknown endpoint {endpoint!r}")
        self._partitioned.add(endpoint)

    def heal(self, endpoint: str) -> None:
        """Reconnect a previously partitioned endpoint."""
        self._partitioned.discard(endpoint)

    def is_reachable(self, src: str, dst: str) -> bool:
        """True if a path exists and neither side is partitioned."""
        if src in self._partitioned or dst in self._partitioned:
            return False
        if src not in self._graph or dst not in self._graph:
            return False
        import networkx as nx
        return nx.has_path(self._graph, src, dst)

    def route(self, src: str, dst: str) -> List[str]:
        """Lowest-latency path between two endpoints."""
        if not self.is_reachable(src, dst):
            raise NotFoundError(f"no route {src!r} -> {dst!r}")
        import networkx as nx
        return nx.shortest_path(
            self._graph, src, dst, weight=lambda u, v, d: d["link"].latency_s
        )

    def one_way_time(self, src: str, dst: str, nbytes: int) -> float:
        """Modelled time to move ``nbytes`` from ``src`` to ``dst``."""
        if src == dst:
            return 0.0
        path = self.route(src, dst)
        total = 0.0
        for u, v in zip(path, path[1:]):
            hop = self._graph.edges[u, v]["link"].transfer_time(nbytes)
            if self.fault_plan is not None:
                hop *= self.fault_plan.latency_multiplier(u, v)
            total += hop
        return total

    def round_trip_time(self, src: str, dst: str, request_bytes: int = 256,
                        response_bytes: int = 1024) -> float:
        """Request/response cost for a small RPC."""
        return (self.one_way_time(src, dst, request_bytes)
                + self.one_way_time(dst, src, response_bytes))

    def transfer(self, src: str, dst: str, nbytes: int) -> TransferRecord:
        """Perform a transfer: advances the clock and records accounting.

        Under an attached fault plan a hop may drop the payload: the time
        spent up to the failing hop is still charged, and the transfer
        raises :class:`ServiceUnavailableError` instead of completing.
        """
        started = self.clock.now
        if self.fault_plan is not None and src != dst:
            path = self.route(src, dst)
            duration = 0.0
            for u, v in zip(path, path[1:]):
                duration += (self._graph.edges[u, v]["link"]
                             .transfer_time(nbytes)
                             * self.fault_plan.latency_multiplier(u, v))
                if self.fault_plan.link_dropped(u, v):
                    self.clock.advance(duration)
                    self.dropped_transfers += 1
                    raise ServiceUnavailableError(
                        f"transfer {src}->{dst} dropped on hop {u}->{v}")
        else:
            duration = self.one_way_time(src, dst, nbytes)
        self.clock.advance(duration)
        record = TransferRecord(
            src=src, dst=dst, nbytes=nbytes, started_at=started,
            duration_s=duration, hops=tuple(self.route(src, dst)) if src != dst else (src,),
        )
        self.transfers.append(record)
        return record

    def total_bytes_moved(self) -> int:
        """Sum of payload bytes across all recorded transfers."""
        return sum(t.nbytes for t in self.transfers)


def standard_topology(clock: Optional[SimClock] = None) -> NetworkFabric:
    """The reference topology used by the latency experiments.

    client --WAN--> cloud-a (analytics) --inter-region--> cloud-b (PHI),
    with LAN links inside each cloud to their storage backends, mirroring
    Fig. 4 of the paper (client, analytics server, confidential-data server,
    external knowledge bases).
    """
    fabric = NetworkFabric(clock)
    for name in ("client", "cloud-a", "cloud-b", "cloud-a-storage",
                 "cloud-b-storage", "external-kb"):
        fabric.add_endpoint(name)
    mbps = 1e6 / 8
    fabric.connect("client", "cloud-a", latency_s=40e-3, bandwidth_bps=100 * mbps)
    fabric.connect("client", "cloud-b", latency_s=45e-3, bandwidth_bps=100 * mbps)
    fabric.connect("cloud-a", "cloud-b", latency_s=60e-3, bandwidth_bps=1000 * mbps)
    fabric.connect("cloud-a", "cloud-a-storage", latency_s=1e-3, bandwidth_bps=10000 * mbps)
    fabric.connect("cloud-b", "cloud-b-storage", latency_s=1e-3, bandwidth_bps=10000 * mbps)
    fabric.connect("cloud-a", "external-kb", latency_s=50e-3, bandwidth_bps=100 * mbps)
    return fabric
