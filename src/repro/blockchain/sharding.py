"""Write-path scale-out: tenant-sharded channels + pipelined endorsement.

One channel — one ordering service, one set of endorsing peers — is the
write-path bottleneck of the Fig. 6 network: every transaction, for every
patient, serializes through the same endorse -> order -> commit pipe.
The paper's platform targets "millions of users"; this module scales the
write path the way production Fabric deployments do, with *channels as
shards*:

* :class:`ShardRouter` — consistent hashing (seeded ring with virtual
  replicas) from a tenant/patient routing key to one of N shards, so
  adding shards moves only ~1/N of the keys;
* :class:`ShardedBlockchainNetwork` — N independent channels (each its
  own :class:`~repro.blockchain.network.OrderingService`, peers, ledger,
  world state) over one consortium MSP, one shared
  :class:`~repro.cloudsim.clock.SimClock` and monitoring service;
* **fork-join + pipelined ingestion** — shards endorse and commit
  concurrently, and within a shard the endorsement of round ``k+1``
  overlaps the ordering/commit of round ``k``.  The simulated clock is
  monotonic, so concurrency is modeled analytically: channels charge
  phase latencies to a ``latency_sink`` instead of the clock, the
  orchestrator solves the two-stage pipeline recurrence per shard, and
  the clock advances once by the fork-join makespan;
* :class:`CrossShardCoordinator` — two-phase commit for transactions
  spanning shards, with prepare/commit/abort records anchored as
  ordinary endorsed transactions on every participant's ledger (see
  :class:`~repro.blockchain.chaincode.CrossShardContract`), so atomicity
  survives crash windows and auditors can reconstruct every outcome.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.errors import EndorsementError, LedgerError, ServiceUnavailableError
from ..cloudsim.clock import SimClock
from ..cloudsim.monitoring import MonitoringService
from ..cloudsim.tracing import maybe_span
from .network import (BlockchainNetwork, EndorsementPolicy, build_channel,
                      consortium_msp)


# Virtual points per shard on the consistent-hash ring.
VIRTUAL_REPLICAS = 64


class ShardRouter:
    """Consistent-hash router from routing keys to shard indices.

    A seeded sha256 ring with :data:`VIRTUAL_REPLICAS` points per shard:
    ``shard_for`` walks clockwise from the key's point to the next shard
    point.  Deterministic for a given ``(n_shards, seed)``, and stable
    under resharding — growing from N to N+1 shards remaps only the keys
    that land in the new shard's arcs (~1/(N+1) of them).
    """

    def __init__(self, n_shards: int, seed: int = 0) -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.n_shards = n_shards
        self.seed = seed
        ring: List[Tuple[int, int]] = []
        for shard in range(n_shards):
            for replica in range(VIRTUAL_REPLICAS):
                ring.append((self._point(f"shard:{shard}:{replica}"), shard))
        ring.sort()
        self._points = [point for point, _ in ring]
        self._shards = [shard for _, shard in ring]

    def _point(self, label: str) -> int:
        digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def shard_for(self, routing_key: str) -> int:
        """The shard owning ``routing_key`` (tenant/patient identifier)."""
        index = bisect_right(self._points, self._point(f"key:{routing_key}"))
        return self._shards[index % len(self._shards)]

    def partition(self, routing_keys: Iterable[str]) -> Dict[int, List[str]]:
        """Group routing keys by owning shard (shards with keys only)."""
        groups: Dict[int, List[str]] = {}
        for key in routing_keys:
            groups.setdefault(self.shard_for(key), []).append(key)
        return groups


def pipeline_makespan(rounds: Sequence[Tuple[float, float]]) -> float:
    """Makespan of a two-stage (endorse | order+commit) pipeline.

    ``rounds`` is one ``(endorse_s, commit_s)`` pair per ingestion round.
    Endorsement of round ``k+1`` may start as soon as endorsement of
    round ``k`` finished (the endorsing peers are free); its
    ordering/commit must additionally wait for round ``k``'s commit (the
    orderer and committing peers are busy):

        endorse_done[k] = endorse_done[k-1] + E_k
        commit_done[k]  = max(endorse_done[k], commit_done[k-1]) + C_k

    The makespan is ``commit_done[last]``; with one round it degenerates
    to the serial sum.
    """
    endorse_done = 0.0
    commit_done = 0.0
    for endorse_s, commit_s in rounds:
        endorse_done += endorse_s
        commit_done = max(endorse_done, commit_done) + commit_s
    return commit_done


@dataclass(frozen=True)
class PipelineReport:
    """Per-shard cost accounting for one pipelined ingest."""

    rounds: int
    endorse_s: float
    commit_s: float
    serial_s: float
    makespan_s: float

    @property
    def overlap_s(self) -> float:
        """Simulated time hidden by pipelining (serial minus makespan)."""
        return self.serial_s - self.makespan_s

    @property
    def overlap_fraction(self) -> float:
        return self.overlap_s / self.serial_s if self.serial_s > 0 else 0.0


@dataclass(frozen=True)
class ShardedIngestReport:
    """Outcome of one fork-join ingest across shards."""

    transactions: int
    started_s: float
    finished_s: float
    serial_s: float
    shard_reports: Dict[str, PipelineReport]

    @property
    def elapsed_s(self) -> float:
        return self.finished_s - self.started_s

    @property
    def speedup(self) -> float:
        """Serial cost over fork-join makespan (sharding x pipelining)."""
        return self.serial_s / self.elapsed_s if self.elapsed_s > 0 else 1.0


class ShardedBlockchainNetwork:
    """N shard channels behind a consistent-hash router, one shared clock.

    Every shard's peers sign with one consortium MSP, enrolled once from
    ``seed``; each transaction names its shard (see ``Transaction``).

    Single-shard traffic routes by key through :meth:`submit` /
    :meth:`query`; bulk ingestion goes through :meth:`ingest`, which
    forks the batch across shards and joins the clock on the slowest
    shard's pipelined makespan.  Cross-shard transactions go through a
    :class:`CrossShardCoordinator` built over this network.
    """

    def __init__(self, n_shards: int, seed: int = 0, batch_size: int = 10,
                 policy: Optional[EndorsementPolicy] = None,
                 clock: Optional[SimClock] = None,
                 monitoring: Optional[MonitoringService] = None,
                 degraded_policy: Optional[EndorsementPolicy] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.monitoring = (monitoring if monitoring is not None
                           else MonitoringService(self.clock))
        self.router = ShardRouter(n_shards, seed=seed)
        self.msp = consortium_msp(seed)
        self.channels: List[BlockchainNetwork] = [
            build_channel(self.msp, self.shard_name(shard),
                          batch_size=batch_size, policy=policy,
                          clock=self.clock, monitoring=self.monitoring,
                          degraded_policy=degraded_policy)
            for shard in range(n_shards)
        ]
        self._tracer = None

    @staticmethod
    def shard_name(shard: int) -> str:
        return f"shard-{shard:02d}"

    @property
    def n_shards(self) -> int:
        return len(self.channels)

    @property
    def tracer(self):
        return self._tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self._tracer = tracer
        for channel in self.channels:
            channel.tracer = tracer

    def channel_for(self, routing_key: str) -> BlockchainNetwork:
        return self.channels[self.router.shard_for(routing_key)]

    def submit(self, submitter: str, routing_key: str, chaincode: str,
               method: str, **args: Any):
        """Route one transaction to its owning shard (endorse + order)."""
        shard = self.router.shard_for(routing_key)
        result = self.channels[shard].submit(
            submitter, chaincode, method, **args)
        self._update_pending_gauge(shard)
        return result

    def _update_pending_gauge(self, shard: int) -> None:
        """Keep ``blockchain.<shard>.pending`` equal to the orderer queue.

        Every path that changes a shard's pending count goes through
        here, so the gauge cannot go stale: after any drain it reads 0,
        and after an ingest aborted mid-round it reads the real residue
        instead of the last mid-round snapshot.
        """
        self.monitoring.metrics.set_gauge(
            f"blockchain.{self.shard_name(shard)}.pending",
            self.channels[shard].orderer.pending_count)

    def query(self, routing_key: str, chaincode: str, method: str,
              **args: Any) -> Any:
        """Read from the shard owning ``routing_key``."""
        return self.channel_for(routing_key).query(chaincode, method, **args)

    def ingest(self, submitter: str,
               keyed_requests: Iterable[
                   Tuple[str, Tuple[str, str, Dict[str, Any]]]],
               round_size: Optional[int] = None,
               pipelined: bool = True) -> ShardedIngestReport:
        """Fork-join bulk ingestion across shards with pipelined rounds.

        ``keyed_requests`` is a sequence of ``(routing_key, (chaincode,
        method, args))`` proposals.  Each shard's slice is split into
        rounds of ``round_size`` transactions; a round is one
        ``submit_batch`` (endorse) plus one ``flush`` (order + commit).
        Phase latencies are captured through each channel's
        ``latency_sink``, the per-shard makespan comes from
        :func:`pipeline_makespan` (or the serial sum when ``pipelined``
        is off), and the shared clock advances once by the slowest
        shard's makespan — shards run concurrently, rounds overlap
        within a shard.  A ``round_size`` below 1 raises
        :class:`LedgerError` before anything is submitted.
        """
        if round_size is not None and round_size < 1:
            raise LedgerError(f"round size must be >= 1, got {round_size}")
        keyed = list(keyed_requests)
        start = self.clock.now
        assignment: Dict[int, List[Tuple[str, str, Dict[str, Any]]]] = {}
        for routing_key, request in keyed:
            shard = self.router.shard_for(routing_key)
            assignment.setdefault(shard, []).append(request)
        shard_reports: Dict[str, PipelineReport] = {}
        makespans: List[float] = []
        with maybe_span(self.tracer, "blockchain.sharded_ingest",
                        "blockchain", shards=len(assignment),
                        transactions=len(keyed)) as span:
            for shard in sorted(assignment):
                channel = self.channels[shard]
                name = self.shard_name(shard)
                requests = assignment[shard]
                size = round_size if round_size else len(requests)
                costs = {"endorse": 0.0, "order": 0.0, "commit": 0.0}

                def sink(phase: str, seconds: float,
                         costs: Dict[str, float] = costs) -> None:
                    costs[phase] += seconds

                rounds: List[Tuple[float, float]] = []
                channel.latency_sink = sink
                try:
                    for offset in range(0, len(requests), size):
                        costs["endorse"] = costs["order"] = 0.0
                        costs["commit"] = 0.0
                        channel.submit_batch(
                            submitter, requests[offset:offset + size])
                        self._update_pending_gauge(shard)
                        channel.flush()
                        rounds.append((costs["endorse"],
                                       costs["order"] + costs["commit"]))
                finally:
                    channel.latency_sink = None
                    # In the finally: an ingest aborted mid-round (e.g.
                    # endorsement failure under a fault plan) must not
                    # leave the last mid-round snapshot on the gauge.
                    self._update_pending_gauge(shard)
                serial = sum(e + c for e, c in rounds)
                makespan = (pipeline_makespan(rounds) if pipelined
                            else serial)
                shard_reports[name] = PipelineReport(
                    rounds=len(rounds),
                    endorse_s=sum(e for e, _ in rounds),
                    commit_s=sum(c for _, c in rounds),
                    serial_s=serial,
                    makespan_s=makespan)
                makespans.append(makespan)
                plane = self.monitoring.healthplane
                if plane is not None:
                    plane.observe_shard_commit(
                        shard=name, transactions=len(requests),
                        rounds=len(rounds), makespan_s=makespan)
            total = max(makespans) if makespans else 0.0
            self.clock.advance_to(start + total)
            span.set_attribute("makespan_s", total)
            span.set_attribute(
                "serial_s", sum(r.serial_s for r in shard_reports.values()))
        return ShardedIngestReport(
            transactions=len(keyed),
            started_s=start,
            finished_s=self.clock.now,
            serial_s=sum(r.serial_s for r in shard_reports.values()),
            shard_reports=shard_reports)

    def flush_all(self) -> int:
        """Serially flush every channel; returns blocks committed.

        Refreshes every shard's pending gauge: a drain through this
        path (e.g. after single-transaction :meth:`submit` traffic)
        must leave ``blockchain.<shard>.pending`` at 0, not at whatever
        the last bulk ingest happened to record.
        """
        committed = 0
        for shard, channel in enumerate(self.channels):
            committed += len(channel.flush())
            self._update_pending_gauge(shard)
        return committed

    def peers_converged(self) -> bool:
        """Every shard's peers hold identical state and chain tips."""
        return all(channel.peers_converged() for channel in self.channels)


@dataclass
class CrossShardTxn:
    """Coordinator-side record of one cross-shard transaction."""

    txn_id: str
    submitter: str
    participants: Tuple[int, ...]          # shard indices
    state: str = "preparing"               # -> committing/aborting
    prepared: set = field(default_factory=set)   # -> committed/aborted
    done: set = field(default_factory=set)

    def participant_names(self) -> List[str]:
        return [ShardedBlockchainNetwork.shard_name(s)
                for s in self.participants]


class CrossShardCoordinator:
    """Two-phase commit across shard channels, crash-window tolerant.

    Phase records are ordinary endorsed transactions on each
    participant's ledger (:class:`CrossShardContract`), so the protocol
    inherits the channel's endorsement policy, audit trail, and tamper
    evidence.  The coordinator keeps an in-memory decision log: once the
    prepare round decides (commit iff *every* participant prepared),
    the decision is immutable, and :meth:`recover` re-drives the decided
    phase onto participants that were unreachable — ``commit``/``abort``
    records are idempotent, so retries are safe.
    """

    def __init__(self, network: ShardedBlockchainNetwork) -> None:
        self.network = network
        self._counter = 0
        self._txns: Dict[str, CrossShardTxn] = {}

    def submit(self, submitter: str,
               operations: Iterable[
                   Tuple[str, str, str, Dict[str, Any]]]) -> CrossShardTxn:
        """Run 2PC over ``(routing_key, chaincode, method, args)`` ops.

        Operations are grouped by owning shard; each participating shard
        gets one ``prepare`` carrying its slice, then the decision
        (commit iff all prepared) is written to every participant —
        including an ``abort`` tombstone on shards whose prepare never
        landed, so any auditor sees the outcome on every ledger.
        Participants unreachable during the decision round stay pending
        until :meth:`recover`.
        """
        ops = list(operations)
        if not ops:
            raise LedgerError("cross-shard transaction needs operations")
        self._counter += 1
        txn_id = f"xtx-{self._counter:06d}"
        by_shard: Dict[int, List[Dict[str, Any]]] = {}
        for routing_key, chaincode, method, args in ops:
            shard = self.network.router.shard_for(routing_key)
            by_shard.setdefault(shard, []).append(
                {"chaincode": chaincode, "method": method,
                 "args": dict(args)})
        txn = CrossShardTxn(txn_id, submitter, tuple(sorted(by_shard)))
        self._txns[txn_id] = txn
        names = txn.participant_names()
        for shard in txn.participants:
            try:
                self.network.channels[shard].invoke(
                    submitter, "xshard", "prepare", txn_id=txn_id,
                    shard=self.network.shard_name(shard),
                    participants=names, requests=by_shard[shard])
                txn.prepared.add(shard)
            except (EndorsementError, ServiceUnavailableError):
                pass
        txn.state = ("committing"
                     if txn.prepared == set(txn.participants)
                     else "aborting")
        self.network.monitoring.log(
            "blockchain",
            f"xshard {txn_id}: decision "
            f"{'commit' if txn.state == 'committing' else 'abort'} "
            f"({len(txn.prepared)}/{len(txn.participants)} prepared)",
            level="INFO" if txn.state == "committing" else "WARN",
            txn=txn_id)
        self._drive(txn)
        return txn

    def _drive(self, txn: CrossShardTxn) -> None:
        """Write the decided phase to every participant not yet done."""
        decision = ("commit" if txn.state in ("committing", "committed")
                    else "abort")
        for shard in txn.participants:
            if shard in txn.done:
                continue
            try:
                self.network.channels[shard].invoke(
                    txn.submitter, "xshard", decision, txn_id=txn.txn_id)
                txn.done.add(shard)
            except (EndorsementError, ServiceUnavailableError):
                pass
        if txn.done == set(txn.participants):
            txn.state = ("committed" if decision == "commit" else "aborted")
            self.network.monitoring.metrics.incr(
                f"blockchain.xshard.{txn.state}")

    def recover(self) -> int:
        """Re-drive every undecided-on-ledger transaction; returns the
        number finalized.  Safe to call repeatedly (phases are
        idempotent); the classic post-crash-window step."""
        finalized = 0
        for txn in self._txns.values():
            if txn.state in ("committing", "aborting"):
                self._drive(txn)
                if txn.state in ("committed", "aborted"):
                    finalized += 1
        return finalized

    def outstanding(self) -> List[str]:
        """Transactions whose decision has not reached every ledger."""
        return [txn_id for txn_id, txn in self._txns.items()
                if txn.state in ("committing", "aborting")]

    def status(self, txn_id: str) -> CrossShardTxn:
        try:
            return self._txns[txn_id]
        except KeyError:
            raise LedgerError(f"unknown cross-shard txn {txn_id!r}") from None

    def ledger_status(self, txn_id: str) -> Dict[str, Optional[str]]:
        """Each participant ledger's on-chain phase for the transaction —
        the auditor's view of 2PC atomicity."""
        txn = self.status(txn_id)
        return {self.network.shard_name(shard):
                self.network.channels[shard].query(
                    "xshard", "status", txn_id=txn_id)
                for shard in txn.participants}
