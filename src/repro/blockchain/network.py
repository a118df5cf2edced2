"""Permissioned blockchain network: endorse -> order -> validate -> commit.

Models the Hyperledger-style flow the paper names (Section IV-A: "The
blockchain network we are talking of is a permissioned blockchain system
such as Hyperledger"):

1. a client submits a proposal;
2. **endorsing peers**, asked one at a time until the policy holds,
   simulate the chaincode and sign the result;
3. the proposal must satisfy the channel's **endorsement policy**
   (at least N signatures from distinct organizations);
4. the **ordering service** batches endorsed transactions into blocks;
5. every peer validates the block (endorsement re-check) and **commits**
   it to its ledger and world state.

"The different parties using the consensus protocol agree on the data to
send and receive, which then leads to commitment of the ledger record to
the global ledger."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..core.errors import EndorsementError, LedgerError, ServiceUnavailableError
from ..cloudsim.clock import SimClock
from ..cloudsim.monitoring import MonitoringService
from ..cloudsim.tracing import maybe_span
from .chaincode import (
    Chaincode,
    ConsentContract,
    CopyOnWriteState,
    CrossShardContract,
    MalwareContract,
    PrivacyContract,
    ProvenanceContract,
    StudyContract,
    WorldState,
)
from .identity import MembershipServiceProvider
from .ledger import Block, Ledger, Transaction, build_block


@dataclass(frozen=True)
class EndorsementPolicy:
    """Minimum endorsements and distinct organizations required."""

    min_endorsements: int = 2
    min_organizations: int = 2

    def __post_init__(self) -> None:
        if self.min_endorsements < 1 or self.min_organizations < 1:
            raise LedgerError("an endorsement policy must require at least "
                              "one endorsement from one organization")

    def satisfied_by(self, endorsing_orgs: List[str]) -> bool:
        return (len(endorsing_orgs) >= self.min_endorsements
                and len(set(endorsing_orgs)) >= self.min_organizations)


class Peer:
    """A committing (and possibly endorsing) peer with its own ledger copy.

    It signs as ``member_id``, its organization's consortium identity;
    ``peer_id`` names the node (``<channel>.<member_id>`` on a shard)
    for fault plans, breakers and per-peer metrics.  It endorses,
    validates and applies only transactions naming its ``channel``."""

    def __init__(self, member_id: str, organization: str,
                 msp: MembershipServiceProvider,
                 chaincodes: Dict[str, Chaincode],
                 channel: Optional[str] = None) -> None:
        self.member_id = member_id
        self.channel = channel
        self.peer_id = f"{channel}.{member_id}" if channel else member_id
        self.organization = organization
        self._msp = msp
        self._chaincodes = dict(chaincodes)
        self.ledger = Ledger()
        self.state = WorldState()
        # Optional chaos hook: a FaultPlan crash window makes this peer
        # refuse to endorse (it is "down") until the window passes.
        self.fault_plan = None

    def simulate(self, tx: Transaction) -> Any:
        """Endorsement-time simulation: run chaincode against current state.

        Simulation runs against a scratch copy of the relevant values in a
        real fabric; our contracts are deterministic and re-executed at
        commit, so running read-only methods directly is equivalent.
        """
        chaincode = self._chaincode(tx.chaincode)
        scratch = CopyOnWriteState(self.state)
        return chaincode.invoke(scratch, tx.method, tx.args)

    def endorse(self, tx: Transaction) -> Tuple[str, bytes]:
        """Simulate then sign the transaction payload."""
        if self.fault_plan is not None and self.fault_plan.node_down(
                self.peer_id):
            raise ServiceUnavailableError(f"peer {self.peer_id} is down")
        if tx.channel != self.channel:
            raise LedgerError(f"peer {self.peer_id} does not endorse "
                              f"for channel {tx.channel!r}")
        self.simulate(tx)
        signature = self._msp.sign_as(self.member_id, tx.payload())
        return (self.member_id, signature)

    def _policy_admits(self, tx: Transaction,
                       policy: EndorsementPolicy) -> bool:
        """Whether ``tx`` names this peer's channel and its (verified)
        endorsements satisfy ``policy``.

        Each member counts once, and only members enrolled with the
        ``peer`` role count: a signature repeated on the transaction, or
        one from a client or an auditor, adds nothing toward the policy.
        """
        if tx.channel != self.channel:
            return False
        orgs: Dict[str, str] = {}  # member id -> organization
        for member_id, _ in tx.endorsements:
            member = self._msp.enrolment(member_id)
            if "peer" in member.roles:
                orgs[member_id] = member.organization
        return policy.satisfied_by(list(orgs.values()))

    def _verify_block_endorsements(self, block: Block,
                                   verified: Optional[dict] = None
                                   ) -> List[bool]:
        """Per-transaction signature validity via batch RSA screening.

        Endorsement signatures are grouped by endorsing member (one
        public key per group) and each group is verified with one
        aggregate screening exponentiation across the whole block; a
        failing group falls back to per-signature verification inside
        ``MembershipServiceProvider.verify_batch``, so verdicts match the
        per-signature path exactly.  ``verified`` is an optional memo
        owned by the caller, keyed by this peer's MSP, a group's member
        and its exact ``(payload, signature)`` pairs: a verdict depends
        on nothing else, so peers committing one block share it.
        Returns, per transaction, whether *every* endorsement on it
        verified.
        """
        groups: Dict[str, List[Tuple[int, bytes, bytes]]] = {}
        for index, tx in enumerate(block.transactions):
            payload = tx.payload()
            for member_id, signature in tx.endorsements:
                groups.setdefault(member_id, []).append(
                    (index, payload, signature))
        valid = [True] * len(block.transactions)
        for member_id, entries in groups.items():
            pairs = tuple((payload, signature)
                          for _, payload, signature in entries)
            key = (self._msp, member_id, pairs)
            verdicts = None if verified is None else verified.get(key)
            if verdicts is None:
                verdicts = self._msp.verify_batch(member_id, list(pairs))
                if verified is not None:
                    verified[key] = verdicts
            for (index, _, _), ok in zip(entries, verdicts):
                if not ok:
                    valid[index] = False
        return valid

    def commit_block(self, block: Block, policy: EndorsementPolicy,
                     degraded_tx_ids: frozenset = frozenset(),
                     degraded_policy: Optional[EndorsementPolicy] = None,
                     verified: Optional[dict] = None) -> int:
        """Append a block, then apply its valid txns to world state.

        The ledger checks the block's height, link, Merkle root and hash
        first; a block it refuses raises :class:`LedgerError` and changes
        nothing.  Transactions the channel accepted under a *degraded* quorum (see
        :class:`BlockchainNetwork` resilience) are validated against the
        reduced policy they were admitted with.  Endorsement signatures
        are checked with screening-style aggregate RSA verification per
        endorser; the verdicts equal per-signature verification's, and
        ``verified`` is the caller's memo of them (see
        :meth:`_verify_block_endorsements`).  A valid transaction runs
        through :meth:`Chaincode.apply`: its argument checks ran at
        endorsement, and the signatures bind the arguments they passed.
        Returns the number of transactions applied (invalid ones are
        marked-and-skipped, as in Fabric's validation flag model).
        """
        self.ledger.append(block)
        applied = 0
        for tx, signatures_ok in zip(
                block.transactions,
                self._verify_block_endorsements(block, verified)):
            if not signatures_ok:
                continue
            effective = (degraded_policy
                         if degraded_policy is not None
                         and tx.tx_id in degraded_tx_ids else policy)
            if not self._policy_admits(tx, effective):
                continue
            try:
                chaincode = self._chaincode(tx.chaincode)
                chaincode.apply(self.state, tx.method, tx.args)
            except Exception:
                # A peer-local application fault (broken contract install,
                # bug) must not halt the network; this peer simply lags on
                # that transaction — visible via peers_converged().
                continue
            applied += 1
        return applied

    def query(self, chaincode: str, method: str, **args: Any) -> Any:
        """Local read-only query against this peer's world state."""
        return self._chaincode(chaincode).invoke(self.state, method, args)

    def sync_from(self, other: "Peer", policy: EndorsementPolicy,
                  degraded_tx_ids: frozenset = frozenset(),
                  degraded_policy: Optional[EndorsementPolicy] = None) -> int:
        """Catch up from another peer's ledger (late join / recovery).

        Fetches every block past this peer's tip, re-validating each via
        :meth:`commit_block` — a lagging peer never has to trust its source
        blindly, since the endorsement signatures travel with the blocks.
        Degraded-quorum metadata must travel with the sync (the channel's
        ``sync_peer`` supplies it): without it, historical transactions the
        channel admitted under the reduced policy fail full-policy
        re-validation here and the peer diverges.  A source on another
        channel raises :class:`LedgerError`.  Returns the blocks applied.
        """
        if other.channel != self.channel:
            raise LedgerError(f"peer {self.peer_id} cannot sync from "
                              f"channel {other.channel!r}")
        applied = 0
        while self.ledger.height < other.ledger.height:
            block = other.ledger.block(self.ledger.height)
            self.commit_block(block, policy,
                              degraded_tx_ids=degraded_tx_ids,
                              degraded_policy=degraded_policy)
            applied += 1
        return applied

    def _chaincode(self, name: str) -> Chaincode:
        try:
            return self._chaincodes[name]
        except KeyError:
            raise LedgerError(f"chaincode {name!r} not installed "
                              f"on {self.peer_id}") from None


class OrderingService:
    """Batches endorsed transactions into blocks (solo orderer)."""

    def __init__(self, batch_size: int = 10,
                 clock: Optional[SimClock] = None) -> None:
        if batch_size < 1:
            raise LedgerError("batch size must be >= 1")
        self.batch_size = batch_size
        self.clock = clock if clock is not None else SimClock()
        self._pending: List[Transaction] = []

    def submit(self, tx: Transaction) -> None:
        self._pending.append(tx)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def cut_block(self, height: int, prev_hash: str) -> Optional[Block]:
        """Cut a block of up to ``batch_size`` pending transactions;
        ``None`` when nothing is pending."""
        if not self._pending:
            return None
        batch, self._pending = (self._pending[:self.batch_size],
                                self._pending[self.batch_size:])
        return build_block(height, prev_hash, self.clock.now, batch)


class BlockchainNetwork:
    """A channel: peers + orderer + endorsement policy + submit API."""

    # Simulated per-phase latencies (seconds), used with the SimClock to
    # model consensus cost for experiment E5.
    ENDORSE_LATENCY = 3e-3
    ORDER_LATENCY = 5e-3
    COMMIT_LATENCY = 2e-3

    def __init__(self, msp: MembershipServiceProvider,
                 policy: Optional[EndorsementPolicy] = None,
                 batch_size: int = 10,
                 clock: Optional[SimClock] = None,
                 monitoring: Optional[MonitoringService] = None,
                 resilience: Optional[Any] = None,
                 degraded_policy: Optional[EndorsementPolicy] = None) -> None:
        self.msp = msp
        self.policy = policy if policy is not None else EndorsementPolicy()
        self.clock = clock if clock is not None else SimClock()
        self.monitoring = (monitoring if monitoring is not None
                           else MonitoringService(self.clock))
        self.orderer = OrderingService(batch_size, self.clock)
        self.peers: List[Peer] = []
        self._tx_counter = 0
        # Resilience: retry failed endorsers through this executor, and —
        # when the full policy still cannot be met — degrade to the
        # reduced quorum below, leaving an audit mark on every such tx.
        self.resilience = resilience
        self.degraded_policy = degraded_policy
        self._degraded_tx_ids: set = set()
        # Degraded transactions that already committed: a late-joining peer
        # syncing historical blocks still needs to know which txs were
        # admitted under the reduced quorum, or it re-validates them with
        # the full policy, skips them, and diverges.
        self._degraded_committed: set = set()
        # Sharded deployments name each channel: its transactions carry
        # the name, and its spans are tagged with it.
        self.channel_name: Optional[str] = None
        self.span_tags: Dict[str, Any] = {}
        # Pipelined ingestion hook: when set, phase latencies are charged
        # to this callback instead of advancing the shared clock, letting
        # an orchestrator overlap phases across shards/rounds and advance
        # the clock once by the computed makespan.
        self.latency_sink = None  # Optional[Callable[[str, float], None]]

    def _charge(self, phase: str, seconds: float) -> None:
        """Pay a phase latency: to the sink if set, else the shared clock."""
        if self.latency_sink is not None:
            self.latency_sink(phase, seconds)
        else:
            self.clock.advance(seconds)

    def add_peer(self, peer: Peer) -> None:
        if peer.channel != self.channel_name:
            raise LedgerError(f"peer {peer.peer_id} is not on channel "
                              f"{self.channel_name!r}")
        self.peers.append(peer)

    def endorsing_peers(self) -> List[Peer]:
        return [p for p in self.peers
                if "peer" in self.msp.enrolment(p.member_id).roles]

    def _endorsement_order(self, tx_number: int) -> List[Peer]:
        """The endorsing peers in the order the client asks them.

        The channel's ``tx_number``-th transaction starts at endorsing
        peer ``tx_number - 1`` (modulo their count) and wraps around, so
        with the early stop every organization endorses an equal share,
        and a down peer is still asked in its turn.
        """
        peers = self.endorsing_peers()
        if not peers:
            return peers
        start = (tx_number - 1) % len(peers)
        return peers[start:] + peers[:start]

    def submit(self, submitter: str, chaincode: str, method: str,
               **args: Any) -> Transaction:
        """Endorse one proposal and order it: a batch of one (see
        :meth:`submit_batch`); returns the endorsed transaction."""
        return self.submit_batch(submitter, [(chaincode, method, args)])[0]

    def submit_batch(self, submitter: str,
                     requests: Iterable[Tuple[str, str, Dict[str, Any]]]
                     ) -> List[Transaction]:
        """Endorse a batch of proposals with one round-trip per peer.

        The one endorsement loop of the channel.  ``requests`` is a
        sequence of ``(chaincode, method, args)`` proposals.  Endorsing
        peers are visited one at a time, as a Fabric client collects
        only the endorsements its policy names; each visited peer signs
        the batch in a single visit, and ``ENDORSE_LATENCY`` advances
        once per visit (a down peer's included), not once per
        transaction.  A visit signs only the transactions still short of
        the policy, and the visits stop once none is, so a healthy batch
        under the default policy costs two trips.  The endorsement
        signatures are per transaction.  Raises :class:`EndorsementError`
        if any transaction in the batch cannot meet the policy (or the
        degraded policy) once every peer was asked; nothing is ordered in
        that case.
        """
        txs = [self._new_transaction(submitter, chaincode, method, args)
               for chaincode, method, args in requests]
        if not txs:
            return []
        endorsements: List[List[Tuple[str, bytes]]] = [[] for _ in txs]
        orgs: List[List[str]] = [[] for _ in txs]
        first_tx_number = self._tx_counter - len(txs) + 1
        short = list(range(len(txs)))  # transactions short of the policy
        with maybe_span(self.clock.tracer, "blockchain.endorse_batch",
                        "blockchain", transactions=len(txs),
                        **self.span_tags) as span:
            for peer in self._endorsement_order(first_tx_number):
                if not short:
                    break
                self._charge("endorse", self.ENDORSE_LATENCY)  # 1 trip/visit
                for i in short:
                    tx = txs[i]
                    try:
                        endorsements[i].append(self._endorse(peer, tx))
                        orgs[i].append(peer.organization)
                    except Exception as exc:
                        self._endorsement_failed(peer, tx, exc)
                        span.add_event("endorsement_failed", self.clock.now,
                                       peer=peer.peer_id, tx=tx.tx_id)
                short = [i for i in short
                         if not self.policy.satisfied_by(orgs[i])]
        endorsed_batch: List[Transaction] = []
        for tx, tx_endorsements, tx_orgs in zip(txs, endorsements, orgs):
            self._require_quorum(tx, tx_endorsements, tx_orgs)
            endorsed_batch.append(tx.with_endorsements(tx_endorsements))
        for endorsed in endorsed_batch:
            self.orderer.submit(endorsed)
        return endorsed_batch

    def _new_transaction(self, submitter: str, chaincode: str, method: str,
                         args: Dict[str, Any]) -> Transaction:
        self._tx_counter += 1
        return Transaction(
            tx_id=f"tx-{self._tx_counter:08d}",
            chaincode=chaincode,
            method=method,
            args=args,
            submitter=submitter,
            timestamp=self.clock.now,
            channel=self.channel_name,
        )

    def _endorse(self, peer: Peer, tx: Transaction) -> Tuple[str, bytes]:
        """One peer's endorsement, retried under the resilience executor.

        Without an executor this is a bare ``peer.endorse``; with one, a
        transiently failing peer is retried with backoff, and a peer that
        keeps failing trips its ``peer.<id>`` breaker so later proposals
        stop waiting on it until the half-open probe succeeds.
        """
        if self.resilience is None:
            return peer.endorse(tx)
        return self.resilience.call(f"peer.{peer.peer_id}",
                                    lambda: peer.endorse(tx))

    def _require_quorum(self, tx: Transaction,
                        endorsements: List[Tuple[str, bytes]],
                        orgs: List[str]) -> None:
        """Enforce the endorsement policy, degrading if configured.

        When the full policy is unmet but ``degraded_policy`` is satisfied,
        the transaction is admitted under the reduced quorum and an audit
        mark is left: a WARN log entry, the ``blockchain.degraded_commits``
        metric, and commit-time validation pinned to the reduced policy.
        """
        if self.policy.satisfied_by(orgs):
            return
        if (self.degraded_policy is not None
                and self.degraded_policy.satisfied_by(orgs)):
            self._degraded_tx_ids.add(tx.tx_id)
            self.monitoring.metrics.incr("blockchain.degraded_commits")
            self.monitoring.log(
                "blockchain",
                f"AUDIT: tx {tx.tx_id} accepted under DEGRADED quorum "
                f"({len(endorsements)} endorsements from {sorted(set(orgs))}; "
                f"required {self.policy.min_endorsements}/"
                f"{self.policy.min_organizations})",
                level="WARN", tx=tx.tx_id, degraded=True)
            return
        raise EndorsementError(
            f"tx {tx.tx_id}: endorsement policy unmet "
            f"({len(endorsements)} endorsements from {set(orgs)})")

    def _endorsement_failed(self, peer: Peer, tx: Transaction,
                            exc: Exception) -> None:
        """Record a failed endorsement in logs and metrics."""
        self.monitoring.metrics.incr("blockchain.endorsement_failures")
        self.monitoring.metrics.incr(
            f"blockchain.endorsement_failures.{peer.peer_id}")
        self.monitoring.log(
            "blockchain",
            f"endorsement failed: peer {peer.peer_id} tx {tx.tx_id} "
            f"({tx.chaincode}.{tx.method}): {exc}",
            level="WARN", peer=peer.peer_id, tx=tx.tx_id)

    def flush(self) -> List[Block]:
        """Cut and commit every pending block (the last may be partial)."""
        committed: List[Block] = []
        with maybe_span(self.clock.tracer, "blockchain.commit", "blockchain",
                        **self.span_tags) as span:
            while True:
                reference = self.peers[0].ledger if self.peers else None
                height = reference.height if reference else 0
                prev = reference.tip_hash if reference else "0" * 64
                block = self.orderer.cut_block(height, prev)
                if block is None:
                    break
                self._charge("order", self.ORDER_LATENCY)
                degraded = frozenset(self._degraded_tx_ids)
                verified: dict = {}  # one block's signature verdicts
                for peer in self.peers:
                    peer.commit_block(block, self.policy,
                                      degraded_tx_ids=degraded,
                                      degraded_policy=self.degraded_policy,
                                      verified=verified)
                    self._charge("commit", self.COMMIT_LATENCY)
                in_block = {tx.tx_id for tx in block.transactions}
                self._degraded_committed |= self._degraded_tx_ids & in_block
                self._degraded_tx_ids -= in_block
                committed.append(block)
            span.set_attribute("blocks", len(committed))
            span.set_attribute(
                "transactions",
                sum(len(b.transactions) for b in committed))
        return committed

    @property
    def degraded_tx_ids(self) -> frozenset:
        """Every tx admitted under the degraded quorum, pending or committed.

        Block sync hands this to the lagging peer so historical degraded
        transactions re-validate against the policy they were admitted
        with (see :meth:`Peer.sync_from`).
        """
        return frozenset(self._degraded_tx_ids | self._degraded_committed)

    def sync_peer(self, peer: Peer) -> int:
        """Catch a lagging/late-joining peer up from the reference peer.

        Threads the channel's degraded-transaction metadata through the
        sync so the peer converges even when history contains
        degraded-quorum commits.  Returns the number of blocks applied.
        """
        if not self.peers:
            raise LedgerError("network has no peers")
        return peer.sync_from(self.peers[0], self.policy,
                              degraded_tx_ids=self.degraded_tx_ids,
                              degraded_policy=self.degraded_policy)

    def invoke(self, submitter: str, chaincode: str, method: str,
               **args: Any) -> Transaction:
        """Submit and immediately flush — convenience for low-rate callers."""
        tx = self.submit(submitter, chaincode, method, **args)
        self.flush()
        return tx

    def query(self, chaincode: str, method: str, **args: Any) -> Any:
        """Read from the first peer (all peers converge)."""
        if not self.peers:
            raise LedgerError("network has no peers")
        return self.peers[0].query(chaincode, method, **args)

    def peers_converged(self) -> bool:
        """All peers hold identical world state and chain tips."""
        if len(self.peers) < 2:
            return True
        reference_state = self.peers[0].state.snapshot_hash()
        reference_tip = self.peers[0].ledger.tip_hash
        return all(p.state.snapshot_hash() == reference_state
                   and p.ledger.tip_hash == reference_tip
                   for p in self.peers[1:])


# The four parties of the Fig. 6 network; each runs one endorsing peer.
ORGANIZATIONS = ("sender-org", "provider-org", "data-protection-org",
                 "audit-org")


def consortium_msp(seed: Optional[int]) -> MembershipServiceProvider:
    """Enrol the Fig. 6 consortium: each organization's peer member,
    then the ingestion service and the auditor.  Every channel shares
    these six identities; the enrolment order fixes each key's seed, and
    each key is generated on its member's first use."""
    msp = MembershipServiceProvider(seed=seed)
    for org in ORGANIZATIONS:
        msp.enroll(f"peer.{org}", org, roles={"peer"})
    msp.enroll("ingestion-service", "provider-org", roles={"client"})
    msp.enroll("auditor", "audit-org", roles={"auditor"})
    return msp


def build_channel(msp: MembershipServiceProvider, name: Optional[str] = None,
                  *, batch_size: int = 10,
                  policy: Optional[EndorsementPolicy] = None,
                  clock: Optional[SimClock] = None,
                  monitoring: Optional[MonitoringService] = None,
                  degraded_policy: Optional[EndorsementPolicy] = None
                  ) -> BlockchainNetwork:
    """Build one channel of the Fig. 6 network; every channel comes here.

    Each organization's peer signs as its member of the consortium
    ``msp`` and has every contract installed, including the cross-shard
    2PC contract with the others as its delegates.  A named channel (a
    shard) stamps its name on its transactions and peer ids, and tags
    its spans.
    """
    channel = BlockchainNetwork(msp, policy=policy, batch_size=batch_size,
                                clock=clock, monitoring=monitoring,
                                degraded_policy=degraded_policy)
    contracts: Dict[str, Chaincode] = {
        "provenance": ProvenanceContract(),
        "consent": ConsentContract(),
        "malware": MalwareContract(),
        "privacy": PrivacyContract(),
        "study": StudyContract(),
    }
    contracts["xshard"] = CrossShardContract(delegates=contracts)
    if name is not None:
        channel.channel_name = name
        channel.span_tags = {"shard": name}
    for org in ORGANIZATIONS:
        channel.add_peer(Peer(f"peer.{org}", org, msp, contracts,
                              channel=name))
    return channel


def standard_network(seed: int = 0, batch_size: int = 10,
                     policy: Optional[EndorsementPolicy] = None,
                     clock: Optional[SimClock] = None,
                     monitoring: Optional[MonitoringService] = None
                     ) -> BlockchainNetwork:
    """Build the reference HCLS network of Fig. 6: one unnamed channel
    of sender org, healthcare provider, data-protection service and
    audit service."""
    return build_channel(consortium_msp(seed), batch_size=batch_size,
                         policy=policy, clock=clock, monitoring=monitoring)
