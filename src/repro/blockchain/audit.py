"""Auditor view and the centralized-database baseline (Sections IV-E, VI).

"Hyperledger has an auditor view that allows an auditor to get access to
the ledgers and search for use and processing of data, system integrity
and user provenance."  :class:`AuditorView` is that read-only interface:
search transactions by chaincode/actor/handle, reconstruct a record's
event chain, and verify chain integrity.

:class:`CentralizedProvenanceDb` is the baseline the paper criticises —
"Past systems make use of centralized databases without any transparency"
— implemented with the same API so experiment E5 can compare cost and
tamper-evidence head-to-head.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..core.errors import LedgerError
from ..crypto.merkle import MerkleProof, MerkleTree, verify_proof
from .chaincode import provenance_event_leaf
from .ledger import Transaction
from .network import BlockchainNetwork


@dataclass(frozen=True)
class AuditFinding:
    """One matched transaction in an audit search."""

    tx_id: str
    block_height: int
    chaincode: str
    method: str
    submitter: str
    args: Dict[str, Any]


@dataclass(frozen=True)
class ProvenanceEvent:
    """One provenance event: a leaf of an endorsed ``record_batch``.

    ``batch_id``/``leaf_index``/``merkle_root`` locate the event inside
    its batch transaction, so an inclusion proof can be fetched and
    verified.
    """

    tx_id: str
    block_height: int
    handle: str
    event: str
    data_hash: str
    actor: str
    metadata: Dict[str, Any]
    batch_id: str
    leaf_index: int
    merkle_root: str


class AuditorView:
    """Read-only ledger access for internal/external audit teams."""

    def __init__(self, network: BlockchainNetwork) -> None:
        if not network.peers:
            raise LedgerError("cannot audit a network with no peers")
        self._network = network

    def _ledger(self):
        return self._network.peers[0].ledger

    def search(self, chaincode: Optional[str] = None,
               method: Optional[str] = None,
               submitter: Optional[str] = None,
               arg_equals: Optional[Dict[str, Any]] = None) -> List[AuditFinding]:
        """Search committed transactions by any combination of filters."""
        findings: List[AuditFinding] = []
        for block in self._ledger().blocks():
            for tx in block.transactions:
                if chaincode is not None and tx.chaincode != chaincode:
                    continue
                if method is not None and tx.method != method:
                    continue
                if submitter is not None and tx.submitter != submitter:
                    continue
                if arg_equals is not None and any(
                        tx.args.get(k) != v for k, v in arg_equals.items()):
                    continue
                findings.append(AuditFinding(
                    tx.tx_id, block.height, tx.chaincode, tx.method,
                    tx.submitter, dict(tx.args)))
        return findings

    def record_history(self, handle: str) -> List[Dict[str, Any]]:
        """Provenance event chain of a data record, via chaincode query."""
        return self._network.query("provenance", "get_history", handle=handle)

    def search_events(self, handle: Optional[str] = None,
                      event: Optional[str] = None,
                      actor: Optional[str] = None) -> List[ProvenanceEvent]:
        """Per-event provenance search directly over the committed ledger.

        Unlike :meth:`search`, which matches whole transactions, this
        unpacks every ``record_batch`` transaction, so each event stays
        individually queryable whatever batch carried it.
        """
        found: List[ProvenanceEvent] = []
        for block in self._ledger().blocks():
            for tx in block.transactions:
                if (tx.chaincode, tx.method) != ("provenance", "record_batch"):
                    continue
                for leaf, entry in enumerate(tx.args.get("events", [])):
                    if handle is not None and entry.get("handle") != handle:
                        continue
                    if event is not None and entry.get("event") != event:
                        continue
                    if actor is not None and entry.get("actor") != actor:
                        continue
                    found.append(ProvenanceEvent(
                        tx_id=tx.tx_id, block_height=block.height,
                        handle=entry.get("handle"), event=entry.get("event"),
                        data_hash=entry.get("data_hash"),
                        actor=entry.get("actor"),
                        metadata=dict(entry.get("metadata") or {}),
                        batch_id=tx.args.get("batch_id"), leaf_index=leaf,
                        merkle_root=tx.args.get("merkle_root")))
        return found

    def event_proof(self, finding: ProvenanceEvent) -> Optional[MerkleProof]:
        """Merkle inclusion proof for an event's leaf in its batch.

        Rebuilds the batch's tree from the committed transaction and
        returns the authentication path for the event's leaf; ``None``
        when the transaction or the leaf is not on the ledger.
        """
        located = self._ledger().transaction_location(finding.tx_id)
        if located is None:
            return None
        return self._leaf_proof(located[0], finding.leaf_index)

    def verify_event(self, finding: ProvenanceEvent) -> bool:
        """Check an event against the batch root its endorsers signed.

        The event's own leaf must verify its Merkle inclusion proof
        against the root committed with its batch transaction, so a
        mutated event, in the finding or in the committed batch, fails.
        """
        located = self._ledger().transaction_location(finding.tx_id)
        if located is None:
            return False
        tx, _ = located
        proof = self._leaf_proof(tx, finding.leaf_index)
        if proof is None or finding.merkle_root != tx.args.get("merkle_root"):
            return False
        leaf = provenance_event_leaf(
            {"handle": finding.handle, "data_hash": finding.data_hash,
             "event": finding.event, "actor": finding.actor,
             "metadata": finding.metadata})
        return verify_proof(bytes.fromhex(finding.merkle_root), leaf, proof)

    @staticmethod
    def _leaf_proof(tx: Transaction, leaf_index: int) -> Optional[MerkleProof]:
        """Inclusion proof of leaf ``leaf_index`` of a batch transaction."""
        events = tx.args.get("events", [])
        if not 0 <= leaf_index < len(events):
            return None
        return MerkleTree([provenance_event_leaf(e)
                           for e in events]).proof(leaf_index)

    def verify_integrity(self) -> bool:
        """Re-verify the full chain on every peer; True iff all consistent."""
        for peer in self._network.peers:
            peer.ledger.verify()  # raises LedgerError on tamper
        return self._network.peers_converged()

    def transaction_count(self) -> int:
        return len(self._ledger().transactions())


class CentralizedProvenanceDb:
    """Baseline: a plain mutable table of provenance events.

    Same logical API as the provenance chaincode, but (i) writes are a
    single dict update — no endorsement/ordering cost — and (ii) a
    malicious admin can silently rewrite history: ``tamper`` succeeds and
    ``verify_integrity`` cannot detect it (it has nothing to check).
    """

    def __init__(self) -> None:
        self._events: Dict[str, List[Dict[str, Any]]] = {}

    def record_event(self, handle: str, data_hash: str, event: str,
                     actor: str, metadata: Optional[Dict[str, Any]] = None) -> int:
        events = self._events.setdefault(handle, [])
        entry = {"seq": len(events), "event": event, "hash": data_hash,
                 "actor": actor, "meta": dict(metadata or {})}
        events.append(entry)
        return entry["seq"]

    def get_history(self, handle: str) -> List[Dict[str, Any]]:
        return list(self._events.get(handle, []))

    def tamper(self, handle: str, seq: int, new_hash: str) -> bool:
        """Silently rewrite an event — undetectable in this baseline."""
        events = self._events.get(handle)
        if events is None or seq >= len(events):
            return False
        events[seq]["hash"] = new_hash
        return True

    def verify_integrity(self) -> bool:
        """Vacuously true: the baseline has no tamper-evidence at all."""
        return True

    def transaction_count(self) -> int:
        return sum(len(v) for v in self._events.values())
