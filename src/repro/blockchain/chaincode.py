"""Chaincode (smart contracts) for the HCLS blockchain networks (Section IV).

The paper describes several blockchain networks/uses; each is a contract
over a shared world state here (a "single blockchain network ... is a
design decision" the paper explicitly allows):

* :class:`ProvenanceContract` — "Upon each event or transaction such as
  data receipt, data retrieval, data anonymization ... the blockchain
  ledger is updated with a handle/reference to the encrypted data record,
  hash of the data, information about the event/transaction, and
  meta-data."
* :class:`ConsentContract` — consent provenance "as required by GDPR and
  HIPAA".
* :class:`MalwareContract` — the malware-management network: records which
  record ids contained malware and the policy action taken, and flags
  risky senders.
* :class:`PrivacyContract` — the privacy network: "records the privacy
  levels of each record received"; its smart-contract analytics flag
  senders whose records repeatedly fail anonymization.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.canonical import canonical_json
from ..core.errors import LedgerError, StudyError, ValidationError
from ..crypto.merkle import IncrementalMerkleTree, MerkleTree


def provenance_event_leaf(event: Dict[str, Any]) -> bytes:
    """Canonical leaf bytes for one event inside a Merkle-batched
    provenance transaction.

    Submitters, endorsing peers, and auditors must all derive the same
    leaf from the same event, so the encoding is a fixed field list in
    canonical JSON — extra keys cannot be smuggled past the root check.
    """
    return canonical_json(
        {"handle": event["handle"], "data_hash": event["data_hash"],
         "event": event["event"], "actor": event["actor"],
         "metadata": dict(event.get("metadata") or {})})


class ProvenanceBatch:
    """Provenance events growing into one ``record_batch`` request.

    The one batch format every ingestion writer uses: each appended
    event's leaf is hashed into an incremental Merkle tree as it
    arrives, so sealing reads the root in O(log n) instead of rebuilding
    the tree (the roots are identical by construction).
    """

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []
        self._tree = IncrementalMerkleTree()

    def __len__(self) -> int:
        return len(self.events)

    def append(self, *, handle: str, data_hash: str, event: str, actor: str,
               metadata: Optional[Dict[str, Any]] = None) -> int:
        """Add one event; returns its leaf index within the batch."""
        self.events.append({"handle": handle, "data_hash": data_hash,
                            "event": event, "actor": actor,
                            "metadata": dict(metadata or {})})
        return self._tree.append(provenance_event_leaf(self.events[-1]))

    def request(self, batch_id: str) -> Tuple[str, str, Dict[str, Any]]:
        """The ``(chaincode, method, args)`` proposal committing the batch."""
        return ("provenance", "record_batch",
                {"batch_id": batch_id, "merkle_root": self._tree.root_hex,
                 "events": self.events})


class WorldState:
    """Versioned key-value store each peer maintains."""

    def __init__(self) -> None:
        self._state: Dict[str, Any] = {}
        self._versions: Dict[str, int] = {}

    def get(self, key: str) -> Optional[Any]:
        return self._state.get(key)

    def lookup(self, key: str) -> Tuple[bool, Optional[Any]]:
        """(present, value) probe that distinguishes a stored None from a
        missing key — the same tuple-probe contract as ``Cache.lookup``."""
        if key in self._state:
            return True, self._state[key]
        return False, None

    def put(self, key: str, value: Any) -> None:
        self._state[key] = value
        self._versions[key] = self._versions.get(key, 0) + 1

    def delete(self, key: str) -> bool:
        """Remove a key (version still advances); True if it was present."""
        if key not in self._state:
            return False
        del self._state[key]
        self._versions[key] = self._versions.get(key, 0) + 1
        return True

    def version(self, key: str) -> int:
        return self._versions.get(key, 0)

    def keys_with_prefix(self, prefix: str) -> List[str]:
        return sorted(k for k in self._state if k.startswith(prefix))

    def snapshot_hash(self) -> str:
        """Digest of the full state, used to check peer convergence."""
        import hashlib
        return hashlib.sha256(canonical_json(self._state)).hexdigest()


class CopyOnWriteState(WorldState):
    """Scratch overlay over a base state; writes never reach the base.

    Endorsement simulation and 2PC prepare both run contracts on one of
    these.  Reads fall through to the base (an overlay may sit on
    another overlay), local writes and deletes shadow it: a delete is
    kept as a tombstone and every probe is the tuple-valued ``lookup``,
    so a simulated write of ``None`` or a delete hides the stored value.
    """

    def __init__(self, base: WorldState) -> None:
        super().__init__()
        self._base = base
        self._deleted: set = set()

    def lookup(self, key: str) -> Tuple[bool, Optional[Any]]:
        if key in self._state:
            return True, self._state[key]
        if key in self._deleted:
            return False, None
        return self._base.lookup(key)

    def get(self, key: str) -> Optional[Any]:
        return self.lookup(key)[1]

    def put(self, key: str, value: Any) -> None:
        self._deleted.discard(key)
        super().put(key, value)

    def delete(self, key: str) -> bool:
        present = self.lookup(key)[0]
        self._state.pop(key, None)
        self._deleted.add(key)
        if present:
            self._versions[key] = self._versions.get(key, 0) + 1
        return present

    def version(self, key: str) -> int:
        return self._base.version(key) + super().version(key)

    def keys_with_prefix(self, prefix: str) -> List[str]:
        keys = set(self._base.keys_with_prefix(prefix))
        keys.update(super().keys_with_prefix(prefix))
        return sorted(k for k in keys if k not in self._deleted)


class Chaincode:
    """Base class: a contract is a set of ``invoke_*`` methods over state.

    A method may have a ``check_*`` twin that reads only the arguments.
    :meth:`invoke` (endorsement simulation, queries, direct calls) runs
    it first; :meth:`apply`, which committing peers run, does not: the
    endorsement signatures they verify bind the arguments the endorsers
    checked.
    """

    NAME = "base"

    def invoke(self, state: WorldState, method: str,
               args: Dict[str, Any]) -> Any:
        check = getattr(self, f"check_{method}", None)
        if check is not None:
            check(**args)
        return self.apply(state, method, args)

    def apply(self, state: WorldState, method: str,
              args: Dict[str, Any]) -> Any:
        """Run ``method`` over ``state`` without its argument checks."""
        handler = getattr(self, f"invoke_{method}", None)
        if handler is None:
            raise LedgerError(f"chaincode {self.NAME}: no method {method!r}")
        return handler(state, **args)


class ProvenanceContract(Chaincode):
    """HCLS data provenance: an event chain per record handle.

    PHI never enters the ledger — only the handle, the data's hash, the
    event kind, and non-sensitive metadata.
    """

    NAME = "provenance"
    EVENT_KINDS = ("received", "validated", "deidentified", "stored",
                   "retrieved", "anonymized", "exported", "deleted")

    def invoke_record_event(self, state: WorldState, *, handle: str,
                            data_hash: str, event: str, actor: str,
                            metadata: Optional[Dict[str, Any]] = None) -> int:
        """Append a provenance event; returns the event's sequence number."""
        if event not in self.EVENT_KINDS:
            raise ValidationError(f"unknown provenance event {event!r}")
        key = f"prov/{handle}"
        events: List[Dict[str, Any]] = state.get(key) or []
        entry = {"seq": len(events), "event": event, "hash": data_hash,
                 "actor": actor, "meta": dict(metadata or {})}
        events = events + [entry]
        state.put(key, events)
        return entry["seq"]

    def check_record_batch(self, *, batch_id: str, merkle_root: str,
                           events: List[Dict[str, Any]]) -> None:
        """Endorsement-time check: the batch is non-empty and its root
        commits to its events, so a batch whose root does not never gets
        endorsed."""
        if not events:
            raise ValidationError("provenance batch must contain events")
        tree = MerkleTree([provenance_event_leaf(e) for e in events])
        if tree.root.hex() != merkle_root:
            raise ValidationError(
                f"provenance batch {batch_id!r}: Merkle root mismatch")

    def invoke_record_batch(self, state: WorldState, *, batch_id: str,
                            merkle_root: str,
                            events: List[Dict[str, Any]]) -> List[int]:
        """Commit a Merkle-batched set of events in one transaction.

        The fast path for high-rate submitters: one endorsed transaction
        carries a whole batch of per-stage events under their Merkle root
        (checked by :meth:`check_record_batch`).  Every event still lands
        on its handle's chain (individually queryable), tagged with the
        batch id and leaf index so auditors can fetch an inclusion proof
        against the endorsed root.
        """
        batch_key = f"provbatch/{batch_id}"
        if state.get(batch_key) is not None:
            raise ValidationError(
                f"provenance batch {batch_id!r} already recorded")
        sequences: List[int] = []
        for leaf_index, event in enumerate(events):
            if event["event"] not in self.EVENT_KINDS:
                raise ValidationError(
                    f"unknown provenance event {event['event']!r}")
            key = f"prov/{event['handle']}"
            chain: List[Dict[str, Any]] = state.get(key) or []
            entry = {"seq": len(chain), "event": event["event"],
                     "hash": event["data_hash"], "actor": event["actor"],
                     "meta": {**dict(event.get("metadata") or {}),
                              "batch": batch_id, "leaf": leaf_index}}
            state.put(key, chain + [entry])
            sequences.append(entry["seq"])
        state.put(batch_key, {"root": merkle_root, "size": len(events)})
        return sequences

    def invoke_get_history(self, state: WorldState, *,
                           handle: str) -> List[Dict[str, Any]]:
        """Full event chain of one record."""
        return list(state.get(f"prov/{handle}") or [])

    def invoke_get_batch(self, state: WorldState, *,
                         batch_id: str) -> Optional[Dict[str, Any]]:
        """Root and size of one committed batch."""
        return state.get(f"provbatch/{batch_id}")

    def invoke_verify_hash(self, state: WorldState, *, handle: str,
                           data_hash: str) -> bool:
        """Does the latest stored hash for this handle match?"""
        events = state.get(f"prov/{handle}") or []
        hashed = [e for e in events if e["hash"]]
        return bool(hashed) and hashed[-1]["hash"] == data_hash


class ConsentContract(Chaincode):
    """Consent provenance: grants and revocations with full history."""

    NAME = "consent"

    def invoke_grant(self, state: WorldState, *, patient_ref: str,
                     group_id: str, granted_at: float) -> str:
        key = f"consent/{patient_ref}/{group_id}"
        history: List[Dict[str, Any]] = state.get(key) or []
        history = history + [{"action": "grant", "at": granted_at}]
        state.put(key, history)
        return key

    def invoke_revoke(self, state: WorldState, *, patient_ref: str,
                      group_id: str, revoked_at: float) -> str:
        key = f"consent/{patient_ref}/{group_id}"
        history: List[Dict[str, Any]] = state.get(key) or []
        if not history or history[-1]["action"] != "grant":
            raise LedgerError(f"no active consent to revoke at {key}")
        history = history + [{"action": "revoke", "at": revoked_at}]
        state.put(key, history)
        return key

    def invoke_is_active(self, state: WorldState, *, patient_ref: str,
                         group_id: str) -> bool:
        history = state.get(f"consent/{patient_ref}/{group_id}") or []
        return bool(history) and history[-1]["action"] == "grant"

    def invoke_history(self, state: WorldState, *, patient_ref: str,
                       group_id: str) -> List[Dict[str, Any]]:
        return list(state.get(f"consent/{patient_ref}/{group_id}") or [])


class MalwareContract(Chaincode):
    """Malware-management network: infected records and risky senders."""

    NAME = "malware"
    ACTIONS = ("cleaned", "sanitized", "dropped")
    RISK_THRESHOLD = 3

    def invoke_report(self, state: WorldState, *, record_id: str,
                      sender: str, signature_name: str, action: str) -> None:
        """Record that a record contained malware and what was done."""
        if action not in self.ACTIONS:
            raise ValidationError(f"unknown malware action {action!r}")
        state.put(f"malware/record/{record_id}",
                  {"sender": sender, "signature": signature_name,
                   "action": action})
        counter_key = f"malware/sender/{sender}"
        state.put(counter_key, (state.get(counter_key) or 0) + 1)

    def invoke_is_risky_sender(self, state: WorldState, *, sender: str) -> bool:
        """Smart-contract analytics: senders with repeated malware reports."""
        return (state.get(f"malware/sender/{sender}") or 0) >= self.RISK_THRESHOLD

    def invoke_record_status(self, state: WorldState, *,
                             record_id: str) -> Optional[Dict[str, Any]]:
        return state.get(f"malware/record/{record_id}")


class PrivacyContract(Chaincode):
    """Privacy network: anonymization degree of every received record."""

    NAME = "privacy"
    RISK_THRESHOLD = 3

    def invoke_record_level(self, state: WorldState, *, record_id: str,
                            sender: str, degree: float, passed: bool) -> None:
        state.put(f"privacy/record/{record_id}",
                  {"sender": sender, "degree": degree, "passed": passed})
        if not passed:
            counter_key = f"privacy/sender-failures/{sender}"
            state.put(counter_key, (state.get(counter_key) or 0) + 1)

    def invoke_record_level_batch(self, state: WorldState, *,
                                  records: List[Dict[str, Any]]) -> int:
        """Record many per-record verdicts in one endorsed transaction.

        The ingestion fast path flushes one of these per provenance batch
        instead of one ``record_level`` transaction per record; each entry
        still lands under its own ``privacy/record/{id}`` key, so queries
        and the risky-sender analytics are unchanged.
        """
        if not records:
            raise ValidationError("privacy batch must contain records")
        for record in records:
            self.invoke_record_level(
                state, record_id=record["record_id"],
                sender=record["sender"], degree=record["degree"],
                passed=record["passed"])
        return len(records)

    def invoke_record_level_of(self, state: WorldState, *,
                               record_id: str) -> Optional[Dict[str, Any]]:
        return state.get(f"privacy/record/{record_id}")

    def invoke_is_risky_sender(self, state: WorldState, *, sender: str) -> bool:
        return (state.get(f"privacy/sender-failures/{sender}") or 0) >= self.RISK_THRESHOLD


class StudyContract(Chaincode):
    """Federated study lifecycle with M-of-N threshold approval.

    A researcher proposes a study naming the participating institutions
    and an approval threshold M; institutions approve (or deny) on-ledger;
    only once M distinct approvals are committed may any institution's
    upload commitment ``H(ciphertext || key_fingerprint || ts ||
    institution)`` be recorded.  The threshold is therefore enforced *by
    the endorsed contract itself*: a commitment transaction submitted
    before the study is approved fails chaincode simulation, gathers no
    endorsements, and never lands on the ledger.
    """

    NAME = "study"
    STATES = ("proposed", "approved", "denied", "running", "complete")

    @staticmethod
    def _key(study_id: str) -> str:
        return f"study/{study_id}"

    @staticmethod
    def _commit_key(study_id: str, round_tag: str, institution: str) -> str:
        return f"studycommit/{study_id}/{round_tag}/{institution}"

    def _record(self, state: WorldState, study_id: str) -> Dict[str, Any]:
        record = state.get(self._key(study_id))
        if record is None:
            raise StudyError(f"study {study_id!r} is not on the ledger")
        return record

    def invoke_propose(self, state: WorldState, *, study_id: str,
                       researcher: str, analysis: str, group_id: str,
                       participants: List[str], threshold: int,
                       proposed_at: float) -> str:
        """Open a study in the PROPOSED state."""
        if state.get(self._key(study_id)) is not None:
            raise StudyError(f"study {study_id!r} already proposed")
        institutions = sorted(set(participants))
        if not institutions:
            raise ValidationError("a study needs at least one institution")
        if not 1 <= threshold <= len(institutions):
            raise ValidationError(
                f"threshold {threshold} outside 1..{len(institutions)}")
        state.put(self._key(study_id), {
            "state": "proposed", "researcher": researcher,
            "analysis": analysis, "group_id": group_id,
            "participants": institutions, "threshold": int(threshold),
            "approvals": [], "denials": [], "proposed_at": proposed_at})
        return "proposed"

    def invoke_approve(self, state: WorldState, *, study_id: str,
                       institution: str, approved_at: float) -> str:
        """One institution's approval; flips to APPROVED at M distinct."""
        record = self._record(state, study_id)
        if institution not in record["participants"]:
            raise StudyError(
                f"{institution!r} is not a participant of {study_id!r}")
        if record["state"] not in ("proposed", "approved"):
            raise StudyError(
                f"study {study_id!r} is {record['state']}; cannot approve")
        approvals = list(record["approvals"])
        if all(a["institution"] != institution for a in approvals):
            approvals.append({"institution": institution, "at": approved_at})
        new_state = ("approved" if len(approvals) >= record["threshold"]
                     else record["state"])
        state.put(self._key(study_id),
                  {**record, "approvals": approvals, "state": new_state})
        return new_state

    def invoke_deny(self, state: WorldState, *, study_id: str,
                    institution: str, denied_at: float) -> str:
        """One institution's veto; a proposed study becomes DENIED."""
        record = self._record(state, study_id)
        if institution not in record["participants"]:
            raise StudyError(
                f"{institution!r} is not a participant of {study_id!r}")
        if record["state"] != "proposed":
            raise StudyError(
                f"study {study_id!r} is {record['state']}; cannot deny")
        denials = list(record["denials"])
        denials.append({"institution": institution, "at": denied_at})
        state.put(self._key(study_id),
                  {**record, "denials": denials, "state": "denied"})
        return "denied"

    def invoke_start(self, state: WorldState, *, study_id: str,
                     started_at: float) -> str:
        """APPROVED -> RUNNING; aggregation rounds may begin."""
        record = self._record(state, study_id)
        if record["state"] != "approved":
            raise StudyError(
                f"study {study_id!r} is {record['state']}; cannot start")
        state.put(self._key(study_id),
                  {**record, "state": "running", "started_at": started_at})
        return "running"

    def invoke_complete(self, state: WorldState, *, study_id: str,
                        completed_at: float, result_digest: str) -> str:
        """RUNNING -> COMPLETE, sealing the result digest on-ledger."""
        record = self._record(state, study_id)
        if record["state"] != "running":
            raise StudyError(
                f"study {study_id!r} is {record['state']}; cannot complete")
        state.put(self._key(study_id),
                  {**record, "state": "complete",
                   "completed_at": completed_at,
                   "result_digest": result_digest})
        return "complete"

    def invoke_record_commitment(self, state: WorldState, *, study_id: str,
                                 round_tag: str, institution: str,
                                 commitment: str,
                                 committed_at: float) -> str:
        """Record one institution's upload commitment for one round.

        Refused unless the study has gathered its M approvals (state
        APPROVED or RUNNING) and the institution is a participant — the
        on-chain half of "no data moves before threshold approval".
        """
        record = self._record(state, study_id)
        if record["state"] not in ("approved", "running"):
            raise StudyError(
                f"study {study_id!r} is {record['state']}; upload "
                f"commitment refused")
        if len(record["approvals"]) < record["threshold"]:
            raise StudyError(
                f"study {study_id!r} has {len(record['approvals'])} of "
                f"{record['threshold']} approvals; upload commitment refused")
        if institution not in record["participants"]:
            raise StudyError(
                f"{institution!r} is not a participant of {study_id!r}")
        key = self._commit_key(study_id, round_tag, institution)
        existing = state.get(key)
        if existing is not None:
            if existing["commitment"] != commitment:
                raise LedgerError(
                    f"conflicting commitment for {key}")
            return key
        state.put(key, {"commitment": commitment, "at": committed_at})
        return key

    def invoke_status(self, state: WorldState, *,
                      study_id: str) -> Optional[Dict[str, Any]]:
        """The full on-ledger study record (or None)."""
        record = state.get(self._key(study_id))
        return dict(record) if record is not None else None

    def invoke_commitments(self, state: WorldState, *,
                           study_id: str) -> Dict[str, Dict[str, Any]]:
        """All recorded upload commitments for a study, keyed by ledger key."""
        prefix = f"studycommit/{study_id}/"
        return {key: dict(state.get(key))
                for key in state.keys_with_prefix(prefix)}


class CrossShardContract(Chaincode):
    """Two-phase commit records for transactions spanning shard channels.

    A multi-patient transaction touches world state on several
    independently ordered shard channels; atomicity comes from the
    classic prepare/commit protocol with *both* phases anchored as
    ordinary endorsed transactions on every participating shard's ledger:

    * ``prepare`` stages the shard-local requests (delegate chaincode
      invocations) under the cross-shard transaction id without applying
      them;
    * ``commit`` applies the staged requests through the delegate
      contracts and seals the outcome; ``abort`` discards them.

    Because the phase records are endorsed and committed like any other
    transaction, an auditor reading any participant's ledger sees the
    full 2PC history and the final outcome — and a coordinator recovering
    from a crash window can re-drive the decided phase idempotently
    (``commit``/``abort`` on an already-decided transaction are no-ops).
    """

    NAME = "xshard"

    def __init__(self, delegates: Optional[Dict[str, Chaincode]] = None) -> None:
        self._delegates: Dict[str, Chaincode] = dict(delegates or {})

    @staticmethod
    def _key(txn_id: str) -> str:
        return f"xshard/{txn_id}"

    def invoke_prepare(self, state: WorldState, *, txn_id: str, shard: str,
                       participants: List[str],
                       requests: List[Dict[str, Any]]) -> str:
        """Stage this shard's slice of a cross-shard transaction.

        Requests are *simulated* on a :class:`CopyOnWriteState` over the
        shard's state before being staged — a request that cannot apply
        (unknown method, bad args, delegate validation failure, or a
        read of committed state that fails) must vote no here, while the
        coordinator can still abort everywhere, not wedge at commit.
        """
        if not requests:
            raise ValidationError(
                f"cross-shard txn {txn_id!r}: nothing to prepare")
        if state.get(self._key(txn_id)) is not None:
            raise LedgerError(
                f"cross-shard txn {txn_id!r} already has a phase record")
        scratch = CopyOnWriteState(state)
        for request in requests:
            delegate = self._delegates.get(request.get("chaincode"))
            if delegate is None:
                raise ValidationError(
                    f"cross-shard txn {txn_id!r}: no delegate chaincode "
                    f"{request.get('chaincode')!r}")
            try:
                delegate.invoke(scratch, request["method"], request["args"])
            except (LedgerError, ValidationError, TypeError, KeyError) as exc:
                raise ValidationError(
                    f"cross-shard txn {txn_id!r}: request "
                    f"{request.get('chaincode')}.{request.get('method')} "
                    f"failed prepare simulation: {exc}") from exc
        state.put(self._key(txn_id), {
            "phase": "prepared", "shard": shard,
            "participants": list(participants),
            "requests": [dict(r) for r in requests]})
        return "prepared"

    def invoke_commit(self, state: WorldState, *, txn_id: str) -> str:
        """Apply the staged requests; idempotent on retry."""
        record = state.get(self._key(txn_id))
        if record is None:
            raise LedgerError(
                f"cross-shard txn {txn_id!r} was never prepared here")
        if record["phase"] == "committed":
            return "committed"
        if record["phase"] == "aborted":
            raise LedgerError(
                f"cross-shard txn {txn_id!r} already aborted")
        for request in record["requests"]:
            delegate = self._delegates[request["chaincode"]]
            delegate.invoke(state, request["method"], request["args"])
        state.put(self._key(txn_id), {**record, "phase": "committed"})
        return "committed"

    def invoke_abort(self, state: WorldState, *, txn_id: str) -> str:
        """Discard the staged requests; a tombstone records the outcome
        even on shards whose prepare never landed."""
        record = state.get(self._key(txn_id))
        if record is None:
            state.put(self._key(txn_id), {
                "phase": "aborted", "shard": None, "participants": [],
                "requests": []})
            return "aborted"
        if record["phase"] == "committed":
            raise LedgerError(
                f"cross-shard txn {txn_id!r} already committed")
        state.put(self._key(txn_id), {**record, "phase": "aborted"})
        return "aborted"

    def invoke_status(self, state: WorldState, *, txn_id: str) -> Optional[str]:
        """This shard's on-ledger phase for a cross-shard transaction."""
        record = state.get(self._key(txn_id))
        return None if record is None else record["phase"]
