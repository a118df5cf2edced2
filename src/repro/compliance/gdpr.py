"""GDPR data-subject rights (Sections IV-B1, IV-D).

"In order to support GDPR and right-to-forget, our system supports
encryption-based record deletion and deletion of data relevant to a given
patient from all parts of the system."

:class:`GdprService` orchestrates the two subject rights the platform
implements end to end:

* **right to erasure** — revoke every consent, crypto-delete the subject's
  data-lake keys, and land a ``deleted`` provenance event on the ledger
  (the erasure itself must be demonstrable);
* **right of access** — assemble what the platform holds about a subject:
  stored record versions, consent history, and provenance events.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..blockchain.network import BlockchainNetwork
from ..ingestion.datalake import DataLake
from ..privacy.consent import ConsentManagementService
from ..privacy.deidentify import Deidentifier


@dataclass
class ErasureReceipt:
    """Proof-of-erasure the subject (or a regulator) receives."""

    patient_id: str
    consents_revoked: int
    record_versions_destroyed: int
    provenance_recorded: bool


@dataclass
class SubjectAccessReport:
    """GDPR Article 15 access report."""

    patient_id: str
    patient_ref: str
    stored_records: List[Dict[str, Any]]
    consents: List[Dict[str, Any]]
    provenance_events: List[Dict[str, Any]]


class GdprService:
    """Right-to-forget and subject-access orchestration."""

    def __init__(self, datalake: DataLake,
                 consent: ConsentManagementService,
                 deidentifier: Deidentifier,
                 blockchain: Optional[BlockchainNetwork] = None) -> None:
        self.datalake = datalake
        self.consent = consent
        self.deidentifier = deidentifier
        self.blockchain = blockchain

    def erase_subject(self, patient_id: str) -> ErasureReceipt:
        """Execute the right to be forgotten for one patient."""
        revoked = self.consent.revoke_all_for_patient(patient_id)
        patient_ref = self.deidentifier.reference_id(patient_id)
        destroyed = self.datalake.forget_patient(patient_ref)
        provenance_recorded = False
        if self.blockchain is not None:
            erasure_hash = hashlib.sha256(
                f"erased:{patient_ref}".encode()).hexdigest()
            self.blockchain.invoke(
                "ingestion-service", "provenance", "record_event",
                handle=patient_ref, data_hash=erasure_hash, event="deleted",
                actor="gdpr-service",
                metadata={"reason": "right-to-forget"})
            provenance_recorded = True
        return ErasureReceipt(
            patient_id=patient_id,
            consents_revoked=revoked,
            record_versions_destroyed=destroyed,
            provenance_recorded=provenance_recorded,
        )

    def subject_access(self, patient_id: str) -> SubjectAccessReport:
        """Assemble everything the platform holds about a subject."""
        patient_ref = self.deidentifier.reference_id(patient_id)
        records = [
            {"record_id": r.record_id, "kind": r.kind,
             "group": r.group_id, "content_hash": r.content_hash}
            for r in self.datalake.records_for_patient(patient_ref)
        ]
        consents = [
            {"consent_id": c.consent_id, "group": c.group_id,
             "granted_at": c.granted_at, "revoked_at": c.revoked_at}
            for c in self.consent.consents_for(patient_id)
        ]
        events: List[Dict[str, Any]] = []
        if self.blockchain is not None:
            events = self.blockchain.query("provenance", "get_history",
                                           handle=patient_ref)
        return SubjectAccessReport(
            patient_id=patient_id,
            patient_ref=patient_ref,
            stored_records=records,
            consents=consents,
            provenance_events=events,
        )
