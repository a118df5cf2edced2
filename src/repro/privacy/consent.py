"""Consent Management Service (Section II-B).

"Since the platform supports uploading protected health information (PHI)
via the Data Ingestion service, it is important to secure the consent of
the patient/user for the uploaded data."

Consent attaches a patient to a study **Group** (Section II-B's RBAC
groups are "healthcare studies/programs to which PHI data is consented
for") over a validity period.  Ingestion verifies consent before storing
PHI; full (re-identified) export verifies consent again at read time; GDPR
revocation withdraws consent and triggers the right-to-forget path.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional

from ..core.errors import ConsentError
from ..cloudsim.clock import SimClock


class ConsentStatus(Enum):
    """Lifecycle of a consent record."""

    ACTIVE = "active"
    EXPIRED = "expired"
    REVOKED = "revoked"


@dataclass
class ConsentRecord:
    """One patient's consent for one study group."""

    consent_id: str
    patient_id: str
    group_id: str
    granted_at: float
    expires_at: Optional[float] = None
    revoked_at: Optional[float] = None

    def status_at(self, now: float) -> ConsentStatus:
        if self.revoked_at is not None and now >= self.revoked_at:
            return ConsentStatus.REVOKED
        if self.expires_at is not None and now >= self.expires_at:
            return ConsentStatus.EXPIRED
        return ConsentStatus.ACTIVE


class ConsentManagementService:
    """Registry and checker of patient consents."""

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._records: Dict[str, ConsentRecord] = {}
        self._by_patient: Dict[str, List[str]] = {}
        self._counter = 0

    def grant(self, patient_id: str, group_id: str,
              ttl_s: Optional[float] = None) -> ConsentRecord:
        """Record a new consent; returns the record."""
        self._counter += 1
        record = ConsentRecord(
            consent_id=f"consent-{self._counter:06d}",
            patient_id=patient_id,
            group_id=group_id,
            granted_at=self.clock.now,
            expires_at=(self.clock.now + ttl_s) if ttl_s is not None else None,
        )
        self._records[record.consent_id] = record
        self._by_patient.setdefault(patient_id, []).append(record.consent_id)
        return record

    def revoke(self, consent_id: str) -> None:
        """Withdraw a consent (GDPR Article 7(3)).

        Idempotent: revoking an already-revoked consent keeps the earliest
        revocation timestamp rather than silently moving it later.
        """
        record = self._records.get(consent_id)
        if record is None:
            raise ConsentError(f"consent {consent_id} not found")
        if record.revoked_at is None:
            record.revoked_at = self.clock.now
        else:
            record.revoked_at = min(record.revoked_at, self.clock.now)

    def revoke_all_for_patient(self, patient_id: str) -> int:
        """Withdraw every consent a patient has given; returns the count."""
        count = 0
        for consent_id in self._by_patient.get(patient_id, []):
            record = self._records[consent_id]
            if record.status_at(self.clock.now) is ConsentStatus.ACTIVE:
                record.revoked_at = self.clock.now
                count += 1
        return count

    def has_consent(self, patient_id: str, group_id: str) -> bool:
        """True when an active consent covers (patient, group) right now."""
        now = self.clock.now
        for consent_id in self._by_patient.get(patient_id, []):
            record = self._records[consent_id]
            if (record.group_id == group_id
                    and record.status_at(now) is ConsentStatus.ACTIVE):
                return True
        return False

    def require_consent(self, patient_id: str, group_id: str) -> ConsentRecord:
        """Return the covering consent or raise :class:`ConsentError`."""
        now = self.clock.now
        for consent_id in self._by_patient.get(patient_id, []):
            record = self._records[consent_id]
            if (record.group_id == group_id
                    and record.status_at(now) is ConsentStatus.ACTIVE):
                return record
        raise ConsentError(
            f"no active consent for patient {patient_id} in group {group_id}")

    def consents_for(self, patient_id: str) -> List[ConsentRecord]:
        return [self._records[cid]
                for cid in self._by_patient.get(patient_id, [])]

    def active_patients_in(self, group_id: str) -> List[str]:
        """Patients with a currently active consent for a group."""
        now = self.clock.now
        patients = []
        for record in self._records.values():
            if (record.group_id == group_id
                    and record.status_at(now) is ConsentStatus.ACTIVE):
                patients.append(record.patient_id)
        return sorted(set(patients))
