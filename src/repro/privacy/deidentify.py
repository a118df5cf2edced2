"""HIPAA Safe-Harbor de-identification (Sections II-B, IV-C).

Ingestion step iii): "the data is de-identified and stored in the backend
storage system (Data Lake) with a reference-id, and the reference-id to
identity the mapping is stored in the metadata."

The de-identifier removes or transforms the Safe-Harbor identifier
categories that our FHIR subset can carry — names, geographic subdivisions
smaller than a state, dates (except year), telephone/fax/email, SSNs, MRNs
and other identifiers — and replaces the resource id with a pseudonymous
reference id.  The id<->reference mapping is returned separately so it can
be stored in protected metadata (and later used for consented full export).
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..fhir.resources import (
    Bundle,
    Patient,
    Resource,
)


@dataclass
class ReidentificationMap:
    """Protected metadata: reference-id -> original id (per resource type)."""

    entries: Dict[str, str] = field(default_factory=dict)

    def record(self, reference_id: str, original_id: str) -> None:
        self.entries[reference_id] = original_id

    def original_of(self, reference_id: str) -> Optional[str]:
        return self.entries.get(reference_id)

    def __len__(self) -> int:
        return len(self.entries)


class Deidentifier:
    """Safe-Harbor de-identifier for FHIR bundles.

    Pseudonyms are HMAC(secret, original_id), so the same patient maps to
    the same reference id across bundles — required for longitudinal
    analytics on de-identified data — while unlinkable without the secret.
    """

    def __init__(self, secret: bytes) -> None:
        if len(secret) < 16:
            raise ValueError("pseudonym secret too short")
        self._secret = secret

    def reference_id(self, original_id: str) -> str:
        tag = hmac.new(self._secret, original_id.encode(),
                       hashlib.sha256).hexdigest()
        return f"ref-{tag[:16]}"

    # -- resource transforms -------------------------------------------------

    def deidentify_patient(self, patient: Patient,
                           mapping: ReidentificationMap) -> Patient:
        """Strip the Safe-Harbor identifiers a Patient carries."""
        ref = self.reference_id(patient.id)
        mapping.record(ref, patient.id)
        birth_year = (patient.birthDate[:4] if patient.birthDate else None)
        # Geographic subdivisions smaller than state are removed; we keep
        # state only.  ZIP handling (first-3 digits) happens in k-anonymity
        # generalization where population context exists.
        address = ({"state": patient.address.get("state", "")}
                   if patient.address else {})
        return Patient(
            id=ref,
            meta={"deidentified": True},
            name={},                      # (A) names
            birthDate=f"{birth_year}-01-01" if birth_year else None,  # (C) dates -> year
            gender=patient.gender,        # gender is not a Safe-Harbor identifier
            address=address,              # (B) geographic < state
            telecom=[],                   # (D/E/F) phone/fax/email
            identifier=[],                # (G..R) SSN/MRN/etc.
        )

    def _deidentify_clinical(self, resource: Resource,
                             mapping: ReidentificationMap) -> Resource:
        """Re-reference a clinical resource to pseudonymous ids."""
        ref = self.reference_id(resource.id)
        mapping.record(ref, resource.id)
        subject = getattr(resource, "subject", None) or getattr(
            resource, "patient", None)
        new_subject = None
        if subject and subject.startswith("Patient/"):
            new_subject = f"Patient/{self.reference_id(subject.split('/', 1)[1])}"
        clone = type(resource).from_dict(resource.to_dict())
        clone.id = ref
        clone.meta = dict(clone.meta, deidentified=True)
        if hasattr(clone, "subject") and new_subject:
            clone.subject = new_subject
        if hasattr(clone, "patient") and new_subject:
            clone.patient = new_subject
        # Date precision reduction: keep year-month for clinical dates (they
        # are needed for temporal analytics; Safe Harbor's date rule applies
        # to dates directly related to an individual — we degrade to month
        # as the configured compromise, documented in DESIGN.md).
        for attr in ("effectiveDateTime", "authoredOn", "onsetDateTime",
                     "periodStart", "periodEnd"):
            value = getattr(clone, attr, None)
            if value:
                setattr(clone, attr, value[:7])
        return clone

    def deidentify_bundle(self, bundle: Bundle) -> Tuple[Bundle, ReidentificationMap]:
        """De-identify every resource; returns (clean bundle, protected map)."""
        mapping = ReidentificationMap()
        out = Bundle(id=self.reference_id(bundle.id), type=bundle.type)
        mapping.record(out.id, bundle.id)
        for resource in bundle.entries:
            if isinstance(resource, Patient):
                out.add(self.deidentify_patient(resource, mapping))
            else:
                out.add(self._deidentify_clinical(resource, mapping))
        return out, mapping


def phi_identifiers_present(resource: Resource) -> List[str]:
    """List Safe-Harbor identifier categories still present in a resource.

    Used by the anonymization verification service to score the
    *independent* part of the anonymization degree.
    """
    found: List[str] = []
    if isinstance(resource, Patient):
        if resource.name:
            found.append("name")
        if resource.birthDate and resource.birthDate[5:] not in ("", "01-01"):
            found.append("full-birthdate")
        if resource.telecom:
            found.append("telecom")
        if resource.identifier:
            found.append("identifier")
        address = resource.address or {}
        if any(address.get(k) for k in ("line", "city", "postalCode")):
            found.append("sub-state-geography")
    subject = getattr(resource, "subject", None) or getattr(
        resource, "patient", None)
    if subject and subject.startswith("Patient/"):
        pid = subject.split("/", 1)[1]
        if not pid.startswith("ref-"):
            found.append("direct-patient-reference")
    return found
