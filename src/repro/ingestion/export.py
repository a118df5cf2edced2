"""Export service (Section II-B).

"The platform also exposes an Export service which performs two types of
exports, namely i) Anonymized export, that anonymizes the data to protect
privacy, and ii) Full export where the re-identified consented data is
provided to the client.  This is typically needed by Clinical Research
Organizations (CRO) to conduct various types of studies."

* **Anonymized export** returns the stored de-identified record versions
  for a study group, with a k-anonymity pass over the cohort's
  quasi-identifiers.
* **Full export** re-identifies via the protected reference-id mapping —
  allowed only when (a) RBAC grants the caller read access to the group's
  PHI and (b) every patient's consent for the group is still active.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from ..core.errors import ConsentError, ExportError
from ..fhir.resources import Bundle, Patient
from ..privacy.consent import ConsentManagementService
from ..privacy.deidentify import ReidentificationMap
from ..privacy.kanonymity import MondrianAnonymizer, QuasiIdentifier
from ..rbac.engine import RbacEngine
from ..rbac.model import Action, Scope, ScopeKind
from .datalake import DataLake


@dataclass
class AnonymizedExport:
    """Result of an anonymized export."""

    group_id: str
    bundles: List[Bundle]
    cohort_table: List[Dict[str, Any]]
    achieved_k: int


@dataclass
class FullExport:
    """Result of a consented full export."""

    group_id: str
    records: List[Tuple[str, bytes]]   # (original patient id, plaintext)


class ExportService:
    """Anonymized and full (re-identified) data export."""

    def __init__(self, datalake: DataLake, consent: ConsentManagementService,
                 rbac: RbacEngine,
                 reidentification: ReidentificationMap,
                 anonymity_k: int = 5) -> None:
        self.datalake = datalake
        self.consent = consent
        self.rbac = rbac
        self.reidentification = reidentification
        self.anonymity_k = anonymity_k

    def export_anonymized(self, user_id: str, group_id: str,
                          org_id: str, env_id: str) -> AnonymizedExport:
        """De-identified bundles + k-anonymized cohort table for a group."""
        self.rbac.require(user_id, Action.READ, "anonymized-data",
                          Scope(ScopeKind.GROUP, group_id), org_id, env_id)
        records = self.datalake.records_for_group(group_id, kind="anonymized")
        if not records:
            raise ExportError(f"group {group_id} has no stored data")
        bundles: List[Bundle] = []
        rows: List[Dict[str, Any]] = []
        for record in records:
            plaintext = self.datalake.retrieve(record.record_id)
            bundle = Bundle.from_json(plaintext.decode("utf-8"))
            bundles.append(bundle)
            for patient in bundle.resources_of(Patient):
                rows.append({
                    "patient_ref": patient.id,
                    "birth_year": int((patient.birthDate or "1900")[:4]),
                    "gender": patient.gender or "unknown",
                    "state": (patient.address or {}).get("state", ""),
                })
        achieved = 0
        if len(rows) >= self.anonymity_k:
            anonymizer = MondrianAnonymizer(
                [QuasiIdentifier("birth_year", numeric=True),
                 QuasiIdentifier("gender", numeric=False),
                 QuasiIdentifier("state", numeric=False)],
                k=self.anonymity_k)
            release = anonymizer.anonymize(rows)
            rows = release.rows
            achieved = release.achieved_k
        return AnonymizedExport(group_id=group_id, bundles=bundles,
                                cohort_table=rows, achieved_k=achieved)

    def export_full(self, user_id: str, group_id: str,
                    org_id: str, env_id: str) -> FullExport:
        """Re-identified export: RBAC write-level PHI access + live consent."""
        self.rbac.require(user_id, Action.READ, "phi-data",
                          Scope(ScopeKind.GROUP, group_id), org_id, env_id)
        records = self.datalake.records_for_group(group_id, kind="original")
        if not records:
            raise ExportError(f"group {group_id} has no stored data")
        out: List[Tuple[str, bytes]] = []
        for record in records:
            original_id = self.reidentification.original_of(record.patient_ref)
            if original_id is None:
                raise ExportError(
                    f"no identity mapping for {record.patient_ref}")
            if not self.consent.has_consent(original_id, group_id):
                raise ConsentError(
                    f"consent for patient {original_id} in group {group_id} "
                    "is no longer active")
            out.append((original_id, self.datalake.retrieve(record.record_id)))
        return FullExport(group_id=group_id, records=out)
