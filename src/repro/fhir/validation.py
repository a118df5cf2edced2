"""Bundle validation — step ii) of ingestion (Section II-B).

"The uploaded data is verified, curated and stored" — the validator is the
"validates the uploaded bundle for errors" stage.  It checks per-resource
structural rules plus bundle-level referential integrity (every clinical
resource must reference a Patient present in the bundle or already known
to the platform).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Set

from .resources import (
    Bundle,
    Condition,
    Consent,
    DiagnosticReport,
    Encounter,
    MedicationRequest,
    Observation,
    Patient,
    Resource,
)

_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
_DATETIME_RE = re.compile(r"^\d{4}-\d{2}-\d{2}(T\d{2}:\d{2}(:\d{2})?)?$")
_GENDERS = {"male", "female", "other", "unknown"}
_OBS_STATUSES = {"registered", "preliminary", "final", "amended", "corrected"}
_ENCOUNTER_CLASSES = {"ambulatory", "inpatient", "emergency", "virtual"}
_ENCOUNTER_STATUSES = {"planned", "in-progress", "finished", "cancelled"}


@dataclass
class ValidationReport:
    """Accumulated validation outcome for one bundle."""

    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.errors

    def error(self, message: str) -> None:
        self.errors.append(message)

    def warn(self, message: str) -> None:
        self.warnings.append(message)


class BundleValidator:
    """Structural + referential validation of FHIR bundles."""

    def __init__(self, known_patient_ids: Optional[Set[str]] = None) -> None:
        self._known_patients = set(known_patient_ids or set())

    def validate(self, bundle: Bundle) -> ValidationReport:
        """Validate every resource and cross-references; never raises."""
        report = ValidationReport()
        if not bundle.id:
            report.error("bundle: missing id")
        if not bundle.entries:
            report.error("bundle: empty")
        seen_ids: Set[str] = set()
        patient_ids = {p.id for p in bundle.resources_of(Patient)}
        for resource in bundle.entries:
            key = f"{resource.RESOURCE_TYPE}/{resource.id}"
            if key in seen_ids:
                report.error(f"{key}: duplicate resource id in bundle")
            seen_ids.add(key)
            self._validate_resource(resource, patient_ids, report)
        return report

    def _validate_resource(self, resource: Resource, patient_ids: Set[str],
                           report: ValidationReport) -> None:
        if not resource.id:
            report.error(f"{resource.RESOURCE_TYPE}: missing id")
            return
        if isinstance(resource, Patient):
            self._validate_patient(resource, report)
        elif isinstance(resource, Observation):
            self._validate_observation(resource, patient_ids, report)
        elif isinstance(resource, Condition):
            self._validate_condition(resource, patient_ids, report)
        elif isinstance(resource, MedicationRequest):
            self._validate_medication(resource, patient_ids, report)
        elif isinstance(resource, Consent):
            self._validate_consent(resource, patient_ids, report)
        elif isinstance(resource, Encounter):
            self._validate_encounter(resource, patient_ids, report)
        elif isinstance(resource, DiagnosticReport):
            self._validate_diagnostic_report(resource, patient_ids, report)

    def _check_subject(self, label: str, subject: Optional[str],
                       patient_ids: Set[str], report: ValidationReport) -> None:
        if not subject:
            report.error(f"{label}: missing subject reference")
            return
        if not subject.startswith("Patient/"):
            report.error(f"{label}: subject must be a Patient reference")
            return
        pid = subject.split("/", 1)[1]
        if pid not in patient_ids and pid not in self._known_patients:
            report.error(f"{label}: references unknown patient {pid}")

    def _validate_patient(self, patient: Patient,
                          report: ValidationReport) -> None:
        label = f"Patient/{patient.id}"
        if patient.birthDate and not _DATE_RE.match(patient.birthDate):
            report.error(f"{label}: birthDate must be YYYY-MM-DD")
        if patient.gender and patient.gender not in _GENDERS:
            report.error(f"{label}: invalid gender {patient.gender!r}")
        if not patient.name:
            report.warn(f"{label}: no name recorded")

    def _validate_observation(self, obs: Observation, patient_ids: Set[str],
                              report: ValidationReport) -> None:
        label = f"Observation/{obs.id}"
        if obs.status not in _OBS_STATUSES:
            report.error(f"{label}: invalid status {obs.status!r}")
        if not obs.code:
            report.error(f"{label}: missing code")
        self._check_subject(label, obs.subject, patient_ids, report)
        if obs.effectiveDateTime and not _DATETIME_RE.match(obs.effectiveDateTime):
            report.error(f"{label}: malformed effectiveDateTime")
        if obs.valueQuantity:
            value = obs.valueQuantity.get("value")
            if not isinstance(value, (int, float)):
                report.error(f"{label}: valueQuantity.value must be numeric")

    def _validate_condition(self, condition: Condition, patient_ids: Set[str],
                            report: ValidationReport) -> None:
        label = f"Condition/{condition.id}"
        if not condition.code:
            report.error(f"{label}: missing code")
        self._check_subject(label, condition.subject, patient_ids, report)

    def _validate_medication(self, med: MedicationRequest,
                             patient_ids: Set[str],
                             report: ValidationReport) -> None:
        label = f"MedicationRequest/{med.id}"
        if not med.medication:
            report.error(f"{label}: missing medication")
        self._check_subject(label, med.subject, patient_ids, report)
        if med.authoredOn and not _DATETIME_RE.match(med.authoredOn):
            report.error(f"{label}: malformed authoredOn")

    def _validate_encounter(self, encounter: Encounter,
                            patient_ids: Set[str],
                            report: ValidationReport) -> None:
        label = f"Encounter/{encounter.id}"
        if encounter.status not in _ENCOUNTER_STATUSES:
            report.error(f"{label}: invalid status {encounter.status!r}")
        if encounter.classCode not in _ENCOUNTER_CLASSES:
            report.error(f"{label}: invalid class {encounter.classCode!r}")
        self._check_subject(label, encounter.subject, patient_ids, report)
        for attr in ("periodStart", "periodEnd"):
            value = getattr(encounter, attr)
            if value and not _DATETIME_RE.match(value):
                report.error(f"{label}: malformed {attr}")
        if (encounter.periodStart and encounter.periodEnd
                and encounter.periodEnd < encounter.periodStart):
            report.error(f"{label}: period ends before it starts")

    def _validate_diagnostic_report(self, diagnostic: DiagnosticReport,
                                    patient_ids: Set[str],
                                    report: ValidationReport) -> None:
        label = f"DiagnosticReport/{diagnostic.id}"
        if not diagnostic.code:
            report.error(f"{label}: missing code")
        self._check_subject(label, diagnostic.subject, patient_ids, report)
        for reference in diagnostic.result:
            if not reference.startswith("Observation/"):
                report.error(f"{label}: result {reference!r} must reference "
                             "an Observation")

    def _validate_consent(self, consent: Consent, patient_ids: Set[str],
                          report: ValidationReport) -> None:
        label = f"Consent/{consent.id}"
        if not consent.patient:
            report.error(f"{label}: missing patient reference")
            return
        self._check_subject(label, consent.patient, patient_ids, report)
        if consent.groupId is None:
            report.warn(f"{label}: consent not tied to a study group")
