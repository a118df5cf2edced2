"""Anonymization Verification Service (Sections II-B, IV-C).

"Our anonymization verification service verifies the degree of
anonymization of the receiving data...  The degree of anonymization/privacy
has two parts — one independent of other data objects and another that is
determined holistically with respect to other data objects."

* The **independent degree** scans a single record for residual
  Safe-Harbor identifiers (1.0 = none present, decreasing per category).
* The **holistic degree** evaluates a record against the already-stored
  population: the size of the quasi-identifier equivalence class it would
  join (normalised against a target k).

Records that fail a policy threshold are rejected by ingestion —
"if the anonymization verification service determines that a claimed
anonymized record is not properly anonymized, then such a record is
dropped, and a response is sent back to the sender."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.errors import AnonymizationError
from ..fhir.resources import Bundle, Patient, Resource
from .deidentify import phi_identifiers_present

# Weight of each residual identifier category when scoring a record.
_CATEGORY_WEIGHTS: Dict[str, float] = {
    "name": 0.35,
    "identifier": 0.35,
    "telecom": 0.25,
    "full-birthdate": 0.20,
    "sub-state-geography": 0.15,
    "direct-patient-reference": 0.30,
}


@dataclass(frozen=True)
class AnonymizationAssessment:
    """Scored verdict for one record or bundle."""

    independent_degree: float        # 1.0 = fully de-identified
    holistic_degree: float           # 1.0 = blends into a class of >= target k
    residual_identifiers: Tuple[str, ...]
    passed: bool

    @property
    def overall_degree(self) -> float:
        """Conservative combination: the weaker of the two parts."""
        return min(self.independent_degree, self.holistic_degree)


class AnonymizationVerificationService:
    """Scores anonymization degree and enforces a minimum policy."""

    def __init__(self, minimum_degree: float = 0.8, target_k: int = 5,
                 holistic_gating: bool = False) -> None:
        """``holistic_gating`` controls whether the population-dependent
        part participates in pass/fail.  Ingestion gates on the independent
        degree only (a cold-start population would otherwise reject every
        early record); release/export policies enable holistic gating.
        """
        if not 0.0 <= minimum_degree <= 1.0:
            raise AnonymizationError("minimum_degree must be in [0, 1]")
        if target_k < 1:
            raise AnonymizationError("target_k must be >= 1")
        self.minimum_degree = minimum_degree
        self.target_k = target_k
        self.holistic_gating = holistic_gating
        # Population of quasi-identifier profiles already accepted, used for
        # the holistic part.  Profiles are (gender, birth_year, state).
        self._population: Dict[Tuple[str, str, str], int] = {}

    # -- scoring ---------------------------------------------------------------

    def independent_degree(self, resource: Resource) -> Tuple[float, List[str]]:
        """Per-record score: 1 minus the weight of residual identifiers."""
        residual = phi_identifiers_present(resource)
        penalty = sum(_CATEGORY_WEIGHTS.get(cat, 0.1) for cat in residual)
        return max(0.0, 1.0 - penalty), residual

    def _profile(self, patient: Patient) -> Tuple[str, str, str]:
        return (
            patient.gender or "unknown",
            (patient.birthDate or "")[:4],
            (patient.address or {}).get("state", ""),
        )

    def holistic_degree(self, patient: Patient) -> float:
        """Population score: class size this record joins vs. target k."""
        profile = self._profile(patient)
        class_size = self._population.get(profile, 0) + 1  # counting itself
        return min(1.0, class_size / self.target_k)

    def assess_resource(self, resource: Resource) -> AnonymizationAssessment:
        """Full two-part assessment of one resource."""
        independent, residual = self.independent_degree(resource)
        holistic = (self.holistic_degree(resource)
                    if isinstance(resource, Patient) else 1.0)
        gating = min(independent, holistic) if self.holistic_gating else independent
        return AnonymizationAssessment(
            independent_degree=independent,
            holistic_degree=holistic,
            residual_identifiers=tuple(residual),
            passed=gating >= self.minimum_degree,
        )

    def assess_bundle(self, bundle: Bundle) -> AnonymizationAssessment:
        """Bundle score: the weakest resource decides."""
        if not bundle.entries:
            raise AnonymizationError("cannot assess an empty bundle")
        assessments = [self.assess_resource(r) for r in bundle.entries]
        residual = tuple(sorted({cat for a in assessments
                                 for cat in a.residual_identifiers}))
        return AnonymizationAssessment(
            independent_degree=min(a.independent_degree for a in assessments),
            holistic_degree=min(a.holistic_degree for a in assessments),
            residual_identifiers=residual,
            passed=all(a.passed for a in assessments),
        )

    # -- population bookkeeping --------------------------------------------------

    def admit(self, bundle: Bundle) -> None:
        """Record accepted patients so future holistic scores see them."""
        for patient in bundle.resources_of(Patient):
            profile = self._profile(patient)
            self._population[profile] = self._population.get(profile, 0) + 1
