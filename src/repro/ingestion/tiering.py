"""Privacy-tiered storage routing (Fig. 4, Sections I and III).

"Our system can be used for storing data with differing privacy
requirements.  Some of the data are highly confidential ... Other data do
not have such strong data confidentiality requirements."  Fig. 4 draws
two servers: a data-analytics server for low-sensitivity data and a
confidential-data server for PHI.

:class:`TieredStorageRouter` classifies payloads and routes them to the
right tier, enforcing tier policy: PHI may only land on the confidential
tier (encrypted, consent-gated, caching disabled), while public/derived
data lands on the analytics tier where caching is allowed.  Misrouting
attempts raise; classification of FHIR content is automatic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

from ..core.errors import ComplianceError, NotFoundError
from ..fhir.resources import Bundle, Patient
from ..privacy.deidentify import phi_identifiers_present
from .datalake import DataLake, StoredRecord


class DataClassification(Enum):
    """Sensitivity tiers, lowest to highest."""

    PUBLIC = "public"                # knowledge bases, publications
    INTERNAL = "internal"            # aggregates, model artifacts
    DEIDENTIFIED = "deidentified"    # pseudonymous clinical data
    PHI = "phi"                      # identifiable patient data


@dataclass(frozen=True)
class TierPolicy:
    """What a storage tier may hold and how it behaves."""

    name: str
    max_classification: DataClassification
    cacheable: bool
    requires_encryption: bool


# The two servers of Fig. 4.
ANALYTICS_TIER = TierPolicy(
    name="analytics-server",
    max_classification=DataClassification.DEIDENTIFIED,
    cacheable=True,
    requires_encryption=False,
)
CONFIDENTIAL_TIER = TierPolicy(
    name="confidential-server",
    max_classification=DataClassification.PHI,
    cacheable=False,
    requires_encryption=True,
)

_ORDER = [DataClassification.PUBLIC, DataClassification.INTERNAL,
          DataClassification.DEIDENTIFIED, DataClassification.PHI]


def classification_rank(classification: DataClassification) -> int:
    return _ORDER.index(classification)


def classify_bundle(bundle: Bundle) -> DataClassification:
    """Automatic classification of FHIR content.

    Any residual Safe-Harbor identifier makes the bundle PHI; otherwise
    patient-linked (pseudonymous) content is DEIDENTIFIED; otherwise
    INTERNAL.
    """
    has_clinical = False
    for resource in bundle.entries:
        if phi_identifiers_present(resource):
            return DataClassification.PHI
        if isinstance(resource, Patient) or getattr(resource, "subject",
                                                    None):
            has_clinical = True
    return (DataClassification.DEIDENTIFIED if has_clinical
            else DataClassification.INTERNAL)


@dataclass
class TierPlacement:
    """Where a payload ended up."""

    tier: str
    classification: DataClassification
    record: Optional[StoredRecord] = None    # confidential tier
    key: Optional[str] = None                # analytics tier


class TieredStorageRouter:
    """Routes payloads between the analytics and confidential servers."""

    def __init__(self, confidential_lake: DataLake) -> None:
        self._confidential = confidential_lake
        # The analytics tier is a plain keyed store (cacheable, may be
        # replicated into caches freely).
        self._analytics: Dict[str, bytes] = {}
        self._classifications: Dict[str, DataClassification] = {}
        self._counter = 0

    # -- routing -----------------------------------------------------------

    def place_bundle(self, bundle: Bundle, patient_ref: str,
                     group_id: Optional[str] = None) -> TierPlacement:
        """Classify and store a bundle on the appropriate tier."""
        classification = classify_bundle(bundle)
        payload = bundle.to_json().encode()
        return self.place(payload, classification,
                          patient_ref=patient_ref, group_id=group_id)

    def place(self, payload: bytes, classification: DataClassification,
              patient_ref: str = "anonymous",
              group_id: Optional[str] = None) -> TierPlacement:
        """Store a classified payload; PHI must go encrypted + gated."""
        if classification_rank(classification) > classification_rank(
                ANALYTICS_TIER.max_classification):
            record = self._confidential.store(
                patient_ref, payload, kind="original", group_id=group_id)
            return TierPlacement(CONFIDENTIAL_TIER.name, classification,
                                 record=record)
        self._counter += 1
        key = f"an-{self._counter:08d}"
        self._analytics[key] = payload
        self._classifications[key] = classification
        return TierPlacement(ANALYTICS_TIER.name, classification, key=key)

    def place_on_analytics_tier(self, payload: bytes,
                                classification: DataClassification) -> str:
        """Explicit analytics-tier placement; PHI is refused."""
        if classification_rank(classification) > classification_rank(
                ANALYTICS_TIER.max_classification):
            raise ComplianceError(
                f"{classification.value} data may not be stored on the "
                f"analytics tier")
        placement = self.place(payload, classification)
        assert placement.key is not None
        return placement.key

    # -- reads --------------------------------------------------------------------

    def read_analytics(self, key: str) -> bytes:
        try:
            return self._analytics[key]
        except KeyError:
            raise NotFoundError(f"analytics key {key!r} not found") from None

    def is_cacheable(self, key: str) -> bool:
        """Per Fig. 4, only analytics-tier data participates in caching."""
        return key in self._analytics

    def tier_of(self, placement: TierPlacement) -> TierPolicy:
        return (CONFIDENTIAL_TIER
                if placement.tier == CONFIDENTIAL_TIER.name
                else ANALYTICS_TIER)

    def analytics_inventory(self) -> List[Tuple[str, DataClassification]]:
        return sorted((key, self._classifications[key])
                      for key in self._analytics)
