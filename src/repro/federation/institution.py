"""One institution's private enclave in a federated study.

An :class:`Institution` owns a private EMR partition (longitudinal
patient series plus drug-disease evidence), its own consent registry, and
its own masking key.  Nothing leaves the institution except
pairwise-masked fixed-point partial statistics, encrypted under a
per-study key and logged in the institution's *egress log* — the audit
trail the benchmark checks to assert that zero raw patient rows ever
crossed the trust boundary.

Delivery to the coordinator goes through :meth:`Institution.transmit`,
which consults an attached :class:`~repro.cloudsim.faults.FaultPlan`
(``link_dropped(institution, "coordinator")``), so chaos experiments can
drop an institution's uplink mid-study.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analytics.delt import PatientSeries, patient_loss, patient_partials
from ..cloudsim.clock import SimClock
from ..core.errors import ServiceUnavailableError, StudyError
from ..crypto.symmetric import SharedKeyCipher, generate_key, hkdf_expand
from ..privacy.consent import ConsentManagementService
from .secure import mask_vector, words_to_bytes

COORDINATOR = "coordinator"


@dataclass(frozen=True)
class EgressRecord:
    """One item that left the institution, as seen by its audit log."""

    study_id: str
    round_tag: str
    kind: str
    digest: str
    commitment: str
    nbytes: int
    at: float


@dataclass(frozen=True)
class MaskedUpload:
    """An encrypted masked partial plus its binding commitment inputs."""

    study_id: str
    round_tag: str
    institution: str
    words: Tuple[int, ...]
    ciphertext: bytes
    key_fingerprint: str
    created_at: float

    def commitment(self) -> str:
        """``H(ciphertext || key_fingerprint || ts || institution)``."""
        h = hashlib.sha256()
        h.update(self.ciphertext)
        h.update(self.key_fingerprint.encode())
        h.update(repr(self.created_at).encode())
        h.update(self.institution.encode())
        return h.hexdigest()


class Institution:
    """A private EMR partition participating in federated studies."""

    def __init__(self, name: str, clock: Optional[SimClock] = None, *,
                 patients: Sequence[PatientSeries] = (),
                 evidence: Optional[Dict[str, List[Tuple[int, int]]]] = None,
                 masking_seed: int = 0,
                 consent: Optional[ConsentManagementService] = None) -> None:
        self.name = name
        self.clock = clock if clock is not None else SimClock()
        self.consent = (consent if consent is not None
                        else ConsentManagementService(self.clock))
        self._patients: Dict[str, PatientSeries] = {
            p.patient_id: p for p in patients}
        # patient -> [(drug_index, disease_index), ...] observed evidence.
        self._evidence: Dict[str, List[Tuple[int, int]]] = dict(evidence or {})
        self.masking_key = generate_key(masking_seed)
        self._study_keys: Dict[str, bytes] = {}
        self._ciphers: Dict[str, SharedKeyCipher] = {}
        self._delt_trends: Dict[str, Dict[str, Tuple[float, float]]] = {}
        self.egress_log: List[EgressRecord] = []
        self.fault_plan = None  # chaos hook: assign a FaultPlan

    # -- population -----------------------------------------------------------

    @property
    def n_patients(self) -> int:
        return len(self._patients)

    @property
    def patient_ids(self) -> List[str]:
        return sorted(set(self._patients) | set(self._evidence))

    def grant_consent(self, patient_id: str, group_id: str) -> None:
        """Record a patient's consent for a study group at this site."""
        self.consent.grant(patient_id, group_id)

    def consented_patients(self, group_id: str) -> List[str]:
        """Patients whose active consent covers the study group."""
        return [pid for pid in self.patient_ids
                if self.consent.has_consent(pid, group_id)]

    # -- study enrollment -----------------------------------------------------

    def enroll_study(self, study_id: str, study_master_key: bytes) -> None:
        """Derive this institution's per-study upload key."""
        key = hkdf_expand(study_master_key, b"inst|" + self.name.encode())
        self._study_keys[study_id] = key
        self._ciphers[study_id] = SharedKeyCipher(key)

    def key_fingerprint(self, study_id: str) -> str:
        key = self._study_keys.get(study_id)
        if key is None:
            raise StudyError(
                f"{self.name} is not enrolled in study {study_id!r}")
        return hashlib.sha256(key).hexdigest()[:16]

    # -- local partial statistics --------------------------------------------

    def jmf_counts(self, group_id: str, n_drugs: int,
                   n_diseases: int) -> np.ndarray:
        """Flat drug x disease evidence-count matrix over consented patients."""
        counts = np.zeros((n_drugs, n_diseases), dtype=float)
        for pid in self.consented_patients(group_id):
            for drug, disease in self._evidence.get(pid, []):
                counts[drug, disease] += 1.0
        return counts.reshape(-1)

    def delt_partials(self, group_id: str, beta: np.ndarray,
                      use_time_drift: bool = True) -> np.ndarray:
        """Summed ``(gram, moment)`` over consented patients, flattened.

        Runs the same :func:`~repro.analytics.delt.patient_partials` the
        centralized model runs; the per-patient trends stay local (cached
        for the loss round) — only the sums are returned for masking.
        """
        n_drugs = beta.shape[0]
        gram = np.zeros((n_drugs, n_drugs))
        moment = np.zeros(n_drugs)
        trends = self._delt_trends.setdefault(group_id, {})
        for pid in self.consented_patients(group_id):
            patient = self._patients.get(pid)
            if patient is None:
                continue
            g, m, alpha, drift = patient_partials(patient, beta,
                                                  use_time_drift)
            trends[pid] = (alpha, drift)
            gram += g
            moment += m
        return np.concatenate([gram.reshape(-1), moment])

    def delt_loss(self, group_id: str, beta: np.ndarray) -> np.ndarray:
        """Summed squared-error term under the cached per-patient trends."""
        trends = self._delt_trends.get(group_id, {})
        loss = 0.0
        for pid in self.consented_patients(group_id):
            patient = self._patients.get(pid)
            if patient is None or pid not in trends:
                continue
            alpha, drift = trends[pid]
            loss += patient_loss(patient, beta, alpha, drift)
        return np.array([loss])

    # -- egress ---------------------------------------------------------------

    def masked_upload(self, study_id: str, round_tag: str,
                      values: np.ndarray,
                      peer_secrets: Dict[str, bytes]) -> MaskedUpload:
        """Mask, encrypt, and log one partial statistic for upload."""
        cipher = self._ciphers.get(study_id)
        if cipher is None:
            raise StudyError(
                f"{self.name} is not enrolled in study {study_id!r}")
        words = mask_vector(values, self.name, peer_secrets, round_tag)
        payload = words_to_bytes(words)
        associated = f"{study_id}|{round_tag}|{self.name}".encode()
        ciphertext = cipher.encrypt(payload, associated).to_bytes()
        upload = MaskedUpload(
            study_id=study_id, round_tag=round_tag, institution=self.name,
            words=tuple(words), ciphertext=ciphertext,
            key_fingerprint=self.key_fingerprint(study_id),
            created_at=self.clock.now)
        self.egress_log.append(EgressRecord(
            study_id=study_id, round_tag=round_tag, kind="masked-partial",
            digest=hashlib.sha256(ciphertext).hexdigest(),
            commitment=upload.commitment(), nbytes=len(ciphertext),
            at=self.clock.now))
        return upload

    def transmit(self, upload: MaskedUpload) -> MaskedUpload:
        """Deliver an upload over the institution -> coordinator link.

        Raises :class:`ServiceUnavailableError` while an attached fault
        plan is dropping this institution's uplink.
        """
        plan = self.fault_plan
        if plan is not None and plan.link_dropped(self.name, COORDINATOR):
            raise ServiceUnavailableError(
                f"link {self.name} -> {COORDINATOR} dropped")
        return upload
