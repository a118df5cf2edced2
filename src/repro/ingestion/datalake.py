"""Data Lake: the trusted backend storage system (Sections II-B, IV-B1).

"After the data is ingested, it is encrypted using a different key or set
of keys ... Both the original and anonymized versions of data objects are
encrypted and stored."  Records are therefore stored as AEAD ciphertexts
under *per-patient data keys* minted by the KMS.  Crypto-deletion of a
patient's key (GDPR right-to-forget) makes every stored version of their
records unreadable, which :meth:`forget_patient` implements.

Metadata (reference-id mappings, consent group, content hashes) lives in a
separate protected index, mirroring the paper's "the reference-id to
identity the mapping is stored in the metadata."
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.errors import IntegrityError, NotFoundError
from ..crypto.kms import KeyManagementService
from ..crypto.symmetric import Ciphertext, SharedKeyCipher


@dataclass
class StoredRecord:
    """One encrypted record version in the lake."""

    record_id: str
    patient_ref: str          # pseudonymous reference id
    kind: str                 # "original" | "anonymized"
    ciphertext: bytes
    wrapped_key: bytes
    key_id: str
    key_version: int
    content_hash: str         # hash of the plaintext, for provenance
    group_id: Optional[str] = None


class DataLake:
    """Encrypted, versioned record store with per-patient envelope keys."""

    SERVICE_PRINCIPAL = "data-lake"

    def __init__(self, kms: KeyManagementService) -> None:
        self._kms = kms
        self._records: Dict[str, StoredRecord] = {}
        self._by_patient: Dict[str, List[str]] = {}
        self._patient_keys: Dict[str, str] = {}   # patient_ref -> key_id
        self._metadata: Dict[str, Dict[str, str]] = {}
        self._counter = 0

    # -- key handling -----------------------------------------------------------

    def _key_for_patient(self, patient_ref: str) -> str:
        key_id = self._patient_keys.get(patient_ref)
        if key_id is None:
            key_id = self._kms.create_key(
                purpose=f"patient-data:{patient_ref}",
                allowed_principals={self.SERVICE_PRINCIPAL})
            self._patient_keys[patient_ref] = key_id
        return key_id

    # -- storage ------------------------------------------------------------------

    def store(self, patient_ref: str, plaintext: bytes, kind: str = "original",
              group_id: Optional[str] = None,
              metadata: Optional[Dict[str, str]] = None) -> StoredRecord:
        """Encrypt and store one record version; returns the stored entry."""
        if kind not in ("original", "anonymized"):
            raise ValueError(f"unknown record kind {kind!r}")
        key_id = self._key_for_patient(patient_ref)
        data_key = self._kms.generate_data_key(key_id, self.SERVICE_PRINCIPAL)
        cipher = SharedKeyCipher(data_key.plaintext)
        self._counter += 1
        record_id = f"rec-{self._counter:08d}"
        encrypted = cipher.encrypt(plaintext,
                                   associated_data=record_id.encode())
        record = StoredRecord(
            record_id=record_id,
            patient_ref=patient_ref,
            kind=kind,
            ciphertext=encrypted.to_bytes(),
            wrapped_key=data_key.wrapped,
            key_id=key_id,
            key_version=data_key.key_version,
            content_hash=hashlib.sha256(plaintext).hexdigest(),
            group_id=group_id,
        )
        self._records[record_id] = record
        self._by_patient.setdefault(patient_ref, []).append(record_id)
        if metadata:
            self._metadata[record_id] = dict(metadata)
        return record

    def retrieve(self, record_id: str) -> bytes:
        """Decrypt one record; fails after crypto-deletion of the patient key."""
        record = self._record(record_id)
        data_key = self._kms.unwrap_data_key(
            record.key_id, record.wrapped_key, self.SERVICE_PRINCIPAL,
            key_version=record.key_version)
        cipher = SharedKeyCipher(data_key)
        plaintext = cipher.decrypt(Ciphertext.from_bytes(record.ciphertext),
                                   associated_data=record_id.encode())
        if hashlib.sha256(plaintext).hexdigest() != record.content_hash:
            raise IntegrityError(f"record {record_id} hash mismatch")
        return plaintext

    def metadata_of(self, record_id: str) -> Dict[str, str]:
        self._record(record_id)  # existence check
        return dict(self._metadata.get(record_id, {}))

    def records_for_patient(self, patient_ref: str,
                            kind: Optional[str] = None) -> List[StoredRecord]:
        records = [self._records[r]
                   for r in self._by_patient.get(patient_ref, [])]
        if kind is not None:
            records = [r for r in records if r.kind == kind]
        return records

    def records_for_group(self, group_id: str,
                          kind: Optional[str] = None) -> List[StoredRecord]:
        records = [r for r in self._records.values()
                   if r.group_id == group_id]
        if kind is not None:
            records = [r for r in records if r.kind == kind]
        return sorted(records, key=lambda r: r.record_id)

    # -- right to forget -------------------------------------------------------------

    def forget_patient(self, patient_ref: str) -> int:
        """GDPR right-to-forget via crypto-deletion.

        Destroys the patient's master key (all versions) so every stored
        ciphertext becomes permanently unreadable, then drops the metadata.
        Returns the number of record versions affected.
        """
        key_id = self._patient_keys.get(patient_ref)
        if key_id is None:
            return 0
        self._kms.destroy_key(key_id)
        affected = self._by_patient.get(patient_ref, [])
        for record_id in affected:
            self._metadata.pop(record_id, None)
        return len(affected)

    @property
    def record_count(self) -> int:
        return len(self._records)

    def _record(self, record_id: str) -> StoredRecord:
        try:
            return self._records[record_id]
        except KeyError:
            raise NotFoundError(f"record {record_id} not in lake") from None
