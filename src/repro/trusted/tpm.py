"""Software Trusted Platform Module (Section II-A, ref [6]).

Models the TPM operations the platform's root of trust relies on:

* **PCR banks** with the ``extend`` hash-chaining operation — the only way
  a PCR changes, so a PCR value summarises the exact sequence of measured
  components since reset;
* **quotes** — the PCR bank signed with a TPM-resident attestation key,
  bound to a verifier-chosen nonce to prevent replay;
* **seal/unseal** — encrypting data so it can only be recovered when the
  PCRs hold specified values.

The attestation service appraises quotes against golden values; nothing in
the trust logic depends on the TPM being hardware.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.canonical import canonical_json
from ..core.errors import AttestationError, IntegrityError
from ..crypto.rsa import (
    RsaPrivateKey,
    RsaPublicKey,
    generate_keypair,
    rsa_sign,
    rsa_verify,
)
from ..crypto.symmetric import Ciphertext, SharedKeyCipher, hkdf_expand

PCR_COUNT = 24
_ZERO = b"\x00" * 32


@dataclass(frozen=True)
class Quote:
    """A signed snapshot of selected PCRs.

    ``pcr_values`` maps PCR index -> hex digest at quote time.  ``nonce``
    is the verifier's anti-replay challenge.  ``signature`` covers both.
    """

    tpm_id: str
    nonce: bytes
    pcr_values: Dict[int, str]
    event_count: int
    signature: bytes

    def payload(self) -> bytes:
        return canonical_json(
            {"tpm": self.tpm_id, "nonce": self.nonce.hex(),
             "pcrs": {str(k): v for k, v in sorted(self.pcr_values.items())},
             "events": self.event_count})


@dataclass(frozen=True)
class MeasurementEvent:
    """One entry of the measured-boot event log."""

    pcr_index: int
    component: str
    measurement: str  # hex digest of the component


class Tpm:
    """One TPM instance: PCR bank, event log, attestation + storage keys."""

    def __init__(self, tpm_id: str, seed: Optional[int] = None) -> None:
        self.tpm_id = tpm_id
        self._pcrs: List[bytes] = [_ZERO] * PCR_COUNT
        self._event_log: List[MeasurementEvent] = []
        key_seed = None if seed is None else seed * 7919 + 13
        self._aik: RsaPrivateKey = generate_keypair(bits=1024, seed=key_seed)
        seal_seed = f"tpm-seal:{tpm_id}:{seed}".encode()
        self._seal_key = hashlib.sha256(seal_seed).digest()

    # -- PCR operations -------------------------------------------------------

    def extend(self, pcr_index: int, component: str, measurement: str) -> str:
        """PCR <- H(PCR || measurement); append to the event log."""
        self._check_index(pcr_index)
        digest = bytes.fromhex(measurement)
        self._pcrs[pcr_index] = hashlib.sha256(
            self._pcrs[pcr_index] + digest).digest()
        self._event_log.append(MeasurementEvent(pcr_index, component, measurement))
        return self._pcrs[pcr_index].hex()

    def read_pcr(self, pcr_index: int) -> str:
        self._check_index(pcr_index)
        return self._pcrs[pcr_index].hex()

    def reset(self) -> None:
        """Platform reset: PCRs return to zero, log cleared."""
        self._pcrs = [_ZERO] * PCR_COUNT
        self._event_log = []

    @property
    def event_log(self) -> List[MeasurementEvent]:
        return list(self._event_log)

    # -- attestation ----------------------------------------------------------

    @property
    def attestation_public_key(self) -> RsaPublicKey:
        return self._aik.public_key()

    def quote(self, nonce: bytes, pcr_indices: Tuple[int, ...]) -> Quote:
        """Sign the selected PCRs together with the verifier's nonce."""
        for i in pcr_indices:
            self._check_index(i)
        values = {i: self._pcrs[i].hex() for i in pcr_indices}
        unsigned = Quote(self.tpm_id, nonce, values, len(self._event_log), b"")
        signature = rsa_sign(self._aik, unsigned.payload())
        return Quote(self.tpm_id, nonce, values, len(self._event_log), signature)

    # -- sealed storage ---------------------------------------------------------

    def seal(self, data: bytes, pcr_indices: Tuple[int, ...]) -> bytes:
        """Encrypt data bound to the *current* values of the given PCRs."""
        policy = self._pcr_policy(pcr_indices)
        cipher = SharedKeyCipher(hkdf_expand(self._seal_key, policy))
        header = json.dumps(sorted(pcr_indices)).encode()
        sealed = cipher.encrypt(data, associated_data=header)
        return len(header).to_bytes(4, "big") + header + sealed.to_bytes()

    def unseal(self, blob: bytes) -> bytes:
        """Recover sealed data; fails if any bound PCR has changed."""
        header_len = int.from_bytes(blob[:4], "big")
        header = blob[4:4 + header_len]
        pcr_indices = tuple(json.loads(header.decode()))
        policy = self._pcr_policy(pcr_indices)
        cipher = SharedKeyCipher(hkdf_expand(self._seal_key, policy))
        try:
            return cipher.decrypt(Ciphertext.from_bytes(blob[4 + header_len:]),
                                  associated_data=header)
        except IntegrityError:
            raise AttestationError(
                "unseal failed: PCR state differs from seal-time policy"
            ) from None

    def _pcr_policy(self, pcr_indices: Tuple[int, ...]) -> bytes:
        h = hashlib.sha256()
        for i in sorted(pcr_indices):
            self._check_index(i)
            h.update(i.to_bytes(1, "big") + self._pcrs[i])
        return h.digest()

    def _check_index(self, i: int) -> None:
        if not 0 <= i < PCR_COUNT:
            raise IndexError(f"PCR index {i} out of range")


def verify_quote(public_key: RsaPublicKey, quote: Quote, nonce: bytes) -> bool:
    """Check quote signature and nonce freshness."""
    if quote.nonce != nonce:
        return False
    return rsa_verify(public_key, quote.payload(), quote.signature)


# Conventional PCR allocation used by the trust chain (mirrors TCG usage).
PCR_CRTM = 0
PCR_BIOS = 1
PCR_HYPERVISOR = 2
PCR_VM_BIOS = 8
PCR_VM_KERNEL = 9
PCR_VM_IMAGE = 10
PCR_CONTAINER = 12
