"""Attestation Service (Section II-A, Fig. 1).

Appraises TPM/vTPM quotes against *golden values* — the expected PCR
contents for approved software stacks.  The Change Management service
(Section II-B) is the only writer of golden values: "the CM service
accordingly updates the Attestation Service regarding the approved changes
and their new signatures."

Also maintains the approved-signer list the Image Management service
consults, and issues anti-replay nonces for remote attestation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Set, Tuple

from ..core.errors import NotFoundError
from ..crypto.rsa import RsaPublicKey
from .tpm import Quote, Tpm, verify_quote


class TrustVerdict(Enum):
    """Outcome of an appraisal."""

    TRUSTED = "trusted"
    UNTRUSTED = "untrusted"
    UNKNOWN_PLATFORM = "unknown_platform"


@dataclass(frozen=True)
class AppraisalResult:
    """Structured appraisal outcome with the evidence that produced it."""

    verdict: TrustVerdict
    tpm_id: str
    mismatched_pcrs: Tuple[int, ...] = ()
    reason: str = ""

    @property
    def trusted(self) -> bool:
        return self.verdict is TrustVerdict.TRUSTED


class AttestationService:
    """Registry of attestation keys + golden PCR values; quote appraiser."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._nonce_counter = 0
        self._aik_registry: Dict[str, RsaPublicKey] = {}
        self._golden: Dict[str, Dict[int, str]] = {}
        self._approved_signers: Set[str] = set()
        self._appraisals: List[AppraisalResult] = []

    # -- enrollment (done at provisioning / by change management) -----------

    def enroll_platform(self, tpm: Tpm) -> None:
        """Register a platform's attestation key."""
        self._aik_registry[tpm.tpm_id] = tpm.attestation_public_key

    def set_golden_values(self, tpm_id: str, pcr_values: Dict[int, str]) -> None:
        """Record/replace the expected PCR values for a platform."""
        self._golden[tpm_id] = dict(pcr_values)

    def golden_values(self, tpm_id: str) -> Dict[int, str]:
        try:
            return dict(self._golden[tpm_id])
        except KeyError:
            raise NotFoundError(f"no golden values for {tpm_id}") from None

    def approve_signer(self, key_fingerprint: str) -> None:
        """Add a key to the approved image-signer list."""
        self._approved_signers.add(key_fingerprint)

    def revoke_signer(self, key_fingerprint: str) -> None:
        self._approved_signers.discard(key_fingerprint)

    def is_approved_signer(self, key_fingerprint: str) -> bool:
        return key_fingerprint in self._approved_signers

    # -- appraisal -------------------------------------------------------------

    def fresh_nonce(self) -> bytes:
        """Anti-replay challenge for a remote attestation round."""
        self._nonce_counter += 1
        return hashlib.sha256(
            f"attest-nonce:{self._seed}:{self._nonce_counter}".encode()).digest()[:16]

    def appraise(self, quote: Quote, nonce: bytes) -> AppraisalResult:
        """Verify quote signature, nonce, and PCRs against golden values."""
        aik = self._aik_registry.get(quote.tpm_id)
        if aik is None:
            result = AppraisalResult(TrustVerdict.UNKNOWN_PLATFORM, quote.tpm_id,
                                     reason="attestation key not enrolled")
            self._appraisals.append(result)
            return result
        if not verify_quote(aik, quote, nonce):
            result = AppraisalResult(TrustVerdict.UNTRUSTED, quote.tpm_id,
                                     reason="quote signature or nonce invalid")
            self._appraisals.append(result)
            return result
        golden = self._golden.get(quote.tpm_id)
        if golden is None:
            result = AppraisalResult(TrustVerdict.UNKNOWN_PLATFORM, quote.tpm_id,
                                     reason="no golden values registered")
            self._appraisals.append(result)
            return result
        mismatched = tuple(sorted(
            i for i, expected in golden.items()
            if quote.pcr_values.get(i) != expected))
        if mismatched:
            result = AppraisalResult(TrustVerdict.UNTRUSTED, quote.tpm_id,
                                     mismatched_pcrs=mismatched,
                                     reason="PCR values diverge from golden")
        else:
            result = AppraisalResult(TrustVerdict.TRUSTED, quote.tpm_id)
        self._appraisals.append(result)
        return result

    def attest(self, tpm: Tpm, pcr_indices: Tuple[int, ...]) -> AppraisalResult:
        """Run one full remote-attestation round against a live TPM."""
        nonce = self.fresh_nonce()
        quote = tpm.quote(nonce, pcr_indices)
        return self.appraise(quote, nonce)

    @property
    def appraisal_history(self) -> List[AppraisalResult]:
        return list(self._appraisals)
