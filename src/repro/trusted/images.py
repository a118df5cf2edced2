"""Image Management Service (Section II-A).

"The Image Management Service accepts only those VM images that are signed
by an approved list of keys managed by an attestation service."  Images
(VM and container alike) are registered with an RSA signature over their
content; registration verifies both the signature and the signer's
membership in the attestation service's approved list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core.errors import AttestationError, NotFoundError
from ..cloudsim.nodes import SoftwareComponent
from ..crypto.rsa import RsaPrivateKey, RsaPublicKey, rsa_sign, rsa_verify
from .attestation import AttestationService


@dataclass(frozen=True)
class SignedImage:
    """A software image plus its provenance signature."""

    image: SoftwareComponent
    signer_fingerprint: str
    signature: bytes

    @property
    def name(self) -> str:
        return self.image.name

    @property
    def measurement(self) -> str:
        return self.image.measurement


def sign_image(image: SoftwareComponent, private_key: RsaPrivateKey) -> SignedImage:
    """Sign an image's measured content."""
    payload = image.name.encode() + b"\x00" + image.content
    signature = rsa_sign(private_key, payload)
    fingerprint = private_key.public_key().fingerprint()
    return SignedImage(image, fingerprint, signature)


class ImageManagementService:
    """Catalog of approved, signature-verified images."""

    def __init__(self, attestation: AttestationService) -> None:
        self._attestation = attestation
        self._signer_keys: Dict[str, RsaPublicKey] = {}
        self._catalog: Dict[str, SignedImage] = {}

    def register_signer(self, public_key: RsaPublicKey) -> str:
        """Make a signer's key known; approval is the attestation service's call."""
        fingerprint = public_key.fingerprint()
        self._signer_keys[fingerprint] = public_key
        return fingerprint

    def register_image(self, signed: SignedImage) -> str:
        """Admit an image to the catalog; returns its measurement.

        Rejects images whose signature does not verify or whose signer is
        not on the attestation service's approved list.
        """
        public_key = self._signer_keys.get(signed.signer_fingerprint)
        if public_key is None:
            raise AttestationError(
                f"image {signed.name}: signer {signed.signer_fingerprint} unknown")
        if not self._attestation.is_approved_signer(signed.signer_fingerprint):
            raise AttestationError(
                f"image {signed.name}: signer {signed.signer_fingerprint} "
                "is not approved")
        payload = signed.image.name.encode() + b"\x00" + signed.image.content
        if not rsa_verify(public_key, payload, signed.signature):
            raise AttestationError(f"image {signed.name}: signature invalid")
        self._catalog[signed.measurement] = signed
        return signed.measurement

    def is_approved(self, image: SoftwareComponent) -> bool:
        """True when this exact content is in the verified catalog."""
        entry = self._catalog.get(image.measurement)
        if entry is None:
            return False
        # Re-check the signer is still approved (revocation takes effect).
        return self._attestation.is_approved_signer(entry.signer_fingerprint)

    def lookup(self, measurement: str) -> SignedImage:
        try:
            return self._catalog[measurement]
        except KeyError:
            raise NotFoundError(f"image measurement {measurement} not found") from None
