"""Signcryption (Section IV-B1).

"We recommend using HMACs instead of digital signatures unless the
digital signatures are part of the encryption process such as
signcryption techniques."

A sign-then-encrypt-with-binding construction: the sender signs the
plaintext together with the receiver's identity (preventing re-encryption
forwarding attacks), then the signature travels *inside* the AEAD
envelope, hybrid-encrypted to the receiver.  Unsigncryption decrypts,
verifies the embedded signature against the claimed sender's public key,
and checks the receiver binding.  One primitive gives confidentiality,
integrity, and sender authentication.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..core.errors import IntegrityError
from .rsa import (
    HybridCiphertext,
    RsaPrivateKey,
    RsaPublicKey,
    hybrid_decrypt,
    hybrid_encrypt,
    rsa_sign,
    rsa_verify,
)


@dataclass(frozen=True)
class SigncryptedMessage:
    """Wire format: sender fingerprint in the clear, everything else inside."""

    sender_fingerprint: str
    envelope: HybridCiphertext

    def __len__(self) -> int:
        return len(self.envelope) + len(self.sender_fingerprint)


def _signing_payload(plaintext: bytes, sender_fp: str,
                     receiver_fp: str) -> bytes:
    header = json.dumps({"from": sender_fp, "to": receiver_fp},
                        sort_keys=True).encode()
    return header + b"\x00" + plaintext


def signcrypt(sender_private: RsaPrivateKey, receiver_public: RsaPublicKey,
              plaintext: bytes) -> SigncryptedMessage:
    """Sign (bound to the receiver) then encrypt to the receiver."""
    sender_fp = sender_private.public_key().fingerprint()
    receiver_fp = receiver_public.fingerprint()
    signature = rsa_sign(sender_private,
                         _signing_payload(plaintext, sender_fp, receiver_fp))
    inner = json.dumps({
        "sig": signature.hex(),
        "body": plaintext.hex(),
    }).encode()
    envelope = hybrid_encrypt(receiver_public, inner,
                              associated_data=sender_fp.encode())
    return SigncryptedMessage(sender_fp, envelope)


def unsigncrypt(receiver_private: RsaPrivateKey,
                sender_public: RsaPublicKey,
                message: SigncryptedMessage) -> bytes:
    """Decrypt, then verify the embedded signature and bindings.

    Raises :class:`IntegrityError` on any failure: wrong receiver key,
    tampered ciphertext, signature by a different sender, or a message
    signcrypted for someone else and forwarded.
    """
    if sender_public.fingerprint() != message.sender_fingerprint:
        raise IntegrityError("sender fingerprint does not match claimed key")
    inner = hybrid_decrypt(receiver_private, message.envelope,
                           associated_data=message.sender_fingerprint.encode())
    try:
        payload = json.loads(inner.decode())
        signature = bytes.fromhex(payload["sig"])
        plaintext = bytes.fromhex(payload["body"])
    except (ValueError, KeyError) as exc:
        raise IntegrityError(f"malformed signcrypted body: {exc}") from exc
    receiver_fp = receiver_private.public_key().fingerprint()
    expected = _signing_payload(plaintext, message.sender_fingerprint,
                                receiver_fp)
    if not rsa_verify(sender_public, expected, signature):
        raise IntegrityError("signcryption signature verification failed")
    return plaintext
