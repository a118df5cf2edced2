"""Shared-key authenticated encryption (Section IV-B1).

The paper encrypts ingested data "with a well-established shared key
(public key encryption is too expensive to maintain the scalability of the
system)" and recommends HMACs for integrity.  We implement an
encrypt-then-MAC AEAD built entirely from stdlib primitives:

* keystream: HMAC-SHA256 in counter mode (a PRF in CTR mode is a standard
  stream-cipher construction), made by OpenSSL's one-shot HMAC and
  PBKDF2 calls;
* integrity: HMAC-SHA256 over nonce || associated data || ciphertext.

Encryption and MAC use independent keys derived from the master key with
HKDF-style expansion, so the construction is a real AEAD, not a toy — only
the underlying block primitive differs from AES-GCM.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
import struct
from dataclasses import dataclass
from typing import Optional

from ..core.errors import IntegrityError

KEY_BYTES = 32
NONCE_BYTES = 16
TAG_BYTES = 32
_BLOCK = hashlib.sha256().digest_size
_HMAC_KEY_BLOCK = hashlib.sha256().block_size
# Block 0 and PBKDF2's blocks 1 .. 2**32 - 1 (it counts them in 32 bits).
_MAX_KEYSTREAM = _BLOCK << 32


def hkdf_expand(key: bytes, info: bytes, length: int = KEY_BYTES) -> bytes:
    """Single-salt HKDF-Expand (RFC 5869 shape) over HMAC-SHA256."""
    output = b""
    block = b""
    counter = 1
    while len(output) < length:
        block = hmac.digest(key, block + info + bytes([counter]), "sha256")
        output += block
        counter += 1
    return output[:length]


def generate_key(rng_seed: Optional[int] = None) -> bytes:
    """Fresh 256-bit key; seedable for deterministic tests."""
    if rng_seed is None:
        return secrets.token_bytes(KEY_BYTES)
    return hashlib.sha256(b"repro-key:" + struct.pack(">q", rng_seed)).digest()


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """Block i is HMAC(key, nonce || i), i as 8 big-endian bytes.

    Two OpenSSL calls make the whole stream.  Block 0 is one
    ``hmac.digest``.  PBKDF2-HMAC with one iteration and the salt
    ``nonce || 0000`` outputs, as its block j = 1, 2, ..., HMAC(key,
    salt || j) with j as 4 big-endian bytes: that is block j here, so it
    makes blocks 1 and up.  Its 32-bit block counter bounds the stream
    at 2**32 blocks, and a longer one is refused rather than wrapped.
    A key longer than the hash block is refused too: HMAC would hash it
    first, and the AEAD's keys are 32 bytes.
    """
    if len(key) > _HMAC_KEY_BLOCK:
        raise ValueError(f"keystream key must be at most {_HMAC_KEY_BLOCK} "
                         f"bytes, got {len(key)}")
    if not 0 <= length <= _MAX_KEYSTREAM:
        raise ValueError(f"keystream length must be 0 to {_MAX_KEYSTREAM} "
                         f"bytes, got {length}")
    first = hmac.digest(key, nonce + bytes(8), "sha256")
    if length <= _BLOCK:
        return first[:length]
    return first + hashlib.pbkdf2_hmac("sha256", key, nonce + bytes(4), 1,
                                       length - _BLOCK)


def _xor(data: bytes, stream: bytes) -> bytes:
    if len(data) != len(stream):
        raise IntegrityError(
            f"keystream length {len(stream)} does not match "
            f"data length {len(data)}")
    mixed = int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    return mixed.to_bytes(len(data), "big")


@dataclass(frozen=True)
class Ciphertext:
    """Self-contained AEAD ciphertext: nonce || body || tag."""

    nonce: bytes
    body: bytes
    tag: bytes

    def to_bytes(self) -> bytes:
        return self.nonce + self.body + self.tag

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Ciphertext":
        if len(raw) < NONCE_BYTES + TAG_BYTES:
            raise IntegrityError("ciphertext too short")
        return cls(raw[:NONCE_BYTES], raw[NONCE_BYTES:-TAG_BYTES], raw[-TAG_BYTES:])

    def __len__(self) -> int:
        return NONCE_BYTES + len(self.body) + TAG_BYTES


class SharedKeyCipher:
    """Encrypt-then-MAC AEAD under one 256-bit master key."""

    def __init__(self, master_key: bytes) -> None:
        if len(master_key) != KEY_BYTES:
            raise ValueError(f"master key must be {KEY_BYTES} bytes")
        self._enc_key = hkdf_expand(master_key, b"enc")
        self._mac_key = hkdf_expand(master_key, b"mac")
        self._nonce_counter = 0
        self._nonce_prefix = hkdf_expand(master_key, b"nonce", 8)

    def _next_nonce(self) -> bytes:
        self._nonce_counter += 1
        return self._nonce_prefix + struct.pack(">q", self._nonce_counter)

    def encrypt(self, plaintext: bytes, associated_data: bytes = b"") -> Ciphertext:
        """Encrypt and authenticate ``plaintext`` (and bind ``associated_data``)."""
        nonce = self._next_nonce()
        body = _xor(plaintext, _keystream(self._enc_key, nonce, len(plaintext)))
        tag = hmac.digest(self._mac_key, nonce + associated_data + body,
                          "sha256")
        return Ciphertext(nonce, body, tag)

    def decrypt(self, ciphertext: Ciphertext, associated_data: bytes = b"") -> bytes:
        """Verify the tag then decrypt; raises IntegrityError on tamper."""
        expected = hmac.digest(
            self._mac_key,
            ciphertext.nonce + associated_data + ciphertext.body, "sha256")
        if not hmac.compare_digest(expected, ciphertext.tag):
            raise IntegrityError("AEAD tag verification failed")
        return _xor(ciphertext.body,
                    _keystream(self._enc_key, ciphertext.nonce, len(ciphertext.body)))


def compute_hmac(key: bytes, data: bytes) -> bytes:
    """Plain HMAC-SHA256, the integrity primitive Section IV-B1 recommends."""
    return hmac.digest(key, data, "sha256")


def verify_hmac(key: bytes, data: bytes, tag: bytes) -> bool:
    """Constant-time HMAC verification."""
    return hmac.compare_digest(compute_hmac(key, data), tag)
