"""Shared-key authenticated encryption (Section IV-B1).

The paper encrypts ingested data "with a well-established shared key
(public key encryption is too expensive to maintain the scalability of the
system)" and recommends HMACs for integrity.  We implement an
encrypt-then-MAC AEAD built entirely from stdlib primitives:

* keystream: HMAC-SHA256 in counter mode (a PRF in CTR mode is a standard
  stream-cipher construction);
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
# RFC 2104's pads, as byte translation tables for one key of up to the
# hash's 64-byte block.
_HMAC_KEY_BLOCK = hashlib.sha256().block_size
_IPAD = bytes(byte ^ 0x36 for byte in range(256))
_OPAD = bytes(byte ^ 0x5C for byte in range(256))


def hkdf_expand(key: bytes, info: bytes, length: int = KEY_BYTES) -> bytes:
    """Single-salt HKDF-Expand (RFC 5869 shape) over HMAC-SHA256."""
    output = b""
    block = b""
    counter = 1
    while len(output) < length:
        block = hmac.new(key, block + info + bytes([counter]), hashlib.sha256).digest()
        output += block
        counter += 1
    return output[:length]


def generate_key(rng_seed: Optional[int] = None) -> bytes:
    """Fresh 256-bit key; seedable for deterministic tests."""
    if rng_seed is None:
        return secrets.token_bytes(KEY_BYTES)
    return hashlib.sha256(b"repro-key:" + struct.pack(">q", rng_seed)).digest()


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """Block i is HMAC(key, nonce || i), computed as RFC 2104 defines it.

    One SHA-256 state absorbs ``key ^ ipad`` and the nonce, another
    ``key ^ opad``, once; each block continues from a copy of both, which
    costs less than copying an ``hmac`` object.  A key longer than the
    hash block would first have to be hashed, and is refused instead.
    """
    if len(key) > _HMAC_KEY_BLOCK:
        raise ValueError(f"keystream key must be at most {_HMAC_KEY_BLOCK} "
                         f"bytes, got {len(key)}")
    padded = key.ljust(_HMAC_KEY_BLOCK, b"\0")
    inner = hashlib.sha256(padded.translate(_IPAD))
    inner.update(nonce)
    outer = hashlib.sha256(padded.translate(_OPAD))
    blocks = []
    for counter in range((length + _BLOCK - 1) // _BLOCK):
        block = inner.copy()
        block.update(struct.pack(">q", counter))
        keyed = outer.copy()
        keyed.update(block.digest())
        blocks.append(keyed.digest())
    return b"".join(blocks)[:length]


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
        tag = hmac.new(self._mac_key, nonce + associated_data + body,
                       hashlib.sha256).digest()
        return Ciphertext(nonce, body, tag)

    def decrypt(self, ciphertext: Ciphertext, associated_data: bytes = b"") -> bytes:
        """Verify the tag then decrypt; raises IntegrityError on tamper."""
        expected = hmac.new(self._mac_key,
                            ciphertext.nonce + associated_data + ciphertext.body,
                            hashlib.sha256).digest()
        if not hmac.compare_digest(expected, ciphertext.tag):
            raise IntegrityError("AEAD tag verification failed")
        return _xor(ciphertext.body,
                    _keystream(self._enc_key, ciphertext.nonce, len(ciphertext.body)))


def compute_hmac(key: bytes, data: bytes) -> bytes:
    """Plain HMAC-SHA256, the integrity primitive Section IV-B1 recommends."""
    return hmac.new(key, data, hashlib.sha256).digest()


def verify_hmac(key: bytes, data: bytes, tag: bytes) -> bool:
    """Constant-time HMAC verification."""
    return hmac.compare_digest(compute_hmac(key, data), tag)
