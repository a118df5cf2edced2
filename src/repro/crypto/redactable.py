"""Leakage-free redactable signatures (Section IV-B1, refs [27-29]).

HCLS records are "shared in parts and not as a whole"; plain Merkle-tree
sharing leaks structure — a verifier holding a subset plus its Merkle
proofs learns *where* the disclosed fields sit and that siblings exist, and
identical field values produce identical hashes across records.

Following the construction style of Kundu-Atallah-Bertino, each field is
bound with fresh per-field randomness (a hiding commitment) and a blinded
*order token*, and the signature covers the multiset of commitments.  A
redacted share reveals, for each disclosed field, the field bytes, its
randomness, and its order token — and for hidden fields nothing at all
beyond the total commitment count.  Disclosed order tokens prove relative
order of the disclosed fields without numbering them against the original
positions.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..core.errors import IntegrityError
from .rsa import RsaPrivateKey, RsaPublicKey, rsa_sign, rsa_verify


def _commit(data: bytes, randomness: bytes) -> bytes:
    """Hiding, binding commitment: H(r || data) with 32-byte randomness."""
    return hashlib.sha256(randomness + data).digest()


def _order_token(order_key: bytes, position: int) -> bytes:
    """Blinded, strictly increasing order tag: HMAC(order_key, position)."""
    return hmac.new(order_key, position.to_bytes(8, "big"),
                    hashlib.sha256).digest()


@dataclass(frozen=True)
class SignedRecord:
    """Signer-side object: full fields plus all secrets needed to redact."""

    fields: Tuple[bytes, ...]
    randomness: Tuple[bytes, ...]
    order_key: bytes
    signature: bytes
    commitment_count: int


@dataclass(frozen=True)
class RedactedShare:
    """Verifier-side object: only disclosed fields and their openings.

    ``disclosed`` maps original position -> (field, randomness).  Positions
    are needed to recompute order tokens, but hidden positions reveal no
    content: their commitments are unopened hiding commitments.
    """

    disclosed: Dict[int, Tuple[bytes, bytes]]
    commitments: Tuple[bytes, ...]
    order_tokens: Tuple[bytes, ...]
    signature: bytes


def _signature_payload(commitments: Sequence[bytes],
                       order_tokens: Sequence[bytes]) -> bytes:
    h = hashlib.sha256()
    for c, t in zip(commitments, order_tokens):
        h.update(c)
        h.update(t)
    return h.digest()


class RedactableSigner:
    """Signs records so any subset of fields can later be shared leakage-free."""

    def __init__(self, private_key: RsaPrivateKey,
                 rng: Optional["_Rng"] = None) -> None:
        self._private = private_key
        self._rng = rng

    def _random_bytes(self, n: int) -> bytes:
        if self._rng is not None:
            return self._rng.token_bytes(n)
        return secrets.token_bytes(n)

    def sign(self, fields: Sequence[bytes]) -> SignedRecord:
        """Commit to every field and sign the commitment sequence."""
        if not fields:
            raise ValueError("cannot sign an empty record")
        randomness = tuple(self._random_bytes(32) for _ in fields)
        order_key = self._random_bytes(32)
        commitments = [_commit(f, r) for f, r in zip(fields, randomness)]
        tokens = [_order_token(order_key, i) for i in range(len(fields))]
        signature = rsa_sign(self._private, _signature_payload(commitments, tokens))
        return SignedRecord(
            fields=tuple(bytes(f) for f in fields),
            randomness=randomness,
            order_key=order_key,
            signature=signature,
            commitment_count=len(fields),
        )


def redact(record: SignedRecord, disclose_indices: Sequence[int]) -> RedactedShare:
    """Produce a share disclosing only the requested field positions."""
    indices = sorted(set(disclose_indices))
    if any(i < 0 or i >= record.commitment_count for i in indices):
        raise IndexError("disclosure index out of range")
    commitments = tuple(_commit(f, r)
                        for f, r in zip(record.fields, record.randomness))
    tokens = tuple(_order_token(record.order_key, i)
                   for i in range(record.commitment_count))
    disclosed = {i: (record.fields[i], record.randomness[i]) for i in indices}
    return RedactedShare(disclosed=disclosed, commitments=commitments,
                         order_tokens=tokens, signature=record.signature)


def verify_share(public_key: RsaPublicKey, share: RedactedShare) -> bool:
    """Verify a redacted share: signature + every disclosed opening."""
    if len(share.commitments) != len(share.order_tokens):
        return False
    payload = _signature_payload(share.commitments, share.order_tokens)
    if not rsa_verify(public_key, payload, share.signature):
        return False
    for position, (field, randomness) in share.disclosed.items():
        if position < 0 or position >= len(share.commitments):
            return False
        if _commit(field, randomness) != share.commitments[position]:
            return False
    return True


def require_share(public_key: RsaPublicKey, share: RedactedShare) -> None:
    """Raise IntegrityError when a share fails verification."""
    if not verify_share(public_key, share):
        raise IntegrityError("redacted share failed verification")


def structural_leakage_bits(share: RedactedShare) -> float:
    """Crude leakage measure for the A3 ablation.

    For this scheme the only structural information beyond the disclosed
    fields is the total commitment count — log2(count) bits.  The Merkle
    baseline leaks the full authentication path shape per disclosed leaf.
    """
    import math
    return math.log2(max(2, len(share.commitments)))


def merkle_baseline_leakage_bits(total_fields: int, disclosed: int) -> float:
    """Leakage of the Merkle baseline: path shape per disclosed leaf.

    Each proof reveals ceil(log2(n)) sibling positions, which pins the
    leaf's exact index — disclosing the record's layout.
    """
    import math
    depth = math.ceil(math.log2(max(2, total_fields)))
    return disclosed * depth + math.log2(max(2, total_fields))


class _Rng:
    """Deterministic byte source (tests), mirroring secrets.token_bytes."""

    def __init__(self, seed: int) -> None:
        self._state = hashlib.sha256(f"redactable:{seed}".encode()).digest()

    def token_bytes(self, n: int) -> bytes:
        out = b""
        while len(out) < n:
            self._state = hashlib.sha256(self._state).digest()
            out += self._state
        return out[:n]


def deterministic_rng(seed: int) -> _Rng:
    """Public constructor for the deterministic byte source."""
    return _Rng(seed)
