"""Membership and identity for the permissioned HCLS blockchain (Section IV).

Two layers, as the paper describes:

* **Membership Service Provider (MSP)** — the permissioned network's
  identity registry.  Parties ("sender, receiver, healthcare provider,
  data protection service, audit service") hold RSA signing keys enrolled
  under an organization; only enrolled identities may endorse or submit.
* **Self-sovereign identity with identity-mixer-style pseudonyms** —
  "Identity management of healthcare providers, system administrators and
  patients are managed with blockchain using self-sovereign identity and
  privacy-preserving identity-mixer technology."  A holder derives an
  unlinkable pseudonym per relying party from a master secret, and can
  prove control of the pseudonym with a signed challenge, without the two
  relying parties being able to link their views.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..core.errors import AuthenticationError, NotFoundError
from ..crypto.rsa import (
    RsaPrivateKey,
    RsaPublicKey,
    generate_keypair,
    rsa_sign,
    rsa_verify,
    rsa_verify_batch,
)


@dataclass(frozen=True)
class MemberIdentity:
    """An enrolled network member: name, organization, public key."""

    member_id: str
    organization: str
    public_key: RsaPublicKey
    roles: frozenset  # e.g. {"peer"}, {"client"}, {"auditor"}


@dataclass(frozen=True)
class Enrolment:
    """What enrolment fixes about a member: its organization, its roles
    and the seed its keypair is generated from on first use."""

    organization: str
    roles: frozenset
    key_seed: Optional[int]


class MembershipServiceProvider:
    """Registry of enrolled members; verifies member signatures.

    A member's keypair is generated the first time something needs it (a
    signature, a verification or its public key), from a seed fixed at
    enrolment, so no order of first use changes the key a member gets.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._seed = seed
        self._enrolments: Dict[str, Enrolment] = {}
        self._keys: Dict[str, RsaPrivateKey] = {}  # held by members, kept here for the sim

    def enroll(self, member_id: str, organization: str,
               roles: Optional[Set[str]] = None) -> None:
        """Enroll a member; its keypair waits for first use."""
        if member_id in self._enrolments:
            raise AuthenticationError(f"member {member_id} already enrolled")
        key_seed = (None if self._seed is None
                    else self._seed * 65_537 + len(self._enrolments) + 1)
        self._enrolments[member_id] = Enrolment(
            organization, frozenset(roles or {"client"}), key_seed)

    def enrolment(self, member_id: str) -> Enrolment:
        """A member's organization and roles, read without its key."""
        try:
            return self._enrolments[member_id]
        except KeyError:
            raise NotFoundError(f"member {member_id} not enrolled") from None

    def _key(self, member_id: str) -> Optional[RsaPrivateKey]:
        """The member's keypair, generated on first use; None for a name
        never enrolled."""
        if member_id not in self._keys and member_id in self._enrolments:
            self._keys[member_id] = generate_keypair(
                bits=1024, seed=self._enrolments[member_id].key_seed)
        return self._keys.get(member_id)

    def identity(self, member_id: str) -> MemberIdentity:
        key = self.signing_key(member_id)
        enrolment = self._enrolments[member_id]
        return MemberIdentity(member_id, enrolment.organization,
                              key.public_key(), enrolment.roles)

    def signing_key(self, member_id: str) -> RsaPrivateKey:
        """The member's own key (members call this for themselves)."""
        key = self._key(member_id)
        if key is None:
            raise NotFoundError(f"member {member_id} not enrolled")
        return key

    def sign_as(self, member_id: str, payload: bytes) -> bytes:
        return rsa_sign(self.signing_key(member_id), payload)

    def verify(self, member_id: str, payload: bytes, signature: bytes) -> bool:
        key = self._key(member_id)
        if key is None:
            return False
        return rsa_verify(key.public_key(), payload, signature)

    def verify_batch(self, member_id: str,
                     pairs: List[Tuple[bytes, bytes]]) -> List[bool]:
        """Verify many ``(message, signature)`` pairs from one member.

        Uses screening-style aggregate RSA verification (one public-key
        exponentiation per batch) with a per-signature fallback that
        pinpoints invalid signatures; block validation batches each
        endorser's visit-root signatures across a whole block through
        this.
        """
        key = self._key(member_id)
        if key is None:
            return [False] * len(pairs)
        return rsa_verify_batch(key.public_key(), pairs)

    def members_with_role(self, role: str) -> List[MemberIdentity]:
        return [self.identity(member_id)
                for member_id, enrolment in self._enrolments.items()
                if role in enrolment.roles]

    def organizations(self) -> Set[str]:
        return {e.organization for e in self._enrolments.values()}


@dataclass(frozen=True)
class PseudonymProof:
    """Proof of control of a pseudonym for one relying party."""

    pseudonym: str
    relying_party: str
    challenge: bytes
    response: bytes


class SelfSovereignIdentity:
    """Holder-side identity wallet with identity-mixer-style pseudonyms.

    The holder's master secret never leaves the wallet.  For each relying
    party, ``pseudonym_for`` derives a stable but party-specific identifier;
    distinct relying parties cannot link the identifiers (each is an HMAC
    under the master secret with the party name mixed in).
    """

    def __init__(self, holder_name: str, master_secret: bytes) -> None:
        if len(master_secret) < 16:
            raise ValueError("master secret too short")
        self.holder_name = holder_name
        self._secret = master_secret

    def pseudonym_for(self, relying_party: str) -> str:
        tag = hmac.new(self._secret, f"nym:{relying_party}".encode(),
                       hashlib.sha256).hexdigest()
        return f"nym-{tag[:20]}"

    def prove(self, relying_party: str, challenge: bytes) -> PseudonymProof:
        """Answer a relying party's freshness challenge."""
        pseudonym = self.pseudonym_for(relying_party)
        response = hmac.new(self._secret,
                            f"prove:{relying_party}:".encode()
                            + pseudonym.encode() + b":" + challenge,
                            hashlib.sha256).digest()
        return PseudonymProof(pseudonym, relying_party, challenge, response)


class PseudonymVerifier:
    """Relying-party side: registers a pseudonym once, verifies proofs after.

    Registration hands the verifier a *verification tag* derived by the
    holder (in a real identity-mixer this is a credential issuance); the
    verifier can then check later proofs without learning the master secret
    or any other party's pseudonym.
    """

    def __init__(self, relying_party: str) -> None:
        self.relying_party = relying_party
        self._registered: Dict[str, SelfSovereignIdentity] = {}

    def register(self, identity: SelfSovereignIdentity) -> str:
        pseudonym = identity.pseudonym_for(self.relying_party)
        self._registered[pseudonym] = identity
        return pseudonym

    def verify(self, proof: PseudonymProof) -> bool:
        if proof.relying_party != self.relying_party:
            return False
        identity = self._registered.get(proof.pseudonym)
        if identity is None:
            return False
        expected = identity.prove(self.relying_party, proof.challenge)
        return hmac.compare_digest(expected.response, proof.response)
