"""Federated identity management (Section II-B).

"The platform supports a federated identity management system, which means
that the platform user's identity could be managed and authenticated by an
external (approved) system.  Once users are authenticated, their roles and
access privileges are managed by the platform's RBAC system."

External identity providers issue HMAC-signed tokens; the platform trusts
only IdPs on its approved list, verifies token signatures and expiry, and
maps the external subject to a registered platform user.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Dict, Optional

from ..core.canonical import canonical_json
from ..core.errors import AuthenticationError, NotFoundError
from ..cloudsim.clock import SimClock
from .engine import RbacEngine
from .model import User


@dataclass(frozen=True)
class IdentityToken:
    """A signed assertion from an external IdP."""

    issuer: str
    subject: str
    issued_at: float
    expires_at: float
    signature: bytes

    def payload(self) -> bytes:
        return canonical_json(
            {"iss": self.issuer, "sub": self.subject,
             "iat": self.issued_at, "exp": self.expires_at})


class ExternalIdentityProvider:
    """A (simulated) external IdP that signs tokens for its subjects."""

    def __init__(self, name: str, secret: bytes,
                 clock: Optional[SimClock] = None) -> None:
        self.name = name
        self._secret = secret
        self.clock = clock if clock is not None else SimClock()

    def issue_token(self, subject: str, ttl_s: float = 3600.0) -> IdentityToken:
        issued = self.clock.now
        unsigned = IdentityToken(self.name, subject, issued, issued + ttl_s, b"")
        signature = hmac.new(self._secret, unsigned.payload(),
                             hashlib.sha256).digest()
        return IdentityToken(self.name, subject, issued, issued + ttl_s,
                             signature)


class FederatedIdentityService:
    """Verifies external tokens and maps them to platform users."""

    def __init__(self, rbac: RbacEngine,
                 clock: Optional[SimClock] = None) -> None:
        self._rbac = rbac
        self.clock = clock if clock is not None else SimClock()
        self._approved_idps: Dict[str, bytes] = {}
        self._subject_map: Dict[str, str] = {}  # "issuer/subject" -> user_id

    def approve_idp(self, name: str, secret: bytes) -> None:
        """Add an IdP to the approved list (sharing its verification key)."""
        self._approved_idps[name] = secret

    def revoke_idp(self, name: str) -> None:
        self._approved_idps.pop(name, None)

    def link_identity(self, issuer: str, subject: str, user_id: str) -> None:
        """Bind an external identity to a registered platform user."""
        if user_id not in self._rbac.users:
            raise NotFoundError(f"user {user_id} not registered")
        self._subject_map[f"{issuer}/{subject}"] = user_id

    def authenticate(self, token: IdentityToken) -> User:
        """Validate a token and return the mapped platform user.

        Raises :class:`AuthenticationError` for unapproved issuers, bad
        signatures, tokens outside their validity window (expired, not yet
        valid, or ``iat > exp``), or unlinked subjects.
        """
        secret = self._approved_idps.get(token.issuer)
        if secret is None:
            raise AuthenticationError(f"IdP {token.issuer!r} is not approved")
        expected = hmac.new(secret, token.payload(), hashlib.sha256).digest()
        if not hmac.compare_digest(expected, token.signature):
            raise AuthenticationError("token signature invalid")
        if token.issued_at > token.expires_at:
            raise AuthenticationError(
                "token validity window is ill-formed (iat > exp)")
        if self.clock.now < token.issued_at:
            raise AuthenticationError("token not yet valid")
        if self.clock.now >= token.expires_at:
            raise AuthenticationError("token expired")
        user_id = self._subject_map.get(f"{token.issuer}/{token.subject}")
        if user_id is None:
            raise AuthenticationError(
                f"subject {token.subject!r} not linked to a platform user")
        return self._rbac.users[user_id]
