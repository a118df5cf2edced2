"""Key Management System (Section IV-B1).

A single-tenant, isolated key service: master keys never leave the KMS;
callers receive *data keys* wrapped under a master key (envelope model).
Supports rotation, access control by key policy, and **crypto-deletion** —
destroying a key renders everything encrypted under it unreadable, which is
how the platform implements GDPR right-to-forget (Section IV-B1, "Secure
deletion of data ... encryption-based record deletion").
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple

from ..core.errors import AuthorizationError, KeyManagementError, NotFoundError
from ..core.ids import IdFactory
from .symmetric import Ciphertext, SharedKeyCipher, generate_key, hkdf_expand


class KeyState(Enum):
    """Lifecycle of a managed key."""

    ENABLED = "enabled"
    DISABLED = "disabled"
    DESTROYED = "destroyed"


@dataclass
class ManagedKey:
    """A master key record; ``material`` is private to the KMS.

    ``wrap_cipher`` wraps every data key minted under the current
    version, so its nonce counter never repeats a nonce under one key;
    it is built on first use and dropped when the material changes."""

    key_id: str
    tenant_id: str
    purpose: str
    state: KeyState = KeyState.ENABLED
    version: int = 1
    material: bytes = b""
    previous_versions: Dict[int, bytes] = field(default_factory=dict)
    allowed_principals: Set[str] = field(default_factory=set)
    wrap_cipher: Optional[SharedKeyCipher] = field(
        default=None, repr=False, compare=False)


@dataclass(frozen=True)
class DataKey:
    """A data key handed to a caller: plaintext plus its wrapped form."""

    plaintext: bytes
    wrapped: bytes
    key_id: str
    key_version: int


class KeyManagementService:
    """Single-tenant KMS with envelope keys, rotation, and crypto-deletion."""

    def __init__(self, tenant_id: str, seed: Optional[int] = None) -> None:
        self.tenant_id = tenant_id
        self._keys: Dict[str, ManagedKey] = {}
        self._ids = IdFactory(seed if seed is not None else 0)
        self._seed = seed
        self._key_counter = 0

    # -- key administration -------------------------------------------------

    def create_key(self, purpose: str,
                   allowed_principals: Optional[Set[str]] = None) -> str:
        """Create a master key and return its id."""
        self._key_counter += 1
        if self._seed is not None:
            material = generate_key(self._seed * 100_003 + self._key_counter)
        else:
            material = generate_key()
        key = ManagedKey(
            key_id=self._ids.new("key"),
            tenant_id=self.tenant_id,
            purpose=purpose,
            material=material,
            allowed_principals=set(allowed_principals or set()),
        )
        self._keys[key.key_id] = key
        return key.key_id

    def describe_key(self, key_id: str) -> Tuple[KeyState, int, str]:
        """(state, version, purpose) without exposing material."""
        key = self._get(key_id)
        return key.state, key.version, key.purpose

    def rotate_key(self, key_id: str) -> int:
        """Install new material; old versions retained for unwrap only."""
        key = self._get(key_id)
        self._require_usable(key)
        key.previous_versions[key.version] = key.material
        key.version += 1
        key.wrap_cipher = None
        self._key_counter += 1
        if self._seed is not None:
            key.material = generate_key(self._seed * 100_003 + self._key_counter)
        else:
            key.material = generate_key()
        return key.version

    def disable_key(self, key_id: str) -> None:
        """Temporarily block use of the key."""
        self._get(key_id).state = KeyState.DISABLED

    def enable_key(self, key_id: str) -> None:
        key = self._get(key_id)
        if key.state is KeyState.DESTROYED:
            raise KeyManagementError(f"key {key_id} is destroyed")
        key.state = KeyState.ENABLED

    def destroy_key(self, key_id: str) -> None:
        """Crypto-deletion: material is erased; unwrap becomes impossible."""
        key = self._get(key_id)
        key.material = b""
        key.previous_versions.clear()
        key.wrap_cipher = None
        key.state = KeyState.DESTROYED

    def grant(self, key_id: str, principal: str) -> None:
        """Allow a principal to use the key."""
        self._get(key_id).allowed_principals.add(principal)

    def revoke(self, key_id: str, principal: str) -> None:
        self._get(key_id).allowed_principals.discard(principal)

    # -- envelope operations --------------------------------------------------

    def generate_data_key(self, key_id: str, principal: str) -> DataKey:
        """Mint a fresh data key wrapped under the master key."""
        key = self._authorize(key_id, principal)
        self._key_counter += 1
        if self._seed is not None:
            plaintext = generate_key(self._seed * 200_003 + self._key_counter)
        else:
            plaintext = generate_key()
        wrapped = self._wrap(key, plaintext)
        return DataKey(plaintext=plaintext, wrapped=wrapped,
                       key_id=key_id, key_version=key.version)

    def unwrap_data_key(self, key_id: str, wrapped: bytes, principal: str,
                        key_version: Optional[int] = None) -> bytes:
        """Recover a data key; fails after crypto-deletion."""
        key = self._authorize(key_id, principal)
        material = key.material
        if key_version is not None and key_version != key.version:
            if key_version not in key.previous_versions:
                raise KeyManagementError(
                    f"key {key_id} version {key_version} unavailable")
            material = key.previous_versions[key_version]
        cipher = SharedKeyCipher(hkdf_expand(material, b"wrap"))
        return cipher.decrypt(Ciphertext.from_bytes(wrapped))

    def _wrap(self, key: ManagedKey, plaintext: bytes) -> bytes:
        if key.wrap_cipher is None:
            key.wrap_cipher = SharedKeyCipher(hkdf_expand(key.material,
                                                          b"wrap"))
        return key.wrap_cipher.encrypt(plaintext).to_bytes()

    # -- internals -------------------------------------------------------------

    def _get(self, key_id: str) -> ManagedKey:
        try:
            return self._keys[key_id]
        except KeyError:
            raise NotFoundError(f"key {key_id} not found") from None

    def _require_usable(self, key: ManagedKey) -> None:
        if key.state is KeyState.DESTROYED:
            raise KeyManagementError(f"key {key.key_id} is destroyed")
        if key.state is KeyState.DISABLED:
            raise KeyManagementError(f"key {key.key_id} is disabled")

    def _authorize(self, key_id: str, principal: str) -> ManagedKey:
        key = self._get(key_id)
        self._require_usable(key)
        if key.allowed_principals and principal not in key.allowed_principals:
            raise AuthorizationError(
                f"principal {principal!r} may not use key {key_id}")
        return key

    def keys_for_purpose(self, purpose: str) -> List[str]:
        """All non-destroyed key ids created for a purpose."""
        return [k.key_id for k in self._keys.values()
                if k.purpose == purpose and k.state is not KeyState.DESTROYED]


class KmsFleet:
    """Per-tenant KMS isolation (Section IV-B1).

    "A key management system is a single-tenant isolated system that is
    dedicated only to a single customer or single instance of the
    regulated system."  The fleet provisions one :class:`KeyManagementService`
    per tenant on first use; tenants can never reach each other's key ids,
    and destroying one tenant's KMS (offboarding) cannot touch another's.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._seed = seed
        self._instances: Dict[str, KeyManagementService] = {}

    def for_tenant(self, tenant_id: str) -> KeyManagementService:
        """The tenant's dedicated KMS, provisioned on first request."""
        kms = self._instances.get(tenant_id)
        if kms is None:
            # 16 bits of a digest of the id: ``hash()`` of a string is
            # salted per process, and a seeded fleet must not be.
            tenant_bits = int.from_bytes(
                hashlib.sha256(tenant_id.encode()).digest()[:2], "big")
            seed = (None if self._seed is None
                    else self._seed * 1_000_003 + tenant_bits)
            kms = KeyManagementService(tenant_id, seed=seed)
            self._instances[tenant_id] = kms
        return kms

    def tenants(self) -> List[str]:
        return sorted(self._instances)

    def offboard_tenant(self, tenant_id: str) -> int:
        """Destroy every key the tenant ever had; returns the count.

        The crypto-deletion form of account closure: all of the tenant's
        stored ciphertexts become permanently unreadable.
        """
        kms = self._instances.pop(tenant_id, None)
        if kms is None:
            return 0
        destroyed = 0
        for key_id in list(kms._keys):
            if kms._keys[key_id].state is not KeyState.DESTROYED:
                kms.destroy_key(key_id)
                destroyed += 1
        return destroyed
