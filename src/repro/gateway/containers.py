"""Trusted analytics containers (Section II-C).

"Our design of extending the root of trust to the level of containers
allows transfer of trusted analytic workloads (packaged in containers)
across different cloud instances ...  This approach also does not depend
on external untrusted libraries as the container would be authored in a
trusted environment with trusted libraries."

An :class:`AnalyticsContainer` packages a named workload: the image bytes
(measured + signed), a manifest of the *trusted* libraries it bundles, and
an entrypoint resolved from a registry of vetted functions (standing in
for the code baked into the image).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from ..cloudsim.nodes import SoftwareComponent
from ..core.canonical import canonical_json
from ..core.errors import GatewayError
from ..crypto.rsa import RsaPrivateKey, RsaPublicKey, rsa_sign, rsa_verify

# Libraries the trusted authoring environment is allowed to bundle.
TRUSTED_LIBRARIES = frozenset({
    "numpy", "scipy", "networkx", "repro.analytics", "repro.privacy",
})

Entrypoint = Callable[[Dict[str, Any]], Any]


@dataclass(frozen=True)
class ContainerManifest:
    """What the container claims to contain."""

    workload_name: str
    entrypoint: str
    libraries: Tuple[str, ...]
    image_bytes: int

    def to_bytes(self) -> bytes:
        return canonical_json(
            {"workload": self.workload_name, "entrypoint": self.entrypoint,
             "libraries": sorted(self.libraries), "size": self.image_bytes})


@dataclass(frozen=True)
class AnalyticsContainer:
    """A signed, transferable analytics workload."""

    manifest: ContainerManifest
    image: SoftwareComponent
    signature: bytes
    signer_fingerprint: str

    @property
    def size_bytes(self) -> int:
        return self.manifest.image_bytes


class TrustedAuthoringEnvironment:
    """Builds and signs containers from vetted entrypoints + libraries."""

    def __init__(self, signing_key: RsaPrivateKey) -> None:
        self._key = signing_key
        self._entrypoints: Dict[str, Entrypoint] = {}

    def register_entrypoint(self, name: str, fn: Entrypoint) -> None:
        """Vet an entrypoint for packaging."""
        self._entrypoints[name] = fn

    def entrypoint(self, name: str) -> Entrypoint:
        try:
            return self._entrypoints[name]
        except KeyError:
            raise GatewayError(f"entrypoint {name!r} not vetted") from None

    def build(self, workload_name: str, entrypoint: str,
              libraries: Tuple[str, ...],
              payload_size_bytes: int = 5_000_000) -> AnalyticsContainer:
        """Package and sign a workload; rejects untrusted libraries."""
        untrusted = [lib for lib in libraries if lib not in TRUSTED_LIBRARIES]
        if untrusted:
            raise GatewayError(
                f"refusing to package untrusted libraries: {untrusted}")
        if entrypoint not in self._entrypoints:
            raise GatewayError(f"entrypoint {entrypoint!r} not vetted")
        manifest = ContainerManifest(workload_name, entrypoint,
                                     tuple(sorted(libraries)),
                                     payload_size_bytes)
        content = manifest.to_bytes() + b"\x00" + hashlib.sha256(
            manifest.to_bytes()).digest()
        image = SoftwareComponent(f"analytics:{workload_name}", content)
        payload = manifest.to_bytes() + b"\x00" + image.measurement.encode()
        signature = rsa_sign(self._key, payload)
        return AnalyticsContainer(
            manifest=manifest,
            image=image,
            signature=signature,
            signer_fingerprint=self._key.public_key().fingerprint(),
        )


def verify_container(container: AnalyticsContainer,
                     signer_key: RsaPublicKey) -> bool:
    """Check the container's signature against the authoring key."""
    if signer_key.fingerprint() != container.signer_fingerprint:
        return False
    payload = (container.manifest.to_bytes() + b"\x00"
               + container.image.measurement.encode())
    return rsa_verify(signer_key, payload, container.signature)
