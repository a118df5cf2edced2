"""Compliance-assured DevOps pipeline (Sections II-B, IV-B2).

"HIPAA/GxP compliance expects not only the final deployed system to be
compliant but also the development as well the automated operations...
not only are the hosts, VMs and the deployed software stack verified and
attested but also the development and deployment process of all the
components."  And IV-B2: "Each system component is developed using a
compliance-assured devops environment...  Each system component is signed
using a digital signature."

:class:`CompliantDevOpsPipeline` is the only path that produces
deployable signed images: source -> build -> test -> security review ->
change approval -> sign -> register with image management.  Skipping a
stage is impossible; the output image is signed by the pipeline's key,
which is on the attestation service's approved-signer list — images from
anywhere else are rejected at provisioning.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Optional

from ..cloudsim.nodes import SoftwareComponent
from ..core.errors import ComplianceError
from ..crypto.rsa import RsaPrivateKey
from ..trusted.attestation import AttestationService
from ..trusted.images import ImageManagementService, SignedImage, sign_image
from .change import ChangeManagementService


class BuildStage(Enum):
    SOURCE = "source"
    BUILT = "built"
    TESTED = "tested"
    REVIEWED = "reviewed"
    APPROVED = "approved"
    SIGNED = "signed"


@dataclass
class BuildRecord:
    """One component's journey through the pipeline."""

    build_id: str
    component_name: str
    source: bytes
    stage: BuildStage = BuildStage.SOURCE
    artifact: Optional[SoftwareComponent] = None
    test_passed: Optional[bool] = None
    review_notes: str = ""
    change_id: Optional[str] = None
    signed_image: Optional[SignedImage] = None


class CompliantDevOpsPipeline:
    """Stage-enforced build/sign pipeline wired to change management."""

    _ORDER = [BuildStage.SOURCE, BuildStage.BUILT, BuildStage.TESTED,
              BuildStage.REVIEWED, BuildStage.APPROVED, BuildStage.SIGNED]

    def __init__(self, signing_key: RsaPrivateKey,
                 attestation: AttestationService,
                 images: ImageManagementService,
                 change_management: ChangeManagementService) -> None:
        self._key = signing_key
        self._attestation = attestation
        self._images = images
        self._change_management = change_management
        self._builds: Dict[str, BuildRecord] = {}
        self._counter = 0
        # Enroll the pipeline as the (only) approved signer.
        fingerprint = images.register_signer(signing_key.public_key())
        attestation.approve_signer(fingerprint)

    def _advance(self, build: BuildRecord, target: BuildStage) -> None:
        current = self._ORDER.index(build.stage)
        expected = self._ORDER.index(target) - 1
        if current != expected:
            raise ComplianceError(
                f"build {build.build_id}: cannot reach {target.value} from "
                f"{build.stage.value} (stages cannot be skipped)")
        build.stage = target

    # -- stages ----------------------------------------------------------------

    def submit_source(self, component_name: str, source: bytes) -> BuildRecord:
        self._counter += 1
        build = BuildRecord(
            build_id=f"build-{self._counter:06d}",
            component_name=component_name,
            source=source,
        )
        self._builds[build.build_id] = build
        return build

    def build(self, build_id: str) -> BuildRecord:
        """Deterministic 'compilation': source -> measured artifact."""
        record = self._get(build_id)
        self._advance(record, BuildStage.BUILT)
        digest = hashlib.sha256(record.source).digest()
        record.artifact = SoftwareComponent(
            record.component_name, record.source + b"\x00" + digest)
        return record

    def test(self, build_id: str,
             test_fn: Optional[Callable[[bytes], bool]] = None) -> BuildRecord:
        """Run the component's tests; failures park the build at BUILT."""
        record = self._get(build_id)
        passed = test_fn(record.source) if test_fn is not None else True
        record.test_passed = passed
        if not passed:
            raise ComplianceError(
                f"build {build_id}: tests failed, cannot proceed")
        self._advance(record, BuildStage.TESTED)
        return record

    def security_review(self, build_id: str, reviewer: str,
                        notes: str = "") -> BuildRecord:
        record = self._get(build_id)
        self._advance(record, BuildStage.REVIEWED)
        record.review_notes = f"{reviewer}: {notes}"
        return record

    def request_approval(self, build_id: str, requested_by: str,
                         approver: str) -> BuildRecord:
        """File + approve the change record (separation of duties applies)."""
        record = self._get(build_id)
        change = self._change_management.describe(
            record.component_name,
            f"deploy {record.component_name} from {build_id}",
            requested_by=requested_by)
        self._change_management.evaluate(change.change_id,
                                         record.review_notes or "reviewed")
        self._change_management.approve(change.change_id, approver)
        self._advance(record, BuildStage.APPROVED)
        record.change_id = change.change_id
        return record

    def sign_and_register(self, build_id: str) -> SignedImage:
        """Final stage: sign with the pipeline key, register the image."""
        record = self._get(build_id)
        self._advance(record, BuildStage.SIGNED)
        assert record.artifact is not None
        signed = sign_image(record.artifact, self._key)
        self._images.register_image(signed)
        record.signed_image = signed
        return signed

    # -- convenience ---------------------------------------------------------------

    def run_full_pipeline(self, component_name: str, source: bytes,
                          requested_by: str, approver: str,
                          reviewer: str = "security-team") -> SignedImage:
        """Happy path through all six stages."""
        record = self.submit_source(component_name, source)
        self.build(record.build_id)
        self.test(record.build_id)
        self.security_review(record.build_id, reviewer)
        self.request_approval(record.build_id, requested_by, approver)
        return self.sign_and_register(record.build_id)

    def _get(self, build_id: str) -> BuildRecord:
        try:
            return self._builds[build_id]
        except KeyError:
            raise ComplianceError(f"unknown build {build_id}") from None
