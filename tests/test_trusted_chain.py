"""Tests for attestation, vTPM, image management, and the trust chain."""

import pytest

from repro.cloudsim.nodes import Host, SoftwareComponent, VirtualMachine
from repro.core.errors import AttestationError, ConfigurationError
from repro.crypto.rsa import generate_keypair
from repro.trusted.attestation import AttestationService, TrustVerdict
from repro.trusted.chain import TrustedBootOrchestrator
from repro.trusted.images import ImageManagementService, sign_image
from repro.trusted.tpm import PCR_VM_KERNEL, Tpm
from repro.trusted.vtpm import VtpmManager


def make_host(host_id="h1", has_tpm=True):
    host = Host(host_id,
                bios=SoftwareComponent("bios", b"bios-v1"),
                hypervisor=SoftwareComponent("kvm", b"kvm-v4"),
                has_tpm=has_tpm)
    host.start()
    return host


def make_vm(vm_id="vm1"):
    return VirtualMachine(
        vm_id,
        bios=SoftwareComponent("seabios", b"sb1"),
        kernel=SoftwareComponent("linux", b"k510"),
        image=SoftwareComponent("ubuntu", b"u22"))


@pytest.fixture
def setup():
    attestation = AttestationService(seed=4)
    orchestrator = TrustedBootOrchestrator(attestation, seed=4)
    host = make_host()
    orchestrator.boot_host(host)
    return attestation, orchestrator, host


class TestAttestationService:
    def test_unknown_platform(self):
        attestation = AttestationService()
        tpm = Tpm("tpm:x", seed=1)
        result = attestation.attest(tpm, (0,))
        assert result.verdict is TrustVerdict.UNKNOWN_PLATFORM

    def test_enrolled_without_goldens(self):
        attestation = AttestationService()
        tpm = Tpm("tpm:x", seed=1)
        attestation.enroll_platform(tpm)
        result = attestation.attest(tpm, (0,))
        assert result.verdict is TrustVerdict.UNKNOWN_PLATFORM

    def test_trusted_when_matching(self):
        attestation = AttestationService()
        tpm = Tpm("tpm:x", seed=1)
        tpm.extend(0, "bios", "aa" * 32)
        attestation.enroll_platform(tpm)
        attestation.set_golden_values(tpm.tpm_id, {0: tpm.read_pcr(0)})
        assert attestation.attest(tpm, (0,)).trusted

    def test_untrusted_on_divergence(self):
        attestation = AttestationService()
        tpm = Tpm("tpm:x", seed=1)
        tpm.extend(0, "bios", "aa" * 32)
        attestation.enroll_platform(tpm)
        attestation.set_golden_values(tpm.tpm_id, {0: tpm.read_pcr(0)})
        tpm.extend(0, "malware", "bb" * 32)
        result = attestation.attest(tpm, (0,))
        assert result.verdict is TrustVerdict.UNTRUSTED
        assert result.mismatched_pcrs == (0,)

    def test_nonces_fresh(self):
        attestation = AttestationService(seed=1)
        assert attestation.fresh_nonce() != attestation.fresh_nonce()

    def test_appraisal_history_kept(self):
        attestation = AttestationService()
        tpm = Tpm("tpm:x", seed=1)
        attestation.attest(tpm, (0,))
        assert len(attestation.appraisal_history) == 1


class TestTrustChain:
    def test_host_attests_after_boot(self, setup):
        _, orchestrator, host = setup
        assert orchestrator.attest_host(host.host_id).trusted

    def test_host_without_tpm_rejected(self):
        orchestrator = TrustedBootOrchestrator(AttestationService(), seed=1)
        with pytest.raises(AttestationError):
            orchestrator.boot_host(make_host("h2", has_tpm=False))

    def test_vm_chain(self, setup):
        _, orchestrator, host = setup
        vm = make_vm()
        host.launch_vm(vm)
        orchestrator.boot_vm(host.host_id, vm)
        assert orchestrator.attest_vm(host.host_id, vm.vm_id).trusted

    def test_vm_refused_on_untrusted_host(self, setup):
        attestation, orchestrator, host = setup
        trusted_host = orchestrator.host_of(host.host_id)
        trusted_host.tpm.extend(2, "evil-hypervisor", "ee" * 32)
        vm = make_vm()
        host.launch_vm(vm)
        with pytest.raises(AttestationError):
            orchestrator.boot_vm(host.host_id, vm)

    def test_container_extends_chain(self, setup):
        _, orchestrator, host = setup
        vm = make_vm()
        host.launch_vm(vm)
        orchestrator.boot_vm(host.host_id, vm)
        orchestrator.launch_trusted_container(
            host.host_id, vm, SoftwareComponent("workload", b"w1"))
        assert orchestrator.attest_vm_with_containers(
            host.host_id, vm.vm_id).trusted

    def test_rogue_container_detected(self, setup):
        _, orchestrator, host = setup
        vm = make_vm()
        host.launch_vm(vm)
        vtpm = orchestrator.boot_vm(host.host_id, vm)
        orchestrator.launch_trusted_container(
            host.host_id, vm, SoftwareComponent("workload", b"w1"))
        # A rogue process extends the container PCR outside the orchestrator.
        vtpm.extend(12, "cryptominer", "dd" * 32)
        assert not orchestrator.attest_vm_with_containers(
            host.host_id, vm.vm_id).trusted

    def test_kernel_tamper_detected(self, setup):
        _, orchestrator, host = setup
        vm = make_vm()
        host.launch_vm(vm)
        vtpm = orchestrator.boot_vm(host.host_id, vm)
        vtpm.extend(PCR_VM_KERNEL, "rootkit", "ff" * 32)
        assert not orchestrator.attest_vm(host.host_id, vm.vm_id).trusted

    def test_chain_report(self, setup):
        _, orchestrator, host = setup
        vm = make_vm()
        host.launch_vm(vm)
        orchestrator.boot_vm(host.host_id, vm)
        report = orchestrator.chain_report(host.host_id, vm.vm_id)
        assert report == {"host": True, "vm": True, "containers": True}


class TestVtpmManager:
    def test_one_instance_per_vm(self):
        manager = VtpmManager("h1", seed=1)
        manager.create_instance("vm1")
        with pytest.raises(ConfigurationError):
            manager.create_instance("vm1")

    def test_instances_isolated(self):
        manager = VtpmManager("h1", seed=1)
        a = manager.create_instance("vm1")
        b = manager.create_instance("vm2")
        a.extend(0, "x", "aa" * 32)
        assert b.read_pcr(0) == "00" * 32

    def test_detached_channel_rejected(self):
        from repro.trusted.vtpm import VtpmInterfaceContainer
        manager = VtpmManager("h1", seed=1)
        vtpm = manager.create_instance("vm1")
        interface = VtpmInterfaceContainer("vm1", vtpm)
        channel = interface.open_channel("c1")
        interface.close_channel("c1")
        with pytest.raises(ConfigurationError):
            channel.read_pcr(0)

    def test_ipc_transport_supported(self):
        from repro.trusted.vtpm import VtpmInterfaceContainer
        manager = VtpmManager("h1", seed=1)
        vtpm = manager.create_instance("vm1")
        interface = VtpmInterfaceContainer("vm1", vtpm)
        channel = interface.open_channel("c1", transport="ipc-adapter")
        assert channel.read_pcr(0) == "00" * 32
        with pytest.raises(ConfigurationError):
            interface.open_channel("c2", transport="carrier-pigeon")


class TestImageManagement:
    def test_approved_signed_image_admitted(self):
        attestation = AttestationService()
        images = ImageManagementService(attestation)
        signer = generate_keypair(bits=512, seed=50)
        fingerprint = images.register_signer(signer.public_key())
        attestation.approve_signer(fingerprint)
        image = SoftwareComponent("app", b"payload")
        images.register_image(sign_image(image, signer))
        assert images.is_approved(image)

    def test_unapproved_signer_rejected(self):
        attestation = AttestationService()
        images = ImageManagementService(attestation)
        signer = generate_keypair(bits=512, seed=51)
        images.register_signer(signer.public_key())
        image = SoftwareComponent("app", b"payload")
        with pytest.raises(AttestationError):
            images.register_image(sign_image(image, signer))

    def test_unknown_signer_rejected(self):
        attestation = AttestationService()
        images = ImageManagementService(attestation)
        signer = generate_keypair(bits=512, seed=52)
        attestation.approve_signer(signer.public_key().fingerprint())
        image = SoftwareComponent("app", b"payload")
        with pytest.raises(AttestationError):
            images.register_image(sign_image(image, signer))

    def test_revocation_takes_effect(self):
        attestation = AttestationService()
        images = ImageManagementService(attestation)
        signer = generate_keypair(bits=512, seed=53)
        fingerprint = images.register_signer(signer.public_key())
        attestation.approve_signer(fingerprint)
        image = SoftwareComponent("app", b"payload")
        images.register_image(sign_image(image, signer))
        attestation.revoke_signer(fingerprint)
        assert not images.is_approved(image)

    def test_tampered_signature_rejected(self):
        attestation = AttestationService()
        images = ImageManagementService(attestation)
        signer = generate_keypair(bits=512, seed=54)
        fingerprint = images.register_signer(signer.public_key())
        attestation.approve_signer(fingerprint)
        image = SoftwareComponent("app", b"payload")
        signed = sign_image(image, signer)
        forged = type(signed)(signed.image, signed.signer_fingerprint,
                              b"\x00" * len(signed.signature))
        with pytest.raises(AttestationError):
            images.register_image(forged)

    def test_different_content_not_approved(self):
        attestation = AttestationService()
        images = ImageManagementService(attestation)
        signer = generate_keypair(bits=512, seed=55)
        fingerprint = images.register_signer(signer.public_key())
        attestation.approve_signer(fingerprint)
        images.register_image(sign_image(SoftwareComponent("app", b"v1"),
                                         signer))
        assert not images.is_approved(SoftwareComponent("app", b"v2"))
