"""Transitive trust chain: hardware root of trust to containers (Fig. 5).

"Create a root of trust at the hardware level (using TPMs and Attestation
Service) for each server and then extend it, via a transitive trust model,
to the hypervisor ... leverage the vTPM to transitively extend the root of
trust to the guest OS and the software stack therein."

:class:`TrustedBootOrchestrator` performs measured boot at every layer:

1. host: CRTM measures BIOS, BIOS measures hypervisor -> host TPM PCRs;
2. VM: the VM's (instrumented) BIOS and kernel are measured into the VM's
   vTPM; the trusted kernel extends the chain to libraries/drivers;
3. container: the container image is measured into the vTPM container PCR
   before start.

After each boot, golden values are registered with the attestation
service so the freshly measured state defines "approved" — subsequent
changes (tampered kernels, unapproved containers) make attestation fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..core.errors import AttestationError
from ..cloudsim.nodes import Container, Host, SoftwareComponent, VirtualMachine
from .attestation import AppraisalResult, AttestationService
from .tpm import (
    PCR_BIOS,
    PCR_CONTAINER,
    PCR_CRTM,
    PCR_HYPERVISOR,
    PCR_VM_BIOS,
    PCR_VM_IMAGE,
    PCR_VM_KERNEL,
    Tpm,
)
from .vtpm import VtpmInterfaceContainer, VtpmManager

HOST_PCRS: Tuple[int, ...] = (PCR_CRTM, PCR_BIOS, PCR_HYPERVISOR)
VM_PCRS: Tuple[int, ...] = (PCR_VM_BIOS, PCR_VM_KERNEL, PCR_VM_IMAGE)
VM_AND_CONTAINER_PCRS: Tuple[int, ...] = VM_PCRS + (PCR_CONTAINER,)


@dataclass
class TrustedHost:
    """A booted host with its hardware TPM and vTPM manager."""

    host: Host
    tpm: Tpm
    vtpm_manager: VtpmManager
    vtpm_interfaces: Dict[str, VtpmInterfaceContainer] = field(default_factory=dict)


class TrustedBootOrchestrator:
    """Boots hosts/VMs/containers with measured boot and registers goldens."""

    def __init__(self, attestation: AttestationService,
                 seed: Optional[int] = None) -> None:
        self.attestation = attestation
        self._seed = seed
        self._hosts: Dict[str, TrustedHost] = {}
        self._tpm_counter = 0

    # -- host layer ---------------------------------------------------------

    def boot_host(self, host: Host) -> TrustedHost:
        """Measured boot of a bare-metal host: CRTM -> BIOS -> hypervisor."""
        if not host.has_tpm:
            raise AttestationError(f"host {host.host_id} has no TPM")
        self._tpm_counter += 1
        seed = None if self._seed is None else self._seed * 31 + self._tpm_counter
        tpm = Tpm(tpm_id=f"tpm:{host.host_id}", seed=seed)

        crtm = SoftwareComponent("crtm", b"core-root-of-trust-measurement-v1")
        tpm.extend(PCR_CRTM, crtm.name, crtm.measurement)
        tpm.extend(PCR_BIOS, host.bios.name, host.bios.measurement)
        tpm.extend(PCR_HYPERVISOR, host.hypervisor.name, host.hypervisor.measurement)

        self.attestation.enroll_platform(tpm)
        self.attestation.set_golden_values(
            tpm.tpm_id, {i: tpm.read_pcr(i) for i in HOST_PCRS})

        trusted = TrustedHost(host=host, tpm=tpm,
                              vtpm_manager=VtpmManager(host.host_id, seed=seed))
        self._hosts[host.host_id] = trusted
        return trusted

    def host_of(self, host_id: str) -> TrustedHost:
        return self._hosts[host_id]

    def attest_host(self, host_id: str) -> AppraisalResult:
        """Remote attestation of a host's hardware root of trust."""
        trusted = self._hosts[host_id]
        return self.attestation.attest(trusted.tpm, HOST_PCRS)

    # -- VM layer --------------------------------------------------------------

    def boot_vm(self, host_id: str, vm: VirtualMachine) -> Tpm:
        """Measured boot of a VM into its own vTPM instance.

        The host must currently attest as trusted — this is the transitive
        step: a VM's chain is only rooted if the layer below it is.
        """
        host_result = self.attest_host(host_id)
        if not host_result.trusted:
            raise AttestationError(
                f"refusing to boot VM {vm.vm_id}: host {host_id} untrusted "
                f"({host_result.reason})")
        trusted = self._hosts[host_id]
        vtpm = trusted.vtpm_manager.create_instance(vm.vm_id)
        vtpm.extend(PCR_VM_BIOS, vm.bios.name, vm.bios.measurement)
        vtpm.extend(PCR_VM_KERNEL, vm.kernel.name, vm.kernel.measurement)
        vtpm.extend(PCR_VM_IMAGE, vm.image.name, vm.image.measurement)

        self.attestation.enroll_platform(vtpm)
        # Golden values cover the container PCR from the start (still at
        # its reset value), so a VM quote always speaks for its full
        # attestable state — launching containers later updates the golden
        # rather than widening the quote's PCR set.
        self.attestation.set_golden_values(
            vtpm.tpm_id,
            {i: vtpm.read_pcr(i) for i in VM_AND_CONTAINER_PCRS})
        trusted.vtpm_interfaces[vm.vm_id] = VtpmInterfaceContainer(vm.vm_id, vtpm)
        return vtpm

    def attest_vm(self, host_id: str, vm_id: str) -> AppraisalResult:
        trusted = self._hosts[host_id]
        vtpm = trusted.vtpm_manager.instance_for(vm_id)
        return self.attestation.attest(vtpm, VM_AND_CONTAINER_PCRS)

    # -- container layer ----------------------------------------------------------

    def launch_trusted_container(self, host_id: str, vm: VirtualMachine,
                                 image: SoftwareComponent,
                                 container_id: Optional[str] = None,
                                 transport: str = "unix-socket") -> Container:
        """Measure a container image into the vTPM, then start it.

        The VM must attest as trusted first (transitive model), and after
        launch the container PCR's new value becomes part of the VM's
        golden state so the *set* of running containers is attestable.
        """
        vm_result = self.attest_vm(host_id, vm.vm_id)
        if not vm_result.trusted:
            raise AttestationError(
                f"refusing container on {vm.vm_id}: VM untrusted "
                f"({vm_result.reason})")
        trusted = self._hosts[host_id]
        interface = trusted.vtpm_interfaces[vm.vm_id]
        cid = container_id if container_id is not None else f"ctr-{len(vm.containers)}"
        channel = interface.open_channel(cid, transport=transport)
        channel.extend(PCR_CONTAINER, image.name, image.measurement)

        vtpm = trusted.vtpm_manager.instance_for(vm.vm_id)
        golden = self.attestation.golden_values(vtpm.tpm_id)
        golden[PCR_CONTAINER] = vtpm.read_pcr(PCR_CONTAINER)
        self.attestation.set_golden_values(vtpm.tpm_id, golden)
        return vm.launch_container(cid, image)

    def attest_vm_with_containers(self, host_id: str,
                                  vm_id: str) -> AppraisalResult:
        """Attest a VM including its container PCR."""
        trusted = self._hosts[host_id]
        vtpm = trusted.vtpm_manager.instance_for(vm_id)
        return self.attestation.attest(vtpm, VM_AND_CONTAINER_PCRS)

    # -- full-chain report ------------------------------------------------------

    def chain_report(self, host_id: str, vm_id: str) -> Dict[str, bool]:
        """Trust verdict at every layer of the chain for one VM."""
        host_ok = self.attest_host(host_id).trusted
        vm_ok = self.attest_vm(host_id, vm_id).trusted if host_ok else False
        containers_ok = (self.attest_vm_with_containers(host_id, vm_id).trusted
                         if vm_ok else False)
        return {"host": host_ok, "vm": vm_ok, "containers": containers_ok}
