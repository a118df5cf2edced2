"""Compute nodes of the infrastructure cloud: hosts, VMs, containers.

Models the IaaS stack of Section II-A: bare-metal hosts run a hypervisor
that hosts VMs; VMs run containers (Fig. 5's container cloud over virtual
machines).  Each layer carries a *measurement* — the hash of its software
stack — which the trusted-infrastructure package chains into PCRs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from ..core.errors import ConfigurationError, NotFoundError


class NodeState(Enum):
    """Lifecycle state of a compute node."""

    DEFINED = "defined"
    RUNNING = "running"
    STOPPED = "stopped"


def measure(component: str, content: bytes) -> str:
    """Measurement of a software component, as a TPM would hash it."""
    return hashlib.sha256(component.encode() + b"\x00" + content).hexdigest()


@dataclass
class SoftwareComponent:
    """A measurable piece of the stack (BIOS, kernel, hypervisor, image...)."""

    name: str
    content: bytes

    @property
    def measurement(self) -> str:
        return measure(self.name, self.content)


@dataclass
class Container:
    """A container running inside a VM."""

    container_id: str
    image: SoftwareComponent
    state: NodeState = NodeState.DEFINED
    labels: Dict[str, str] = field(default_factory=dict)

    def start(self) -> None:
        self.state = NodeState.RUNNING

    def stop(self) -> None:
        self.state = NodeState.STOPPED


@dataclass
class VirtualMachine:
    """A VM with its own measured BIOS/kernel and a container runtime."""

    vm_id: str
    bios: SoftwareComponent
    kernel: SoftwareComponent
    image: SoftwareComponent
    state: NodeState = NodeState.DEFINED
    containers: Dict[str, Container] = field(default_factory=dict)
    vcpus: int = 2
    memory_mb: int = 4096

    def start(self) -> None:
        self.state = NodeState.RUNNING

    def stop(self) -> None:
        self.state = NodeState.STOPPED
        for container in self.containers.values():
            container.stop()

    def launch_container(self, container_id: str, image: SoftwareComponent,
                         labels: Optional[Dict[str, str]] = None) -> Container:
        """Create and start a container on this VM."""
        if self.state is not NodeState.RUNNING:
            raise ConfigurationError(f"VM {self.vm_id} is not running")
        if container_id in self.containers:
            raise ConfigurationError(f"container {container_id} already exists")
        container = Container(container_id, image, labels=dict(labels or {}))
        container.start()
        self.containers[container_id] = container
        return container


@dataclass
class Host:
    """A bare-metal server with hypervisor and capacity accounting."""

    host_id: str
    bios: SoftwareComponent
    hypervisor: SoftwareComponent
    cpus: int = 32
    memory_mb: int = 262_144
    has_tpm: bool = True
    state: NodeState = NodeState.DEFINED
    vms: Dict[str, VirtualMachine] = field(default_factory=dict)

    def start(self) -> None:
        self.state = NodeState.RUNNING

    def stop(self) -> None:
        """Crash/stop the host; running VMs (and their containers) go down."""
        self.state = NodeState.STOPPED
        for vm in self.vms.values():
            vm.stop()

    def available_vcpus(self) -> int:
        used = sum(vm.vcpus for vm in self.vms.values()
                   if vm.state is NodeState.RUNNING)
        return self.cpus - used

    def available_memory_mb(self) -> int:
        used = sum(vm.memory_mb for vm in self.vms.values()
                   if vm.state is NodeState.RUNNING)
        return self.memory_mb - used

    def launch_vm(self, vm: VirtualMachine) -> VirtualMachine:
        """Place and boot a VM; rejects overcommit."""
        if self.state is not NodeState.RUNNING:
            raise ConfigurationError(f"host {self.host_id} is not running")
        if vm.vm_id in self.vms:
            raise ConfigurationError(f"vm {vm.vm_id} already placed")
        if vm.vcpus > self.available_vcpus():
            raise ConfigurationError(
                f"host {self.host_id}: insufficient vcpus for {vm.vm_id}")
        if vm.memory_mb > self.available_memory_mb():
            raise ConfigurationError(
                f"host {self.host_id}: insufficient memory for {vm.vm_id}")
        self.vms[vm.vm_id] = vm
        vm.start()
        return vm

    def find_vm(self, vm_id: str) -> VirtualMachine:
        try:
            return self.vms[vm_id]
        except KeyError:
            raise NotFoundError(f"vm {vm_id} not on host {self.host_id}") from None


class Datacenter:
    """A pool of hosts belonging to one cloud instance."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.hosts: Dict[str, Host] = {}

    def add_host(self, host: Host) -> Host:
        if host.host_id in self.hosts:
            raise ConfigurationError(f"host {host.host_id} already registered")
        self.hosts[host.host_id] = host
        host.start()
        return host

    def first_fit(self, vcpus: int, memory_mb: int) -> Host:
        """First host with room for the requested VM shape."""
        for host in self.hosts.values():
            if (host.state is NodeState.RUNNING
                    and host.available_vcpus() >= vcpus
                    and host.available_memory_mb() >= memory_mb):
                return host
        raise ConfigurationError(
            f"datacenter {self.name}: no host fits {vcpus} vcpus/{memory_mb} MB")

    def all_vms(self) -> List[VirtualMachine]:
        return [vm for host in self.hosts.values() for vm in host.vms.values()]
