"""The worker fleet: attested VMs the scheduler places tasks onto.

Workers are :class:`~repro.cloudsim.nodes.VirtualMachine` instances
provisioned through the
:class:`~repro.cloudsim.provisioning.ResourceProvisioningService`, so
every node executing analytics tasks sits on an attested host and boots a
signed image — the compute tier inherits the platform's trust chain
instead of bypassing it.

Each worker keeps a (simulated) **object store**: the set of object keys
resident on that node with their sizes.  Placement reads it for
locality; crashes clear it (that is what makes lineage recovery
necessary).  The pool can grow and shrink at runtime — the scheduler's
autoscaler calls :meth:`WorkerPool.grow` / :meth:`WorkerPool.shrink`
against queue depth.  A shrunk worker leaves the pool, so the pool holds
only live workers however long it runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..cloudsim.nodes import (
    Datacenter,
    Host,
    NodeState,
    SoftwareComponent,
    VirtualMachine,
)
from ..cloudsim.provisioning import ProvisionRequest, ResourceProvisioningService

# The pseudo-node holding graph input data.  It models the submitting
# client/driver and is never subject to crash windows.
DRIVER_NODE = "driver"

# Every worker VM's shape, and the provisioning time before it is usable.
WORKER_VCPUS = 2
WORKER_MEMORY_MB = 4096
PROVISION_DELAY_S = 0.250
# TPM hosts in the datacenter that standard_pool builds.
POOL_HOSTS = 4


@dataclass
class Worker:
    """One provisioned compute node and its resident objects."""

    worker_id: str
    vm: VirtualMachine
    host_id: str
    ready_at_s: float                      # provisioning completes here
    busy_until_s: float = 0.0
    store: Dict[str, int] = field(default_factory=dict)   # key -> nbytes
    tasks_started: int = 0

    @property
    def node_id(self) -> str:
        return self.vm.vm_id

    def idle_at(self, now: float) -> bool:
        return now >= self.ready_at_s and now >= self.busy_until_s


class WorkerPool:
    """Grows/shrinks a fleet of attested worker VMs."""

    def __init__(self, provisioning: ResourceProvisioningService, *,
                 bios: SoftwareComponent, kernel: SoftwareComponent,
                 image: SoftwareComponent) -> None:
        self.provisioning = provisioning
        self.bios = bios
        self.kernel = kernel
        self.image = image
        self.workers: Dict[str, Worker] = {}       # live workers only
        self._counter = 0
        self.scaled_up = 0
        self.scaled_down = 0

    # -- sizing --------------------------------------------------------------

    def grow(self, now_s: float) -> Worker:
        """Provision one more worker; it becomes usable after the delay.

        Raises :class:`AttestationError`/:class:`ConfigurationError`
        straight from the provisioning service when no attested host has
        room — the scheduler treats that as "cannot scale".
        """
        vm = self.provisioning.provision_vm(
            ProvisionRequest(vcpus=WORKER_VCPUS, memory_mb=WORKER_MEMORY_MB,
                             image=self.image,
                             labels={"pool": "repro.compute"}),
            self.bios, self.kernel)
        host_id = next(host.host_id
                       for host in self.provisioning.datacenter.hosts.values()
                       if vm.vm_id in host.vms)
        self._counter += 1
        worker = Worker(worker_id=f"w-{self._counter:04d}", vm=vm,
                        host_id=host_id,
                        ready_at_s=now_s + PROVISION_DELAY_S)
        self.workers[worker.worker_id] = worker
        self.scaled_up += 1
        return worker

    def shrink(self, worker: Worker) -> None:
        """Retire one worker: stop its VM, free host capacity, and drop it
        from the pool."""
        del self.workers[worker.worker_id]
        worker.store.clear()
        worker.vm.stop()
        host = self.provisioning.datacenter.hosts.get(worker.host_id)
        if host is not None:
            host.vms.pop(worker.vm.vm_id, None)
        self.scaled_down += 1

    # -- health --------------------------------------------------------------

    def node_up(self, worker: Worker, fault_plan=None) -> bool:
        """Is the worker's node currently able to run tasks?

        Consults the VM/host state *and* the fault plan's crash windows,
        so a crash window is honoured deterministically without anything
        applying it to the nodes.
        """
        if worker.vm.state is not NodeState.RUNNING:
            return False
        host = self.provisioning.datacenter.hosts.get(worker.host_id)
        if host is not None and host.state is not NodeState.RUNNING:
            return False
        if fault_plan is not None:
            if fault_plan.node_down(worker.node_id):
                return False
            if fault_plan.node_down(worker.host_id):
                return False
        return True

    def active(self) -> List[Worker]:
        """Live workers, in stable id order."""
        return [self.workers[w] for w in sorted(self.workers)]

    def size(self) -> int:
        return len(self.workers)


def standard_pool(*, monitoring=None) -> WorkerPool:
    """A ready-to-use pool: :data:`POOL_HOSTS` TPM hosts, signed images,
    an attesting provisioning service.

    Convenience for benchmarks/examples; production wiring passes its own
    :class:`ResourceProvisioningService` with real attestation hooks.
    """
    bios = SoftwareComponent("bios", b"compute-bios-1.0")
    kernel = SoftwareComponent("kernel", b"compute-kernel-1.0")
    hypervisor = SoftwareComponent("hypervisor", b"compute-hv-1.0")
    image = SoftwareComponent("task-runtime", b"compute-runtime-1.0")
    datacenter = Datacenter("compute-dc")
    for i in range(POOL_HOSTS):
        datacenter.add_host(Host(host_id=f"compute-host-{i:02d}",
                                 bios=bios, hypervisor=hypervisor,
                                 has_tpm=True))
    provisioning = ResourceProvisioningService(datacenter,
                                               monitoring=monitoring)
    return WorkerPool(provisioning, bios=bios, kernel=kernel, image=image)
