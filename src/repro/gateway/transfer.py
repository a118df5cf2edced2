"""Intercloud Secure Gateway (Section II-C).

"The intercloud secure gateway facilitates transfer of these trusted
analytics containers between cloud platforms and also offers a service of
Remote Attestation for the platform to attest when the analytics workload
is started.  This allows the computation to be transferred to data instead
of otherwise, thereby making it very efficient and secured."

:class:`IntercloudGateway` connects two cloud instances over the simulated
fabric.  :meth:`ship_container` verifies the container signature, checks
both clouds' trust, transfers the image, remote-attests the target VM at
workload start, and runs the entrypoint next to the data.
:meth:`ship_data` is the inefficient alternative (move the dataset to the
computation) that E11 compares against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..cloudsim.network import NetworkFabric
from ..cloudsim.nodes import VirtualMachine
from ..core.errors import AttestationError, GatewayError
from ..crypto.rsa import RsaPublicKey
from ..trusted.chain import TrustedBootOrchestrator
from .containers import AnalyticsContainer, TrustedAuthoringEnvironment, verify_container


@dataclass
class CloudInstance:
    """One trusted cloud endpoint the gateway connects."""

    name: str                      # fabric endpoint
    orchestrator: TrustedBootOrchestrator
    host_id: str
    vm: VirtualMachine
    datasets: Dict[str, bytes] = field(default_factory=dict)

    def attest(self) -> bool:
        """Is this cloud's hosting VM currently trusted?"""
        return self.orchestrator.attest_vm(self.host_id, self.vm.vm_id).trusted


@dataclass
class ExecutionReport:
    """Outcome + accounting of a shipped workload."""

    result: Any
    bytes_transferred: int
    transfer_time_s: float
    attested: bool
    executed_at: str


class IntercloudGateway:
    """Ships trusted containers (or data) between cloud instances."""

    def __init__(self, fabric: NetworkFabric,
                 authoring: TrustedAuthoringEnvironment,
                 signer_key: RsaPublicKey) -> None:
        self.fabric = fabric
        self.authoring = authoring
        self._signer_key = signer_key
        self._clouds: Dict[str, CloudInstance] = {}

    def register_cloud(self, cloud: CloudInstance) -> None:
        self._clouds[cloud.name] = cloud

    def _cloud(self, name: str) -> CloudInstance:
        try:
            return self._clouds[name]
        except KeyError:
            raise GatewayError(f"cloud {name!r} not registered") from None

    def ship_container(self, container: AnalyticsContainer,
                       source: str, target: str, dataset: str,
                       parameters: Optional[Dict[str, Any]] = None
                       ) -> ExecutionReport:
        """Move the computation to the data (the paper's efficient path).

        1. verify the container signature (authored in a trusted env);
        2. require both clouds to attest as trusted;
        3. transfer the container image source -> target;
        4. remote-attest the target again at workload start;
        5. run the entrypoint against the co-located dataset.
        """
        if not verify_container(container, self._signer_key):
            raise GatewayError(
                f"container {container.manifest.workload_name} failed "
                "signature verification")
        source_cloud = self._cloud(source)
        target_cloud = self._cloud(target)
        for cloud in (source_cloud, target_cloud):
            if not cloud.attest():
                raise AttestationError(
                    f"cloud {cloud.name} is not trusted; refusing transfer")
        if dataset not in target_cloud.datasets:
            raise GatewayError(
                f"dataset {dataset!r} not present at {target}")
        record = self.fabric.transfer(source, target, container.size_bytes)
        # Remote attestation at workload start (launch the container in the
        # target's trust chain so its measurement is recorded and checked).
        target_cloud.orchestrator.launch_trusted_container(
            target_cloud.host_id, target_cloud.vm, container.image,
            container_id=f"wl-{container.manifest.workload_name}"
                         f"-{len(target_cloud.vm.containers)}")
        attested = target_cloud.orchestrator.attest_vm_with_containers(
            target_cloud.host_id, target_cloud.vm.vm_id).trusted
        if not attested:
            raise AttestationError(
                f"workload start attestation failed at {target}")
        entrypoint = self.authoring.entrypoint(container.manifest.entrypoint)
        payload = dict(parameters or {})
        payload["data"] = target_cloud.datasets[dataset]
        result = entrypoint(payload)
        return ExecutionReport(
            result=result,
            bytes_transferred=container.size_bytes,
            transfer_time_s=record.duration_s,
            attested=True,
            executed_at=target,
        )

    def ship_data(self, source: str, target: str, dataset: str,
                  entrypoint_name: str,
                  parameters: Optional[Dict[str, Any]] = None
                  ) -> ExecutionReport:
        """Move the data to the computation (the baseline E11 compares)."""
        source_cloud = self._cloud(source)
        target_cloud = self._cloud(target)
        for cloud in (source_cloud, target_cloud):
            if not cloud.attest():
                raise AttestationError(
                    f"cloud {cloud.name} is not trusted; refusing transfer")
        if dataset not in source_cloud.datasets:
            raise GatewayError(f"dataset {dataset!r} not present at {source}")
        data = source_cloud.datasets[dataset]
        record = self.fabric.transfer(source, target, len(data))
        entrypoint = self.authoring.entrypoint(entrypoint_name)
        payload = dict(parameters or {})
        payload["data"] = data
        result = entrypoint(payload)
        return ExecutionReport(
            result=result,
            bytes_transferred=len(data),
            transfer_time_s=record.duration_s,
            attested=True,
            executed_at=target,
        )
