"""vTPM manager (Fig. 5, refs [9], [23]).

"The main idea is to have a software implementation of trusted platform
modules (vTPM), execute it in a dedicated VM and take measurements that
will be used by an external Attestation Service."

The :class:`VtpmManager` runs (conceptually) in a special VM on each host;
it multiplexes per-VM vTPM instances, and each guest VM reaches its own
instance through a client driver.  Containers inside a VM reach the vTPM
through a per-VM :class:`VtpmInterfaceContainer` over a Unix-socket-or-IPC
style channel — modelled as a method-call facade with an attachment check,
which is the behaviour the architecture relies on (only attached clients
can extend/quote, and each VM sees only its own vTPM state).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.errors import ConfigurationError, NotFoundError
from .tpm import Quote, Tpm


class VtpmManager:
    """User-space process providing the vTPM interface to guest VMs."""

    def __init__(self, host_id: str, seed: Optional[int] = None) -> None:
        self.host_id = host_id
        self._seed = seed
        self._instances: Dict[str, Tpm] = {}

    def create_instance(self, vm_id: str) -> Tpm:
        """Create the vTPM for a VM; one instance per VM."""
        if vm_id in self._instances:
            raise ConfigurationError(f"vTPM for {vm_id} already exists")
        seed = None
        if self._seed is not None:
            seed = self._seed * 104_729 + (len(self._instances) + 1)
        vtpm = Tpm(tpm_id=f"vtpm:{self.host_id}:{vm_id}", seed=seed)
        self._instances[vm_id] = vtpm
        return vtpm

    def instance_for(self, vm_id: str) -> Tpm:
        try:
            return self._instances[vm_id]
        except KeyError:
            raise NotFoundError(f"no vTPM instance for vm {vm_id}") from None


@dataclass
class VtpmChannel:
    """The client-driver <-> server-driver channel of Fig. 5.

    ``transport`` records whether the consumer container talks over a Unix
    socket or via an IPC adapter exposing a character device; functionally
    both deliver the same vTPM interface.
    """

    vm_id: str
    transport: str  # "unix-socket" | "ipc-adapter"
    _vtpm: Tpm
    attached: bool = True

    def extend(self, pcr_index: int, component: str, measurement: str) -> str:
        self._require_attached()
        return self._vtpm.extend(pcr_index, component, measurement)

    def read_pcr(self, pcr_index: int) -> str:
        self._require_attached()
        return self._vtpm.read_pcr(pcr_index)

    def quote(self, nonce: bytes, pcr_indices: Tuple[int, ...]) -> Quote:
        self._require_attached()
        return self._vtpm.quote(nonce, pcr_indices)

    def detach(self) -> None:
        """Close the channel (container stopped)."""
        self.attached = False

    def _require_attached(self) -> None:
        if not self.attached:
            raise ConfigurationError(
                f"vTPM channel for {self.vm_id} is detached")


class VtpmInterfaceContainer:
    """The special per-VM container exposing the vTPM to other containers."""

    VALID_TRANSPORTS = ("unix-socket", "ipc-adapter")

    def __init__(self, vm_id: str, vtpm: Tpm) -> None:
        self.vm_id = vm_id
        self._vtpm = vtpm
        self._channels: Dict[str, VtpmChannel] = {}

    def open_channel(self, container_id: str,
                     transport: str = "unix-socket") -> VtpmChannel:
        """Open a channel for a consumer container."""
        if transport not in self.VALID_TRANSPORTS:
            raise ConfigurationError(f"unknown vTPM transport {transport!r}")
        channel = VtpmChannel(self.vm_id, transport, self._vtpm)
        self._channels[container_id] = channel
        return channel

    def close_channel(self, container_id: str) -> None:
        channel = self._channels.pop(container_id, None)
        if channel is not None:
            channel.detach()
