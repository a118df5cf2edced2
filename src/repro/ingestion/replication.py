"""High availability and disaster recovery service (Section II-B).

"Platform services provide secure generic services, namely a DevOps
Service, high availability and disaster recovery service..."

:class:`ReplicatedDataLake` fronts a primary :class:`~.datalake.DataLake`
plus N replicas in (simulated) separate zones:

* writes go to the primary and replicate synchronously or asynchronously;
* reads fail over to a replica when the primary zone is down;
* a zone failure triggers promotion of the most caught-up replica;
* :meth:`disaster_recovery_drill` verifies every record survives a
  primary loss bit-for-bit.

Crypto-deletion (right-to-forget) stays correct under replication because
all copies share the same KMS: destroying the patient key makes every
replica's ciphertext unreadable at once — replicas never hold plaintext.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.errors import NotFoundError, ServiceUnavailableError
from ..crypto.kms import KeyManagementService
from ..cloudsim.monitoring import MonitoringService
from .datalake import DataLake, StoredRecord


@dataclass
class _Zone:
    """One availability zone hosting a lake copy."""

    name: str
    lake: DataLake
    healthy: bool = True
    applied_writes: int = 0


class ReplicatedDataLake:
    """Primary/replica data lake with failover and DR verification."""

    def __init__(self, kms: KeyManagementService, zones: List[str],
                 synchronous: bool = True,
                 monitoring: Optional[MonitoringService] = None) -> None:
        if len(zones) < 2:
            raise ServiceUnavailableError(
                "HA requires at least two zones")
        self._zones: Dict[str, _Zone] = {
            name: _Zone(name, DataLake(kms)) for name in zones}
        self._primary = zones[0]
        self.synchronous = synchronous
        self.monitoring = (monitoring if monitoring is not None
                           else MonitoringService())
        # Write-ahead log of (method, args) for async catch-up.
        self._log: List[Tuple[str, tuple, dict]] = []
        # Optional chaos hook: crash windows on zone names, applied by
        # tick_faults() so outages/recoveries follow the simulated clock.
        self.fault_plan = None

    # -- topology -----------------------------------------------------------

    @property
    def primary_zone(self) -> str:
        return self._primary

    def replica_zones(self) -> List[str]:
        return [z for z in self._zones if z != self._primary]

    def fail_zone(self, zone: str) -> None:
        """Simulate a zone outage."""
        self._zone(zone).healthy = False
        self.monitoring.log("hadr", f"zone {zone} DOWN", level="ERROR")
        if zone == self._primary:
            self._promote()

    def heal_zone(self, zone: str) -> None:
        """Zone comes back; replays the log to catch up."""
        z = self._zone(zone)
        z.healthy = True
        self._catch_up(z)
        self.monitoring.log("hadr", f"zone {zone} healed and caught up")

    def tick_faults(self) -> None:
        """Apply the attached fault plan's zone crash windows right now."""
        if self.fault_plan is None:
            return
        for zone in list(self._zones.values()):
            down = self.fault_plan.node_down(zone.name)
            if down and zone.healthy:
                self.fail_zone(zone.name)
            elif not down and not zone.healthy:
                self.heal_zone(zone.name)

    def _promote(self) -> None:
        candidates = [z for z in self._zones.values()
                      if z.healthy and z.name != self._primary]
        if not candidates:
            raise ServiceUnavailableError("no healthy replica to promote")
        # Most caught-up replica wins.
        new_primary = max(candidates, key=lambda z: z.applied_writes)
        self._catch_up(new_primary)
        self._primary = new_primary.name
        self.monitoring.metrics.incr("hadr.promotions")
        self.monitoring.log("hadr",
                            f"promoted {new_primary.name} to primary")

    def _catch_up(self, zone: _Zone) -> None:
        while zone.applied_writes < len(self._log):
            method, args, kwargs = self._log[zone.applied_writes]
            getattr(zone.lake, method)(*args, **kwargs)
            zone.applied_writes += 1

    def _zone(self, name: str) -> _Zone:
        try:
            return self._zones[name]
        except KeyError:
            raise NotFoundError(f"unknown zone {name!r}") from None

    def _healthy_lake(self) -> _Zone:
        primary = self._zones[self._primary]
        if primary.healthy:
            return primary
        self._promote()
        return self._zones[self._primary]

    # -- data-plane API (mirrors DataLake) --------------------------------------

    def store(self, patient_ref: str, plaintext: bytes,
              kind: str = "original", group_id: Optional[str] = None,
              metadata: Optional[Dict[str, str]] = None) -> StoredRecord:
        """Write-through to primary, replicate per the configured mode.

        Returns the *primary's* record so record ids are authoritative;
        all zones apply the same log order, so ids agree everywhere.
        """
        self._log.append(("store", (patient_ref, plaintext),
                          {"kind": kind, "group_id": group_id,
                           "metadata": metadata}))
        primary = self._healthy_lake()
        self._catch_up(primary)
        record = None
        for zone in self._zones.values():
            if not zone.healthy:
                continue
            if zone.name == primary.name:
                record = primary.lake._records[  # just-applied entry
                    list(primary.lake._records)[-1]]
            elif self.synchronous:
                self._catch_up(zone)
        assert record is not None
        self.monitoring.metrics.incr("hadr.writes")
        return record

    def retrieve(self, record_id: str) -> bytes:
        """Read from the primary; fail over to replicas on outage.

        Every read served by a non-primary zone counts as a failover on
        the ``hadr.failover_reads`` metric.
        """
        requested_primary = self._primary
        self.tick_faults()  # may fail the primary and promote a replica
        order = [self._primary] + self.replica_zones()
        last_error: Optional[Exception] = None
        for name in order:
            zone = self._zones[name]
            if not zone.healthy:
                continue
            self._catch_up(zone)
            try:
                value = zone.lake.retrieve(record_id)
            except NotFoundError as exc:
                last_error = exc
                continue
            if name != requested_primary:
                self.monitoring.metrics.incr("hadr.failover_reads")
            return value
        if last_error is not None:
            raise last_error
        raise ServiceUnavailableError("no healthy zone for read")

    def forget_patient(self, patient_ref: str) -> int:
        """Right-to-forget under replication: one key destruction covers
        every copy (shared KMS); metadata is dropped zone by zone."""
        affected = 0
        for zone in self._zones.values():
            self._catch_up(zone)
            affected = max(affected, zone.lake.forget_patient(patient_ref))
        return affected

    def records_for_patient(self, patient_ref: str,
                            kind: Optional[str] = None) -> List[StoredRecord]:
        """Delegates to the current primary (post-catch-up)."""
        zone = self._healthy_lake()
        self._catch_up(zone)
        return zone.lake.records_for_patient(patient_ref, kind=kind)

    def records_for_group(self, group_id: str,
                          kind: Optional[str] = None) -> List[StoredRecord]:
        """Delegates to the current primary (post-catch-up)."""
        zone = self._healthy_lake()
        self._catch_up(zone)
        return zone.lake.records_for_group(group_id, kind=kind)

    def metadata_of(self, record_id: str) -> Dict[str, str]:
        zone = self._healthy_lake()
        self._catch_up(zone)
        return zone.lake.metadata_of(record_id)

    @property
    def record_count(self) -> int:
        zone = self._healthy_lake()
        self._catch_up(zone)
        return zone.lake.record_count

    # -- verification -------------------------------------------------------------

    def zones_consistent(self) -> bool:
        """All healthy, caught-up zones hold identical record sets."""
        digests = set()
        for zone in self._zones.values():
            if not zone.healthy:
                continue
            self._catch_up(zone)
            digest = tuple(sorted(
                (r.record_id, r.content_hash)
                for r in zone.lake._records.values()))
            digests.add(digest)
        return len(digests) <= 1

    def disaster_recovery_drill(self) -> Dict[str, object]:
        """Kill the primary, fail over, verify every record readable.

        Returns a report; raises if any record is lost.
        """
        old_primary = self._primary
        record_ids = list(self._zones[old_primary].lake._records)
        self.fail_zone(old_primary)
        recovered = 0
        for record_id in record_ids:
            self.retrieve(record_id)  # raises on loss
            recovered += 1
        report = {
            "failed_zone": old_primary,
            "new_primary": self._primary,
            "records_verified": recovered,
            "data_loss": False,
        }
        self.monitoring.log("hadr", f"DR drill passed: {report}")
        return report
