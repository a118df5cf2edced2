"""The Health Cloud Platform facade (Sections II-III, Fig. 1).

:class:`HealthCloudPlatform` wires the subsystems into the deployable
whole the paper's Fig. 1 sketches: trusted infrastructure + attestation,
RBAC + federated identity, consent, KMS + Data Lake, the blockchain
networks, the asynchronous ingestion pipeline, export, the analytics
model registry, and monitoring — all sharing one simulated clock and one
seed, so an end-to-end run is deterministic.

The Registration Service behaviour (Section II-B) is implemented by
:meth:`register_tenant`: "A default organization for each tenant is
created; under that, a default environment for development and deployment
of custom services ... is created."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..analytics.lifecycle import ModelRegistry
from ..blockchain import BlockchainNetwork, standard_network
from ..blockchain.audit import AuditorView
from ..cloudsim.clock import SimClock
from ..cloudsim.monitoring import MonitoringService
from ..compliance.audit import AuditService
from ..compliance.gdpr import GdprService
from ..compliance.hipaa import HipaaControlRegistry
from ..crypto.kms import KeyManagementService
from ..crypto.symmetric import generate_key
from .metering import MeteringService
from .reports import ReportService
from ..ingestion.datalake import DataLake
from ..ingestion.export import ExportService
from ..ingestion.pipeline import IngestionJob, IngestionService
from ..privacy.consent import ConsentManagementService
from ..privacy.deidentify import Deidentifier
from ..privacy.verification import AnonymizationVerificationService
from ..rbac.engine import RbacEngine
from ..rbac.federation import FederatedIdentityService
from ..rbac.model import Environment, Organization, Tenant


@dataclass
class TenantContext:
    """What :meth:`register_tenant` hands back: tenant + defaults."""

    tenant: Tenant
    default_org: Organization
    default_env: Environment


class HealthCloudPlatform:
    """One fully wired health cloud instance."""

    def __init__(self, seed: int = 0, use_blockchain: bool = True,
                 minimum_anonymization_degree: float = 0.6,
                 provenance_batch_size: int = 16) -> None:
        self.seed = seed
        self.clock = SimClock()
        self.monitoring = MonitoringService(self.clock)

        # Identity and access.
        self.rbac = RbacEngine()
        self.federation = FederatedIdentityService(self.rbac, self.clock)

        # Privacy substrate.
        self.consent = ConsentManagementService(self.clock)
        self.deidentifier = Deidentifier(
            secret=generate_key(seed * 31 + 7))
        self.verification = AnonymizationVerificationService(
            minimum_degree=minimum_anonymization_degree)

        # Storage.
        self.kms = KeyManagementService("platform", seed=seed)
        self.datalake = DataLake(self.kms)

        # Provenance / consent / malware / privacy networks.
        self.blockchain: Optional[BlockchainNetwork] = (
            standard_network(seed=seed, batch_size=8, clock=self.clock,
                             monitoring=self.monitoring)
            if use_blockchain else None)

        # Ingestion + export.
        self.ingestion = IngestionService(
            datalake=self.datalake,
            consent=self.consent,
            deidentifier=self.deidentifier,
            verification=self.verification,
            blockchain=self.blockchain,
            monitoring=self.monitoring,
            clock=self.clock,
            key_seed=seed,
            provenance_batch_size=provenance_batch_size,
        )
        self.export = ExportService(
            datalake=self.datalake,
            consent=self.consent,
            rbac=self.rbac,
            reidentification=self.ingestion.reidentification,
        )

        # Analytics + compliance.
        self.models = ModelRegistry()
        self.controls = HipaaControlRegistry()
        self.gdpr = GdprService(self.datalake, self.consent,
                                self.deidentifier, self.blockchain)
        auditor = (AuditorView(self.blockchain)
                   if self.blockchain is not None else None)
        self.audit = AuditService(self.monitoring, self.rbac, auditor)

        # Billing and tenant-facing reports (Fig. 1's dashboard box).
        self.metering = MeteringService(clock=self.clock)
        self.reports = ReportService(self.monitoring, self.controls,
                                     self.audit, self.metering)

        self._register_default_controls()

    # -- tenancy (Section II-B "Registration Service") ---------------------------

    def register_tenant(self, name: str) -> TenantContext:
        """Create a tenant with its default organization and environment."""
        tenant = self.rbac.create_tenant(name)
        org = self.rbac.create_organization(tenant.tenant_id, "default")
        env = self.rbac.create_environment(org.org_id, "default",
                                           kind="development")
        self.monitoring.log("registration",
                            f"tenant {name} registered with default org/env")
        return TenantContext(tenant, org, env)

    # -- ingestion convenience ------------------------------------------------------

    def flush_blockchain(self) -> None:
        """Cut and commit any pending provenance blocks."""
        if self.blockchain is not None:
            self.blockchain.flush()

    def run_ingestion(self, limit: Optional[int] = None) -> int:
        """Drive the background ingestion worker, then seal the ledger."""
        processed = self.ingestion.process_pending(limit)
        self.flush_blockchain()
        return processed

    def _job_tenant(self, job: IngestionJob) -> Optional[str]:
        """The tenant that owns an ingestion job: its group's tenant."""
        group = self.rbac.groups.get(job.group_id)
        return None if group is None else group.tenant_id

    # -- API surface (Section II-B "API and API management") --------------------

    def build_api_gateway(self, rate_limit: int = 1000, compute=None,
                          subscriptions=None, studies=None):
        """Expose the platform's standard capabilities behind the gateway.

        Routes require a tenant-scoped permission on their resource type:
        ``platform-status`` (read), ``reports`` (read), ``billing`` (read).
        ``/ingestion/status`` answers only for a job whose group the
        caller's tenant owns; any other id reads as unknown (404).  The
        two report routes answer for the caller's tenant only: its own
        ingestion jobs, and its own users' access decisions.
        Handlers receive the request's
        :class:`~repro.core.api.RequestContext` plus its parameters.

        Pass a :class:`~repro.compute.ComputeApi` as ``compute`` to also
        expose the versioned ``/v1/compute`` job routes (submit/status/
        result/cancel, guarded by WRITE/READ on ``compute-jobs``), and a
        :class:`~repro.streaming.SubscriptionApi` as ``subscriptions``
        for the ``/v1/subscriptions`` push-subscription surface
        (register/list/poll/cancel on ``subscriptions``), and a
        :class:`~repro.federation.StudiesApi` as ``studies`` for the
        ``/v1/studies`` federated-study lifecycle (propose/approve/deny/
        run/status/result on ``studies``).
        """
        from ..rbac.model import Action, ScopeKind
        from .api import ApiGateway, RouteSpec, require_owner

        def ingestion_status(context, job_id):
            job = self.ingestion.jobs.get(job_id)
            require_owner(None if job is None else self._job_tenant(job),
                          context, "ingestion job", job_id)
            return {"status": job.status.value, "reason": job.reason}

        def operations(context):
            return self.reports.operations_report(jobs=[
                job for job in self.ingestion.jobs.values()
                if self._job_tenant(job) == context.tenant_id]).body

        gateway = ApiGateway(
            self.rbac, self.federation, monitoring=self.monitoring,
            clock=self.clock, rate_limit=rate_limit,
            meter=lambda tenant_id, path: self.metering.record(
                tenant_id, "api.call"))
        gateway.register_route(RouteSpec(
            path="/ingestion/status", handler=ingestion_status,
            action=Action.READ, resource_type="platform-status",
            scope_kind=ScopeKind.TENANT,
            description="poll an ingestion job's status URL"))
        gateway.register_route(RouteSpec(
            path="/reports/operations",
            handler=operations,
            action=Action.READ, resource_type="reports",
            scope_kind=ScopeKind.TENANT,
            description="operations dashboard"))
        gateway.register_route(RouteSpec(
            path="/reports/compliance",
            handler=lambda context: self.reports.compliance_report(
                context.tenant_id).body,
            action=Action.READ, resource_type="reports",
            scope_kind=ScopeKind.TENANT,
            description="compliance dashboard"))
        gateway.register_route(RouteSpec(
            path="/billing",
            handler=lambda context: self.reports.billing_report(
                context.tenant_id).body,
            action=Action.READ, resource_type="billing",
            scope_kind=ScopeKind.TENANT,
            description="current-period invoice"))
        if compute is not None:
            compute.register_routes(gateway)
        if subscriptions is not None:
            subscriptions.register_routes(gateway)
        if studies is not None:
            studies.register_routes(gateway)
        return gateway

    # -- compliance wiring -----------------------------------------------------------

    def _register_default_controls(self) -> None:
        """Mark the controls this codebase actually implements."""
        implemented = {
            "164.308-access": "repro.rbac",
            "164.310-facility": "repro.trusted",
            "164.310-device": "repro.ingestion.datalake (crypto-deletion)",
            "164.312-access": "repro.rbac + repro.rbac.federation",
            "164.312-audit": "repro.compliance.audit",
            "164.312-integrity": "repro.crypto (HMAC/redactable signatures)",
            "164.312-transmission": "repro.crypto (AEAD + hybrid envelope)",
            "gdpr-17-erasure": "repro.compliance.gdpr",
            "gdpr-7-consent": "repro.privacy.consent + consent chaincode",
            "gdpr-30-records": "repro.blockchain (provenance ledger)",
            "gxp-change": "repro.compliance.change",
        }
        for control_id, component in implemented.items():
            self.controls.mark_implemented(control_id, component)
