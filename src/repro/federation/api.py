"""The versioned ``/v1/studies`` federated-study API.

Tenant traffic reaches the :class:`~.study.FederatedStudyService` only
through :meth:`~repro.core.api.ApiGateway.dispatch`, so federated
authentication, per-route rate limits, RBAC (WRITE on ``studies`` to
propose/approve/run, READ to poll), metering, and audit logging all apply
before any study state changes.  Tenant isolation is strict: another
tenant's study id behaves exactly like a missing one (404).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from ..core.api import ApiGateway, RequestContext, RouteSpec, audit_request
from ..core.errors import NotFoundError, ValidationError
from ..rbac.model import Action, ScopeKind
from .study import ANALYSES, FederatedStudyService

# The resource type the /v1/studies routes guard.
STUDIES_RESOURCE = "studies"

# Per-route rate limits (requests per window per tenant).  Running a
# study is the expensive verb; status polling the loosest.
PROPOSE_RATE_LIMIT = 20
DECIDE_RATE_LIMIT = 60
RUN_RATE_LIMIT = 10
STATUS_RATE_LIMIT = 240
RESULT_RATE_LIMIT = 60
RATE_WINDOW_S = 60.0


@dataclass(frozen=True)
class StudyProposalRequest:
    """Typed envelope for ``studies.propose``."""

    analysis: str
    group_id: str
    participants: Tuple[str, ...]
    threshold: int
    tags: Dict[str, str] = field(default_factory=dict)

    def validate(self) -> None:
        if self.analysis not in ANALYSES:
            raise ValidationError(
                f"analysis must be one of {ANALYSES}, got {self.analysis!r}")
        if not self.group_id:
            raise ValidationError("group_id is required")
        participants = tuple(self.participants)
        if not participants:
            raise ValidationError("a study needs at least one institution")
        if len(set(participants)) != len(participants):
            raise ValidationError("participants must be unique")
        if not isinstance(self.threshold, int):
            raise ValidationError("threshold must be an integer")
        if not 1 <= self.threshold <= len(participants):
            raise ValidationError(
                f"threshold {self.threshold} outside "
                f"1..{len(participants)}")


class StudiesApi:
    """Registers the ``/v1/studies`` routes against one study service."""

    def __init__(self, service: FederatedStudyService) -> None:
        self.service = service

    # -- wiring ---------------------------------------------------------------

    def register_routes(self, gateway: ApiGateway) -> None:
        gateway.register_route(RouteSpec(
            path="/studies/propose", handler=self.propose,
            action=Action.WRITE, resource_type=STUDIES_RESOURCE,
            scope_kind=ScopeKind.TENANT,
            description="propose a federated study (M-of-N approval)",
            rate_limit=PROPOSE_RATE_LIMIT, rate_window_s=RATE_WINDOW_S))
        gateway.register_route(RouteSpec(
            path="/studies/approve", handler=self.approve,
            action=Action.WRITE, resource_type=STUDIES_RESOURCE,
            scope_kind=ScopeKind.TENANT,
            description="record one institution's approval",
            rate_limit=DECIDE_RATE_LIMIT, rate_window_s=RATE_WINDOW_S))
        gateway.register_route(RouteSpec(
            path="/studies/deny", handler=self.deny,
            action=Action.WRITE, resource_type=STUDIES_RESOURCE,
            scope_kind=ScopeKind.TENANT,
            description="record one institution's veto",
            rate_limit=DECIDE_RATE_LIMIT, rate_window_s=RATE_WINDOW_S))
        gateway.register_route(RouteSpec(
            path="/studies/run", handler=self.run,
            action=Action.WRITE, resource_type=STUDIES_RESOURCE,
            scope_kind=ScopeKind.TENANT,
            description="run an approved study's federated analysis",
            rate_limit=RUN_RATE_LIMIT, rate_window_s=RATE_WINDOW_S))
        gateway.register_route(RouteSpec(
            path="/studies/status", handler=self.status,
            action=Action.READ, resource_type=STUDIES_RESOURCE,
            scope_kind=ScopeKind.TENANT,
            description="poll a study's lifecycle state and approvals",
            rate_limit=STATUS_RATE_LIMIT, rate_window_s=RATE_WINDOW_S))
        gateway.register_route(RouteSpec(
            path="/studies/result", handler=self.result,
            action=Action.READ, resource_type=STUDIES_RESOURCE,
            scope_kind=ScopeKind.TENANT,
            description="fetch a completed study's aggregate result",
            rate_limit=RESULT_RATE_LIMIT, rate_window_s=RATE_WINDOW_S))

    # -- handlers -------------------------------------------------------------

    def propose(self, context: RequestContext,
                request: StudyProposalRequest) -> Dict[str, Any]:
        if not isinstance(request, StudyProposalRequest):
            raise ValidationError(
                "studies.propose takes a StudyProposalRequest envelope")
        request.validate()
        opened = self.service.propose(
            tenant_id=context.tenant_id,
            researcher=context.user.user_id,
            analysis=request.analysis, group_id=request.group_id,
            participants=list(request.participants),
            threshold=request.threshold)
        self._audit(context, opened["study_id"], "proposed",
                    extra=f"analysis={request.analysis} "
                          f"threshold={request.threshold}-of-"
                          f"{len(request.participants)}")
        return self.service.status(opened["study_id"])

    def approve(self, context: RequestContext, study_id: str,
                institution: str) -> Dict[str, Any]:
        self._owned(context, study_id)
        state = self.service.approve(study_id, institution)
        self._audit(context, study_id, "approval recorded",
                    extra=f"institution={institution} state={state}")
        return self.service.status(study_id)

    def deny(self, context: RequestContext, study_id: str,
             institution: str) -> Dict[str, Any]:
        self._owned(context, study_id)
        self.service.deny(study_id, institution)
        self._audit(context, study_id, "denial recorded",
                    extra=f"institution={institution}")
        return self.service.status(study_id)

    def run(self, context: RequestContext, study_id: str) -> Dict[str, Any]:
        self._owned(context, study_id)
        summary = self.service.run(study_id)
        self._audit(context, study_id, "run",
                    extra=f"rounds={summary['rounds']} "
                          f"digest={summary['result_digest'][:16]}")
        return summary

    def status(self, context: RequestContext,
               study_id: str) -> Dict[str, Any]:
        self._owned(context, study_id)
        self._audit(context, study_id, "status read")
        return self.service.status(study_id)

    def result(self, context: RequestContext,
               study_id: str) -> Dict[str, Any]:
        self._owned(context, study_id)
        local = self.service._known(study_id)
        fitted = self.service.result_object(study_id)
        self._audit(context, study_id, "result read")
        if local["analysis"] == "jmf":
            body = {
                "analysis": "jmf",
                "drug_source_weights": {
                    k: float(v)
                    for k, v in fitted.drug_source_weights.items()},
                "disease_source_weights": {
                    k: float(v)
                    for k, v in fitted.disease_source_weights.items()},
                "objective": [float(o) for o in fitted.objective_history],
            }
        else:
            body = {
                "analysis": "delt",
                "effects": [float(e) for e in fitted.effects],
                "objective": [float(o) for o in fitted.objective_history],
            }
        body["study_id"] = study_id
        return body

    # -- internals ------------------------------------------------------------

    def _owned(self, context: RequestContext, study_id: str) -> None:
        """Tenant isolation: someone else's study looks like no study."""
        tenant = self.service.study_tenant(study_id)
        if tenant is None or tenant != context.tenant_id:
            raise NotFoundError(f"no study {study_id!r}")

    def _audit(self, context: RequestContext, study_id: str, verb: str,
               extra: str = "") -> None:
        audit_request(self.service.monitoring, context, f"study {study_id}",
                      verb, extra)
