"""The versioned ``/v1/compute`` job API.

The redesigned public surface of the compute layer: callers build a
:class:`~.graph.TaskGraph`, wrap it in a :class:`JobSubmitRequest`, and
go through :meth:`~repro.core.api.ApiGateway.dispatch` — which means
federated authentication, per-tenant **and per-route** rate limits, RBAC
(only researchers, i.e. holders of WRITE on ``compute-jobs``, may submit;
read-only roles can poll), deadlines, metering, and audit logging all
apply before the scheduler ever sees the graph.

Tenant isolation is strict: a job id belonging to another tenant behaves
exactly like a missing one (404), so ids cannot be probed across
tenants.  Every handler threads the job id into the ``audit`` log
stream, so :meth:`~repro.compliance.audit.AuditService.search_logs`
reconstructs a job's API history from submission to cancellation.

``Scheduler.submit`` remains the *internal* surface for platform code;
this module is the only supported path for tenant traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..core.api import ApiGateway, RequestContext, RouteSpec, audit_request
from ..core.errors import NotFoundError, ValidationError
from ..rbac.model import Action, ScopeKind
from .graph import TaskGraph
from .scheduler import Job, Scheduler

# The resource type the /v1/compute routes guard.  "Researcher" in the
# route contract means: a role holding WRITE on this resource type.
COMPUTE_RESOURCE = "compute-jobs"

# Per-route rate limits (requests per window per tenant), applied on top
# of the gateway-wide limiter.  Submission is the expensive verb, so it
# gets the tightest budget; status polling the loosest.
SUBMIT_RATE_LIMIT = 20
STATUS_RATE_LIMIT = 240
RESULT_RATE_LIMIT = 60
CANCEL_RATE_LIMIT = 30
RATE_WINDOW_S = 60.0


@dataclass(frozen=True)
class JobSubmitRequest:
    """Typed envelope for ``compute.submit``."""

    graph: TaskGraph
    tags: Dict[str, str] = field(default_factory=dict)

    def validate(self) -> None:
        if not isinstance(self.graph, TaskGraph):
            raise ValidationError(
                "JobSubmitRequest.graph must be a TaskGraph")
        self.graph.validate()


@dataclass(frozen=True)
class JobStatusResponse:
    """Typed envelope for ``compute.status`` (and submit's echo)."""

    job_id: str
    state: str
    graph: str
    tenant_id: str
    submitted_at_s: float
    started_at_s: Optional[float]
    finished_at_s: Optional[float]
    makespan_s: Optional[float]
    tasks: Dict[str, int]
    attempts: int
    recovered_tasks: int
    error: str
    error_type: str
    trace_id: Optional[str]

    @classmethod
    def from_job(cls, job: Job) -> "JobStatusResponse":
        return cls(
            job_id=job.job_id, state=job.state.value, graph=job.graph.name,
            tenant_id=job.tenant_id, submitted_at_s=job.submitted_at_s,
            started_at_s=job.started_at_s, finished_at_s=job.finished_at_s,
            makespan_s=job.makespan_s, tasks=job.counts(),
            attempts=sum(job.attempts.values()),
            recovered_tasks=len(job.recovered_tasks),
            error=job.error, error_type=job.error_type,
            trace_id=job.trace_id)

    def to_body(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id, "state": self.state, "graph": self.graph,
            "tenant_id": self.tenant_id,
            "submitted_at_s": self.submitted_at_s,
            "started_at_s": self.started_at_s,
            "finished_at_s": self.finished_at_s,
            "makespan_s": self.makespan_s, "tasks": self.tasks,
            "attempts": self.attempts,
            "recovered_tasks": self.recovered_tasks,
            "error": self.error, "error_type": self.error_type,
            "trace_id": self.trace_id,
        }


class ComputeApi:
    """Registers the ``/v1/compute`` routes against one scheduler."""

    def __init__(self, scheduler: Scheduler) -> None:
        self.scheduler = scheduler

    # -- wiring ---------------------------------------------------------------

    def register_routes(self, gateway: ApiGateway) -> None:
        gateway.register_route(RouteSpec(
            path="/compute/submit", handler=self.submit,
            action=Action.WRITE, resource_type=COMPUTE_RESOURCE,
            scope_kind=ScopeKind.TENANT,
            description="submit a task graph as a compute job",
            rate_limit=SUBMIT_RATE_LIMIT, rate_window_s=RATE_WINDOW_S))
        gateway.register_route(RouteSpec(
            path="/compute/status", handler=self.status,
            action=Action.READ, resource_type=COMPUTE_RESOURCE,
            scope_kind=ScopeKind.TENANT,
            description="poll a compute job's lifecycle state",
            rate_limit=STATUS_RATE_LIMIT, rate_window_s=RATE_WINDOW_S))
        gateway.register_route(RouteSpec(
            path="/compute/result", handler=self.result,
            action=Action.READ, resource_type=COMPUTE_RESOURCE,
            scope_kind=ScopeKind.TENANT,
            description="fetch a finished compute job's outputs",
            rate_limit=RESULT_RATE_LIMIT, rate_window_s=RATE_WINDOW_S))
        gateway.register_route(RouteSpec(
            path="/compute/cancel", handler=self.cancel,
            action=Action.WRITE, resource_type=COMPUTE_RESOURCE,
            scope_kind=ScopeKind.TENANT,
            description="cancel a pending or running compute job",
            rate_limit=CANCEL_RATE_LIMIT, rate_window_s=RATE_WINDOW_S))

    # -- handlers -------------------------------------------------------------

    def submit(self, context: RequestContext,
               request: JobSubmitRequest) -> Dict[str, Any]:
        if not isinstance(request, JobSubmitRequest):
            raise ValidationError(
                "compute.submit takes a JobSubmitRequest envelope")
        request.validate()
        job = self.scheduler.submit(request.graph,
                                    tenant_id=context.tenant_id,
                                    submitted_by=context.user.user_id)
        self._audit(context, job, "submitted",
                    extra=f"graph={request.graph.name} "
                          f"tasks={len(request.graph.tasks)}")
        # The simulation has no background executor: a submitted job is
        # driven to completion during dispatch, so "async" submission
        # still yields a terminal status to poll.
        self.scheduler.run(job.job_id)
        return JobStatusResponse.from_job(job).to_body()

    def status(self, context: RequestContext, job_id: str) -> Dict[str, Any]:
        job = self._owned(context, job_id)
        self._audit(context, job, "status read")
        return JobStatusResponse.from_job(job).to_body()

    def result(self, context: RequestContext, job_id: str,
               key: Optional[str] = None) -> Dict[str, Any]:
        job = self._owned(context, job_id)
        value = self.scheduler.result(job_id, key)
        self._audit(context, job, "result read",
                    extra=f"key={key!r}" if key else "all outputs")
        outputs = value if key is None else {key: value}
        return {"job_id": job_id, "state": job.state.value,
                "outputs": outputs}

    def cancel(self, context: RequestContext, job_id: str) -> Dict[str, Any]:
        job = self._owned(context, job_id)
        self.scheduler.cancel(job_id)
        self._audit(context, job, "cancellation requested")
        return JobStatusResponse.from_job(job).to_body()

    # -- internals ------------------------------------------------------------

    def _owned(self, context: RequestContext, job_id: str) -> Job:
        """Tenant isolation: someone else's job looks exactly like no job."""
        job = self.scheduler.job(job_id)
        if job.tenant_id != context.tenant_id:
            raise NotFoundError(f"no compute job {job_id!r}")
        return job

    def _audit(self, context: RequestContext, job: Job, verb: str,
               extra: str = "") -> None:
        audit_request(self.scheduler.monitoring, context,
                      f"compute job {job.job_id}", verb, extra)
