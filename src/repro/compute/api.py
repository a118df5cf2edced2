"""The versioned ``/v1/compute`` job API.

The redesigned public surface of the compute layer: callers build a
:class:`~.graph.TaskGraph`, wrap it in a :class:`JobSubmitRequest`, and
go through :meth:`~repro.core.api.ApiGateway.dispatch` — which means
federated authentication, per-tenant **and per-route** rate limits, RBAC
(only researchers, i.e. holders of WRITE on ``compute-jobs``, may submit;
read-only roles can poll), deadlines, metering, and audit logging all
apply before the scheduler ever sees the graph.

Tenant isolation is the shared rule of
:class:`~repro.core.api.TenantSurface`: a job id belonging to another
tenant behaves exactly like a missing one (404), so ids cannot be probed
across tenants.  Every handler threads the job id into the ``audit`` log
stream, so :meth:`~repro.compliance.audit.AuditService.search_logs`
reconstructs a job's API history from submission to cancellation.

``Scheduler.submit`` remains the *internal* surface for platform code;
this module is the only supported path for tenant traffic.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional

from ..core.api import RequestContext, TenantSurface
from ..core.errors import ValidationError
from ..rbac.model import Action
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
        return asdict(self)


class ComputeApi(TenantSurface):
    """Registers the ``/v1/compute`` routes against one scheduler."""

    noun = "compute job"
    resource_type = COMPUTE_RESOURCE
    route_table = (
        ("/compute/submit", "submit", Action.WRITE, SUBMIT_RATE_LIMIT,
         "submit a task graph as a compute job"),
        ("/compute/status", "status", Action.READ, STATUS_RATE_LIMIT,
         "poll a compute job's lifecycle state"),
        ("/compute/result", "result", Action.READ, RESULT_RATE_LIMIT,
         "fetch a finished compute job's outputs"),
        ("/compute/cancel", "cancel", Action.WRITE, CANCEL_RATE_LIMIT,
         "cancel a pending or running compute job"),
    )

    def __init__(self, scheduler: Scheduler) -> None:
        self.scheduler = scheduler
        self.monitoring = scheduler.monitoring

    def tenant_of(self, job_id: str) -> Optional[str]:
        job = self.scheduler.jobs.get(job_id)
        return None if job is None else job.tenant_id

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
        self.audit(context, job.job_id, "submitted",
                   extra=f"graph={request.graph.name} "
                         f"tasks={len(request.graph.tasks)}")
        # The simulation has no background executor: a submitted job is
        # driven to completion during dispatch, so "async" submission
        # still yields a terminal status to poll.
        self.scheduler.run(job.job_id)
        return JobStatusResponse.from_job(job).to_body()

    def status(self, context: RequestContext, job_id: str) -> Dict[str, Any]:
        self.require_owned(context, job_id)
        self.audit(context, job_id, "status read")
        return JobStatusResponse.from_job(
            self.scheduler.job(job_id)).to_body()

    def result(self, context: RequestContext, job_id: str,
               key: Optional[str] = None) -> Dict[str, Any]:
        self.require_owned(context, job_id)
        value = self.scheduler.result(job_id, key)
        self.audit(context, job_id, "result read",
                   extra=f"key={key!r}" if key else "all outputs")
        outputs = value if key is None else {key: value}
        return {"job_id": job_id,
                "state": self.scheduler.job(job_id).state.value,
                "outputs": outputs}

    def cancel(self, context: RequestContext, job_id: str) -> Dict[str, Any]:
        self.require_owned(context, job_id)
        job = self.scheduler.cancel(job_id)
        self.audit(context, job_id, "cancellation requested")
        return JobStatusResponse.from_job(job).to_body()
