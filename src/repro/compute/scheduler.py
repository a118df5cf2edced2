"""Deterministic task-graph scheduler over the simulated cloud.

The execution model is Ray-shaped but event-driven on the
:class:`~repro.cloudsim.clock.SimClock`: a submitted
:class:`~.graph.TaskGraph` becomes a :class:`Job`; ready tasks are placed
onto :class:`~.pool.WorkerPool` VMs; the loop advances the clock to the
next completion (or crash) and reacts.  Everything that orders work —
ready queues, placement candidates, event ties — is sorted, so two runs
of the same seeded world produce *identical* event sequences and
placements.

Scheduling properties:

* **data-locality-aware placement** — among idle workers, prefer the node
  already holding the *largest* input object of the task (then the most
  local bytes overall); missing inputs pay a modelled transfer cost;
* **bounded ready queue + autoscaling** — at most :data:`QUEUE_BOUND`
  tasks wait in the ready queue; the autoscaler grows the pool toward
  ``ceil(depth / TASKS_PER_WORKER)`` workers (each paying a provisioning
  delay on an attested host) and retires idle workers when depth falls;
* **one live job** — jobs run one at a time; starting another while one
  is live raises :class:`~repro.core.errors.ComputeError`;
* **lifecycle events** — PENDING → SCHEDULED → RUNNING →
  SUCCEEDED/FAILED/CANCELLED transitions (and per-task/worker events) are
  published on the health plane :class:`~..cloudsim.healthplane.EventBus`;
  the job, queue and worker counts are
  :class:`~..cloudsim.monitoring.MetricsRegistry` gauges that read the
  scheduler's own state when asked;
* **lineage-based recovery** — a FaultPlan crash window kills the
  attempts running on that node and evicts its object store; lost
  objects are recomputed by re-running their producer tasks (idempotent
  ones re-run on surviving nodes; a non-idempotent replay fails the job
  with :class:`~repro.core.errors.NonIdempotentReplayError`);
* **attribution** — on a traced clock, every attempt contributes a
  span tiled into queue/scheduling/transfer/execution children under the
  job's root span, so critical-path attribution covers the whole compute
  path and still sums to exactly 100%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional, Set, Tuple

from ..cloudsim.clock import SimClock
from ..cloudsim.monitoring import MonitoringService
from ..cloudsim.tracing import Span, maybe_span
from ..core.errors import (
    ComputeError,
    ConfigurationError,
    HealthCloudError,
    NonIdempotentReplayError,
    NotFoundError,
    RateLimitError,
    TaskCancelledError,
    TaskFailedError,
    WorkerExhaustedError,
)
from .graph import TaskGraph
from .pool import DRIVER_NODE, Worker, WorkerPool

# Autoscaling target: one worker per this many ready tasks.
TASKS_PER_WORKER = 4
# At most this many tasks wait in the ready queue.
QUEUE_BOUND = 64
# Simulated cost of one placement decision.
SCHEDULE_COST_S = 0.0005
# Moving a missing input to a worker: per-object latency plus bytes over
# the link.
TRANSFER_LATENCY_S = 0.002
BANDWIDTH_BPS = 1e9
# A task that has been placed this many times fails its job.
MAX_ATTEMPTS = 4
# Submitted jobs not yet run; one more is refused with RateLimitError.
MAX_PENDING_JOBS = 64


class JobState(Enum):
    """Lifecycle of a submitted job."""

    PENDING = "pending"
    SCHEDULED = "scheduled"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"


TERMINAL_STATES = (JobState.SUCCEEDED, JobState.FAILED, JobState.CANCELLED)


class TaskState(Enum):
    PENDING = "pending"
    READY = "ready"
    RUNNING = "running"
    SUCCEEDED = "succeeded"


@dataclass
class _Attempt:
    """One placement of one task onto one worker."""

    task_id: str
    attempt: int
    worker: Worker
    t_ready: float
    t_assign: float
    t_sched_end: float
    t_transfer_end: float
    t_done: float
    transfer_bytes: int
    fail_at: Optional[float] = None        # crash window hits before t_done

    @property
    def event_time(self) -> float:
        return self.t_done if self.fail_at is None else self.fail_at


@dataclass
class Job:
    """One submitted task graph and everything its lifecycle produced."""

    job_id: str
    graph: TaskGraph
    tenant_id: str
    submitted_by: str
    submitted_at_s: float
    state: JobState = JobState.PENDING
    started_at_s: Optional[float] = None
    finished_at_s: Optional[float] = None
    error: str = ""
    error_type: str = ""
    task_states: Dict[str, TaskState] = field(default_factory=dict)
    attempts: Dict[str, int] = field(default_factory=dict)
    ready_since: Dict[str, float] = field(default_factory=dict)
    placements: List[Dict[str, Any]] = field(default_factory=list)
    recovered_tasks: List[str] = field(default_factory=list)
    trace_id: Optional[str] = None
    cancel_requested: bool = False
    # Simulated object plane: key -> value, sizes, and node locations.
    values: Dict[str, Any] = field(default_factory=dict)
    sizes: Dict[str, int] = field(default_factory=dict)
    locations: Dict[str, Set[str]] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES

    def counts(self) -> Dict[str, int]:
        out = {state.value: 0 for state in TaskState}
        for state in self.task_states.values():
            out[state.value] += 1
        return out

    @property
    def makespan_s(self) -> Optional[float]:
        if self.started_at_s is None or self.finished_at_s is None:
            return None
        return self.finished_at_s - self.started_at_s


class Scheduler:
    """Places task graphs onto the worker pool, deterministically.

    ``submit`` is the internal surface (the versioned ``/v1/compute``
    gateway routes in :mod:`repro.compute.api` wrap it); ``run`` /
    ``run_pending`` drive jobs to completion on the simulated clock, and
    ``step`` exposes single-event granularity so callers (and tests) can
    interleave cancellation with a half-finished graph.
    """

    def __init__(self, pool: WorkerPool, clock: Optional[SimClock] = None,
                 monitoring: Optional[MonitoringService] = None, *,
                 min_workers: int = 1, max_workers: int = 8) -> None:
        if min_workers < 0 or max_workers < 1 or min_workers > max_workers:
            raise ConfigurationError(
                f"bad worker bounds [{min_workers}, {max_workers}]")
        self.pool = pool
        self.clock = clock if clock is not None else SimClock()
        self.monitoring = monitoring
        self.fault_plan = None
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.jobs: Dict[str, Job] = {}
        self._queue: List[str] = []            # submitted, not yet run
        self._job_counter = 0
        self._span_counter = 0
        # The one started, unfinished job, and its scheduling state.
        self._live: Optional[Job] = None
        self._ready: List[str] = []
        self._running: List[_Attempt] = []
        if monitoring is not None:
            register = monitoring.metrics.register_gauge
            register("compute.jobs.pending", lambda: float(len(self._queue)))
            register("compute.jobs.running",
                     lambda: 0.0 if self._live is None else 1.0)
            register("compute.queue.depth", lambda: float(len(self._ready)))
            register("compute.workers", lambda: float(self.pool.size()))

    # -- submission (the internal surface) -----------------------------------

    def submit(self, graph: TaskGraph, *, tenant_id: str = "internal",
               submitted_by: str = "internal") -> Job:
        """Validate and enqueue a graph; returns the PENDING job."""
        if len(self._queue) >= MAX_PENDING_JOBS:
            raise RateLimitError(
                f"compute job queue full ({MAX_PENDING_JOBS} pending)")
        order = graph.validate()
        self._job_counter += 1
        job = Job(job_id=f"job-{self._job_counter:06d}", graph=graph,
                  tenant_id=tenant_id, submitted_by=submitted_by,
                  submitted_at_s=self.clock.now)
        for task_id in order:
            job.task_states[task_id] = TaskState.PENDING
            job.attempts[task_id] = 0
        for key, obj in graph.data.items():
            job.values[key] = obj.value
            job.sizes[key] = obj.nbytes
            job.locations[key] = {DRIVER_NODE}
        for task in graph.tasks.values():
            job.sizes[task.output_key] = task.output_bytes
        self.jobs[job.job_id] = job
        self._queue.append(job.job_id)
        self._log(f"job {job.job_id} submitted by {submitted_by} "
                  f"tenant={tenant_id} graph={graph.name} "
                  f"tasks={len(graph.tasks)}")
        self._publish("job.pending", job_id=job.job_id, graph=graph.name,
                      tenant=tenant_id, tasks=len(graph.tasks))
        return job

    # -- lookup ---------------------------------------------------------------

    def job(self, job_id: str) -> Job:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise NotFoundError(f"no compute job {job_id!r}") from None

    def result(self, job_id: str, key: Optional[str] = None) -> Any:
        """A finished job's output object(s).

        With ``key`` the single object value; without it a dict of every
        sink output (objects no task consumes).
        """
        job = self.job(job_id)
        if job.state is JobState.CANCELLED:
            raise TaskCancelledError(f"job {job_id} was cancelled")
        if job.state is JobState.FAILED:
            raise TaskFailedError(f"job {job_id} failed: {job.error}")
        if job.state is not JobState.SUCCEEDED:
            raise ComputeError(
                f"job {job_id} is {job.state.value}, not finished")
        if key is not None:
            if key not in job.values:
                raise NotFoundError(f"job {job_id} has no object {key!r}")
            return job.values[key]
        consumed = {k for task in job.graph.tasks.values()
                    for k in task.inputs}
        return {task.output_key: job.values[task.output_key]
                for task in job.graph.tasks.values()
                if task.output_key not in consumed}

    # -- cancellation ---------------------------------------------------------

    def cancel(self, job_id: str) -> Job:
        """Cancel a pending or half-finished job."""
        job = self.job(job_id)
        if job.finished:
            raise TaskCancelledError(
                f"job {job_id} already {job.state.value}")
        if job.state is JobState.PENDING:
            if job_id in self._queue:
                self._queue.remove(job_id)
            self._finalize(job, JobState.CANCELLED)
        else:
            job.cancel_requested = True
        self._log(f"job {job_id} cancellation requested")
        return job

    # -- execution ------------------------------------------------------------

    def run_pending(self) -> List[Job]:
        """Drive every queued job to a terminal state, FIFO."""
        finished = []
        while self._queue:
            finished.append(self.run(self._queue[0]))
        return finished

    def run(self, job_id: Optional[str] = None) -> Job:
        """Drive one job (the oldest queued by default) to completion."""
        if job_id is None:
            if not self._queue:
                raise NotFoundError("no pending compute jobs")
            job_id = self._queue[0]
        job = self.job(job_id)
        if job.finished:
            return job
        if job.state is JobState.PENDING:
            self._start(job)
        if job.finished:                      # empty graph succeeds at start
            return job
        with maybe_span(self.clock.tracer, "compute.job", "compute",
                        job_id=job.job_id, graph=job.graph.name) as root:
            if getattr(root, "trace_id", None) is not None:
                job.trace_id = root.trace_id
            while not job.finished:
                self._step_job(job, root)
        return job

    def step(self, job_id: str) -> bool:
        """Process one scheduling event; True while the job is live.

        The single-event surface run() is built on, exposed so a caller
        can cancel a half-finished graph between events.
        """
        job = self.job(job_id)
        if job.finished:
            return False
        if job.state in (JobState.PENDING,):
            self._start(job)
        if not job.finished:
            self._step_job(job, None)
        return not job.finished

    # -- internals: lifecycle -------------------------------------------------

    def _start(self, job: Job) -> None:
        if self._live is not None:
            raise ComputeError(
                f"cannot start {job.job_id}: job {self._live.job_id} is "
                f"still running; run it to completion or cancel it first")
        if job.job_id in self._queue:
            self._queue.remove(job.job_id)
        self._live = job
        self._set_state(job, JobState.SCHEDULED)
        # Make sure the floor of the fleet exists before placement.
        while (self.pool.size() < self.min_workers
               and self.pool.size() < self.max_workers):
            try:
                worker = self.pool.grow(self.clock.now)
            except HealthCloudError as exc:
                self._fail(job, WorkerExhaustedError(
                    f"cannot provision the minimum fleet: {exc}"))
                return
            self._publish("worker.scaled_up", job_id=job.job_id,
                          worker=worker.worker_id, node=worker.node_id)
        job.started_at_s = self.clock.now
        if not job.graph.tasks:          # empty graph: trivially done
            self._finalize(job, JobState.SUCCEEDED)

    def _set_state(self, job: Job, state: JobState) -> None:
        job.state = state
        self._publish(f"job.{state.value}", job_id=job.job_id,
                      tenant=job.tenant_id, graph=job.graph.name)
        self._log(f"job {job.job_id} -> {state.value}")

    def _finalize(self, job: Job, state: JobState,
                  error: Optional[BaseException] = None) -> None:
        job.finished_at_s = self.clock.now
        if error is not None:
            job.error = str(error)
            job.error_type = type(error).__name__
        if job is self._live:
            self._live = None
            self._running = []
            self._ready = []
        self._set_state(job, state)
        if self.monitoring is not None:
            self.monitoring.metrics.incr(f"compute.jobs.{state.value}")

    def _fail(self, job: Job, error: BaseException) -> None:
        self._finalize(job, JobState.FAILED, error)

    # -- internals: one event -------------------------------------------------

    def _step_job(self, job: Job, root: Any) -> None:
        if job.cancel_requested:
            for attempt in self._running:
                self._publish("task.cancelled", job_id=job.job_id,
                              task=attempt.task_id, worker=attempt.worker.worker_id)
                attempt.worker.busy_until_s = self.clock.now
            self._finalize(job, JobState.CANCELLED,
                           TaskCancelledError("cancelled by caller"))
            return

        self._promote(job)
        self._autoscale(job)
        self._assign(job, root)

        if self._all_succeeded(job):
            self._finalize(job, JobState.SUCCEEDED)
            return
        if job.finished:
            return

        horizon = self._next_event_time(job)
        if horizon is None:
            self._fail(job, WorkerExhaustedError(
                "no running tasks, no usable worker, and no recovery in "
                "sight: every worker is down or the pool is exhausted"))
            return
        self.clock.advance_to(horizon)
        self._complete_due(job, root)

    def _promote(self, job: Job) -> None:
        """PENDING -> READY for tasks whose deps and inputs are in place."""
        if len(self._ready) >= QUEUE_BOUND:
            return
        for task_id in sorted(job.task_states):
            if job.task_states[task_id] is not TaskState.PENDING:
                continue
            deps = job.graph.dependencies(task_id)
            if any(job.task_states[d] is not TaskState.SUCCEEDED
                   for d in deps):
                continue
            task = job.graph.tasks[task_id]
            if any(not job.locations.get(key) for key in task.inputs):
                continue                     # input lost; producer will rerun
            job.task_states[task_id] = TaskState.READY
            job.ready_since[task_id] = self.clock.now
            self._ready.append(task_id)
            if len(self._ready) >= QUEUE_BOUND:
                break

    def _autoscale(self, job: Job) -> None:
        depth = len(self._ready)
        desired = max(self.min_workers,
                      min(self.max_workers,
                          math.ceil(depth / TASKS_PER_WORKER)
                          if depth else self.min_workers))
        size = self.pool.size()
        while size < desired:
            try:
                worker = self.pool.grow(self.clock.now)
            except HealthCloudError:
                break                        # no attested capacity left
            self._publish("worker.scaled_up", job_id=job.job_id,
                          worker=worker.worker_id, node=worker.node_id)
            self._log(f"job {job.job_id} scaled up {worker.worker_id} "
                      f"(queue depth {depth})")
            size += 1
        if size > desired:
            busy = {a.worker.worker_id for a in self._running}
            for worker in reversed(self.pool.active()):
                if size <= desired:
                    break
                if worker.worker_id in busy or not worker.idle_at(
                        self.clock.now):
                    continue
                # Graceful drain: objects resident on the retiring node
                # spill back to the driver, so scale-down (unlike a
                # crash) never loses a sole copy.
                for key in worker.store:
                    if key in job.locations:
                        job.locations[key].add(DRIVER_NODE)
                self.pool.shrink(worker)
                for key in list(job.locations):
                    job.locations[key].discard(worker.node_id)
                self._publish("worker.scaled_down", job_id=job.job_id,
                              worker=worker.worker_id, node=worker.node_id)
                size -= 1

    # -- internals: placement -------------------------------------------------

    def _assign(self, job: Job, root: Any) -> None:
        while self._ready:
            candidates = [w for w in self.pool.active()
                          if w.idle_at(self.clock.now)
                          and self.pool.node_up(w, self.fault_plan)]
            if not candidates:
                return
            task_id = self._ready[0]
            task = job.graph.tasks[task_id]
            if any(not job.locations.get(key) for key in task.inputs):
                # An input evaporated while queued: back to PENDING, its
                # producer is being re-run.
                self._ready.pop(0)
                job.task_states[task_id] = TaskState.PENDING
                continue
            worker = self._place(job, task.inputs, candidates)
            self._ready.pop(0)
            self._launch(job, task_id, worker)

    def _place(self, job: Job, inputs: Tuple[str, ...],
               candidates: List[Worker]) -> Worker:
        """Locality score: (largest local input, total local bytes)."""
        def score(worker: Worker) -> Tuple[float, float]:
            local = [float(worker.store.get(key, 0)) for key in inputs]
            return (max(local) if local else 0.0, sum(local))

        best = candidates[0]
        best_score = score(best)
        for worker in candidates[1:]:
            s = score(worker)
            if s > best_score:
                best, best_score = worker, s
        return best

    def _launch(self, job: Job, task_id: str, worker: Worker) -> None:
        task = job.graph.tasks[task_id]
        now = self.clock.now
        job.attempts[task_id] += 1
        missing = [key for key in task.inputs if key not in worker.store]
        transfer_bytes = sum(job.sizes[key] for key in missing)
        transfer_s = 0.0
        if missing:
            transfer_s = (TRANSFER_LATENCY_S * len(missing)
                          + transfer_bytes * 8.0 / BANDWIDTH_BPS)
        t_sched_end = now + SCHEDULE_COST_S
        t_transfer_end = t_sched_end + transfer_s
        t_done = t_transfer_end + task.cost_s
        attempt = _Attempt(
            task_id=task_id, attempt=job.attempts[task_id], worker=worker,
            t_ready=job.ready_since.get(task_id, now), t_assign=now,
            t_sched_end=t_sched_end, t_transfer_end=t_transfer_end,
            t_done=t_done, transfer_bytes=transfer_bytes,
            fail_at=self._first_crash(worker, now, t_done))
        worker.busy_until_s = t_done
        worker.tasks_started += 1
        self._running.append(attempt)
        job.task_states[task_id] = TaskState.RUNNING
        if job.state is JobState.SCHEDULED:
            self._set_state(job, JobState.RUNNING)
        job.placements.append({
            "task": task_id, "attempt": attempt.attempt,
            "worker": worker.worker_id, "node": worker.node_id,
            "t_assign": round(now, 9), "t_done": round(t_done, 9),
            "transfer_bytes": transfer_bytes})
        self._publish("task.scheduled", job_id=job.job_id, task=task_id,
                      attempt=attempt.attempt, worker=worker.worker_id,
                      node=worker.node_id, transfer_bytes=transfer_bytes)
        if self.monitoring is not None:
            self.monitoring.metrics.incr("compute.bytes.transferred",
                                         transfer_bytes)

    def _first_crash(self, worker: Worker, start_s: float,
                     end_s: float) -> Optional[float]:
        """Earliest crash-window start hitting this node inside (start, end]."""
        if self.fault_plan is None:
            return None
        node_ids = {worker.node_id, worker.host_id}
        hit: Optional[float] = None
        for fault in self.fault_plan.node_crashes:
            if fault.node_id not in node_ids:
                continue
            begin = max(fault.window.start_s, start_s)
            if begin < end_s and fault.window.end_s > begin:
                if hit is None or begin < hit:
                    hit = begin
        return hit

    # -- internals: advancing time -------------------------------------------

    def _next_event_time(self, job: Job) -> Optional[float]:
        """Earliest completion/crash/provision/recovery instant, or None."""
        times = [a.event_time for a in self._running]
        # A worker still provisioning (or busy) unblocks future placement.
        if self._ready or self._has_pending(job):
            for worker in self.pool.active():
                if worker.ready_at_s > self.clock.now:
                    times.append(worker.ready_at_s)
            if not times and self.fault_plan is not None:
                # Every worker is down: the earliest finite window end is
                # when one recovers.
                recoveries = [f.window.end_s
                              for f in self.fault_plan.node_crashes
                              if f.window.end_s > self.clock.now
                              and not math.isinf(f.window.end_s)]
                if recoveries:
                    times.append(min(recoveries))
        return min(times) if times else None

    def _has_pending(self, job: Job) -> bool:
        return any(state in (TaskState.PENDING, TaskState.READY)
                   for state in job.task_states.values())

    def _complete_due(self, job: Job, root: Any) -> None:
        now = self.clock.now
        due = sorted((a for a in self._running if a.event_time <= now),
                     key=lambda a: (a.event_time, a.task_id))
        for attempt in due:
            self._running.remove(attempt)
            if attempt.fail_at is not None:
                self._crash(job, attempt, root)
            else:
                self._succeed(job, attempt, root)
            if job.finished:
                return

    def _succeed(self, job: Job, attempt: _Attempt, root: Any) -> None:
        task = job.graph.tasks[attempt.task_id]
        try:
            value = task.fn({key: job.values[key] for key in task.inputs})
        except Exception as exc:                        # noqa: BLE001
            self._attach_spans(job, attempt, root, status="ERROR",
                               error=f"{type(exc).__name__}: {exc}")
            self._fail(job, TaskFailedError(
                f"task {attempt.task_id} raised "
                f"{type(exc).__name__}: {exc}"))
            return
        key = task.output_key
        job.values[key] = value
        worker = attempt.worker
        worker.store[key] = task.output_bytes
        job.locations.setdefault(key, set()).add(worker.node_id)
        for input_key in task.inputs:                  # transferred copies
            worker.store[input_key] = job.sizes[input_key]
            job.locations[input_key].add(worker.node_id)
        job.task_states[attempt.task_id] = TaskState.SUCCEEDED
        self._attach_spans(job, attempt, root, status="OK")
        self._publish("task.finished", job_id=job.job_id,
                      task=attempt.task_id, attempt=attempt.attempt,
                      worker=worker.worker_id,
                      duration_s=round(attempt.t_done - attempt.t_assign, 9))
        if self.monitoring is not None:
            self.monitoring.metrics.incr("compute.tasks.succeeded")
            self.monitoring.metrics.observe(
                "compute.task.latency",
                attempt.t_done - attempt.t_ready,
                trace_id=job.trace_id)

    def _crash(self, job: Job, attempt: _Attempt, root: Any) -> None:
        worker = attempt.worker
        task = job.graph.tasks[attempt.task_id]
        self._attach_spans(job, attempt, root, status="ERROR",
                           error="node crashed")
        self._publish("worker.crashed", job_id=job.job_id,
                      worker=worker.worker_id, node=worker.node_id,
                      task=attempt.task_id)
        self._log(f"job {job.job_id} worker {worker.worker_id} crashed "
                  f"running {attempt.task_id} "
                  f"(attempt {attempt.attempt})", level="WARN")
        if self.monitoring is not None:
            self.monitoring.metrics.incr("compute.workers.crashed")
        # Evict the node's object store; find lineage holes.
        worker.store.clear()
        worker.busy_until_s = self.clock.now
        lost = []
        for key, nodes in job.locations.items():
            nodes.discard(worker.node_id)
            if not nodes:
                lost.append(key)
        if not task.idempotent:
            self._fail(job, NonIdempotentReplayError(
                f"task {attempt.task_id} is not idempotent and its "
                f"node crashed mid-run"))
            return
        if not self._requeue(job, attempt.task_id):
            return
        producers = job.graph.producers
        for key in sorted(lost):
            producer = producers.get(key)
            if producer is None:
                continue                       # graph data: driver copy only
            if job.task_states[producer] is not TaskState.SUCCEEDED:
                continue
            replay = job.graph.tasks[producer]
            if not replay.idempotent:
                self._fail(job, NonIdempotentReplayError(
                    f"lost object {key!r}; producer {producer} is not "
                    f"idempotent and cannot be replayed"))
                return
            job.task_states[producer] = TaskState.PENDING
            job.recovered_tasks.append(producer)
            self._publish("task.recovery", job_id=job.job_id, task=producer,
                          lost_object=key)
            if self.monitoring is not None:
                self.monitoring.metrics.incr("compute.tasks.recovered")

    def _requeue(self, job: Job, task_id: str) -> bool:
        if job.attempts[task_id] >= MAX_ATTEMPTS:
            self._fail(job, ComputeError(
                f"task {task_id} exhausted its {MAX_ATTEMPTS} attempts"))
            return False
        job.task_states[task_id] = TaskState.PENDING
        self._publish("task.retried", job_id=job.job_id, task=task_id,
                      attempts=job.attempts[task_id])
        if self.monitoring is not None:
            self.monitoring.metrics.incr("compute.tasks.retried")
        return True

    def _all_succeeded(self, job: Job) -> bool:
        return all(state is TaskState.SUCCEEDED
                   for state in job.task_states.values())

    # -- internals: tracing ---------------------------------------------------

    def _attach_spans(self, job: Job, attempt: _Attempt, root: Any,
                      status: str, error: str = "") -> None:
        """Tile one attempt into queue/sched/transfer/exec child spans."""
        if root is None or getattr(root, "trace_id", None) is None:
            return
        end = attempt.t_done if attempt.fail_at is None else attempt.fail_at
        span = self._span(root, root,
                          f"compute.task:{attempt.task_id}", "compute",
                          attempt.t_ready, end,
                          task=attempt.task_id, attempt=attempt.attempt,
                          worker=attempt.worker.worker_id)
        if status == "ERROR":
            span.set_status("ERROR", error)
        phases = [
            ("compute.queue", "compute-queue", attempt.t_ready,
             attempt.t_assign),
            ("compute.sched", "compute-sched", attempt.t_assign,
             attempt.t_sched_end),
            ("compute.transfer", "compute-transfer", attempt.t_sched_end,
             attempt.t_transfer_end),
            ("compute.exec", "compute-exec", attempt.t_transfer_end,
             attempt.t_done),
        ]
        for name, layer, start_s, end_s in phases:
            start_c = min(start_s, end)
            end_c = min(end_s, end)
            if end_c <= start_c and name != "compute.exec":
                continue                       # zero-width phase: skip
            child = self._span(root, span, name, layer, start_c,
                               max(end_c, start_c))
            if status == "ERROR" and name == "compute.exec":
                child.set_status("ERROR", error)

    def _span(self, root: Any, parent: Any, name: str, layer: str,
              start_s: float, end_s: float, **attributes: Any) -> Span:
        self._span_counter += 1
        span = Span(root.trace_id, f"cs-{self._span_counter:08d}",
                    parent.span_id, name, layer, start_s, attributes)
        span.end_s = end_s
        parent.children.append(span)
        return span

    # -- internals: observability --------------------------------------------

    def _publish(self, kind: str, **attributes: Any) -> None:
        if self.monitoring is not None:
            self.monitoring.publish("compute", kind, **attributes)

    def _log(self, message: str, level: str = "INFO") -> None:
        if self.monitoring is not None:
            self.monitoring.log("compute", message, level=level)

    # -- reporting ------------------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        """Serializable accounting for health snapshots and benchmarks."""
        by_state: Dict[str, int] = {}
        for job in self.jobs.values():
            by_state[job.state.value] = by_state.get(job.state.value, 0) + 1
        return {
            "jobs": len(self.jobs),
            "by_state": dict(sorted(by_state.items())),
            "queued": len(self._queue),
            "workers": self.pool.size(),
            "scaled_up": self.pool.scaled_up,
            "scaled_down": self.pool.scaled_down,
        }


def standard_scheduler(*, clock: Optional[SimClock] = None,
                       monitoring: Optional[MonitoringService] = None,
                       **kwargs: Any) -> Scheduler:
    """A scheduler over a freshly built attested pool (see standard_pool).

    Convenience wiring for examples, benchmarks, and tests; production
    code constructs :class:`~.pool.WorkerPool` against its own
    datacenter and provisioning service.
    """
    from .pool import standard_pool

    pool = standard_pool(monitoring=monitoring)
    return Scheduler(pool, clock=clock, monitoring=monitoring, **kwargs)
