"""Unit/integration: the deterministic task-graph scheduler.

Covers the ISSUE 8 edge cases — empty graph, cycle detection, all
workers crashed, cancellation of a half-finished graph, determinism —
plus placement locality, autoscaling, lineage recovery, and critical-path
attribution summing to exactly 100%.
"""

import pytest

from repro.cloudsim.clock import SimClock
from repro.cloudsim.faults import FaultPlan
from repro.cloudsim.healthplane import HealthPlane
from repro.cloudsim.monitoring import MonitoringService
from repro.cloudsim.tracing import Tracer
from repro.compute import (
    JobState,
    TaskGraph,
    TaskState,
    standard_scheduler,
)
from repro.compute.scheduler import MAX_PENDING_JOBS
from repro.core.errors import (
    ComputeError,
    ConfigurationError,
    NotFoundError,
    RateLimitError,
    TaskCancelledError,
    TaskFailedError,
)


def make_world(**kwargs):
    clock = SimClock()
    monitoring = MonitoringService(clock)
    plane = HealthPlane(monitoring)
    tracer = Tracer(clock)
    fault_plan = FaultPlan(seed=0, clock=clock)
    scheduler = standard_scheduler(clock=clock, monitoring=monitoring,
                                   **kwargs)
    scheduler.fault_plan = fault_plan
    return scheduler, clock, monitoring, plane, tracer, fault_plan


def fan_out(n=8, cost_s=0.05):
    g = TaskGraph("fan")
    g.add_data("seed", 2, nbytes=4096)
    for i in range(n):
        g.add_task(f"t-{i:02d}", lambda ins, i=i: ins["seed"] * i,
                   inputs=("seed",), cost_s=cost_s)
    return g


class TestLifecycle:
    def test_fan_out_job_succeeds_with_results(self):
        scheduler, *_ = make_world()
        g = fan_out(4)
        g.add_task("total", lambda ins: sum(ins[f"t-{i:02d}"]
                                            for i in range(4)),
                   inputs=tuple(f"t-{i:02d}" for i in range(4)))
        job = scheduler.submit(g)
        assert job.state is JobState.PENDING
        scheduler.run(job.job_id)
        assert job.state is JobState.SUCCEEDED
        assert scheduler.result(job.job_id) == {"total": 2 * (0 + 1 + 2 + 3)}
        assert job.makespan_s > 0

    def test_empty_graph_succeeds_immediately(self):
        scheduler, *_ = make_world()
        job = scheduler.submit(TaskGraph("empty"))
        scheduler.run(job.job_id)
        assert job.state is JobState.SUCCEEDED
        assert scheduler.result(job.job_id) == {}

    def test_cycle_rejected_at_submit_with_typed_error(self):
        scheduler, *_ = make_world()
        g = TaskGraph("loop")
        g.add_task("a", lambda ins: 1, deps=("b",))
        g.add_task("b", lambda ins: 2, deps=("a",))
        with pytest.raises(ConfigurationError, match="cycle"):
            scheduler.submit(g)
        assert scheduler.jobs == {}

    def test_task_exception_fails_job_with_typed_error(self):
        scheduler, *_ = make_world()
        g = TaskGraph("boom")
        g.add_task("bad", lambda ins: 1 / 0)
        job = scheduler.submit(g)
        scheduler.run(job.job_id)
        assert job.state is JobState.FAILED
        assert job.error_type == "TaskFailedError"
        with pytest.raises(TaskFailedError, match="bad"):
            scheduler.result(job.job_id)

    def test_unknown_job_raises_not_found(self):
        scheduler, *_ = make_world()
        with pytest.raises(NotFoundError):
            scheduler.job("job-nope")

    def test_result_before_finish_raises(self):
        scheduler, *_ = make_world()
        job = scheduler.submit(fan_out(2))
        with pytest.raises(ComputeError, match="not finished"):
            scheduler.result(job.job_id)

    def test_job_queue_bound_enforced(self):
        scheduler, *_ = make_world()
        assert MAX_PENDING_JOBS == 64
        for _ in range(MAX_PENDING_JOBS):
            scheduler.submit(fan_out(1))
        with pytest.raises(RateLimitError, match="queue full"):
            scheduler.submit(fan_out(1))
        assert len(scheduler.jobs) == MAX_PENDING_JOBS

    def test_run_pending_drains_fifo(self):
        scheduler, *_ = make_world()
        first = scheduler.submit(fan_out(2))
        second = scheduler.submit(fan_out(2))
        finished = scheduler.run_pending()
        assert [j.job_id for j in finished] == [first.job_id, second.job_id]
        assert all(j.state is JobState.SUCCEEDED for j in finished)


class TestCancellation:
    def test_cancel_pending_job(self):
        scheduler, *_ = make_world()
        job = scheduler.submit(fan_out(4))
        scheduler.cancel(job.job_id)
        assert job.state is JobState.CANCELLED
        with pytest.raises(TaskCancelledError):
            scheduler.result(job.job_id)

    def test_cancel_half_finished_graph(self):
        scheduler, *_ = make_world(min_workers=1, max_workers=1)
        job = scheduler.submit(fan_out(6))
        # Step until some (not all) tasks have finished, then cancel.
        while not any(s is TaskState.SUCCEEDED
                      for s in job.task_states.values()):
            assert scheduler.step(job.job_id)
        done_before = job.counts()["succeeded"]
        assert 0 < done_before < 6
        scheduler.cancel(job.job_id)
        assert scheduler.step(job.job_id) is False
        assert job.state is JobState.CANCELLED
        assert job.counts()["succeeded"] == done_before
        with pytest.raises(TaskCancelledError):
            scheduler.result(job.job_id)

    def test_cancel_terminal_job_raises(self):
        scheduler, *_ = make_world()
        job = scheduler.submit(fan_out(1))
        scheduler.run(job.job_id)
        with pytest.raises(TaskCancelledError, match="already succeeded"):
            scheduler.cancel(job.job_id)


class TestOneLiveJob:
    """Jobs share the scheduler's ready and running lists, so only one
    job may be started and unfinished at a time."""

    @staticmethod
    def two_jobs():
        scheduler = standard_scheduler()
        first = scheduler.submit(fan_out(4))
        second = scheduler.submit(fan_out(4))
        scheduler.step(first.job_id)
        scheduler.step(first.job_id)
        assert first.state is JobState.RUNNING
        return scheduler, first, second

    def test_starting_another_job_refuses_and_keeps_the_live_one(self):
        scheduler, first, second = self.two_jobs()
        with pytest.raises(ComputeError, match=first.job_id):
            scheduler.run(second.job_id)
        with pytest.raises(ComputeError, match=first.job_id):
            scheduler.step(second.job_id)
        assert second.state is JobState.PENDING
        scheduler.run(first.job_id)
        assert first.state is JobState.SUCCEEDED
        scheduler.run(second.job_id)
        assert second.state is JobState.SUCCEEDED

    def test_cancelling_a_pending_job_keeps_the_live_one(self):
        scheduler, first, second = self.two_jobs()
        scheduler.cancel(second.job_id)
        assert second.state is JobState.CANCELLED
        scheduler.run(first.job_id)
        assert first.state is JobState.SUCCEEDED


class TestPlacementAndScaling:
    def test_locality_prefers_node_holding_largest_input(self):
        scheduler, *_ = make_world(min_workers=2, max_workers=2)
        g = TaskGraph("local")
        g.add_task("big", lambda ins: "big", cost_s=0.01,
                   output_bytes=10_000_000)
        g.add_task("small", lambda ins: "small", cost_s=0.01,
                   output_bytes=8)
        g.add_task("join", lambda ins: ins["big"] + ins["small"],
                   inputs=("big", "small"), cost_s=0.01)
        job = scheduler.submit(g)
        scheduler.run(job.job_id)
        assert job.state is JobState.SUCCEEDED
        by_task = {p["task"]: p for p in job.placements}
        assert by_task["join"]["node"] == by_task["big"]["node"]

    def test_autoscaler_grows_with_queue_and_shrinks_after(self):
        scheduler, *_ = make_world(min_workers=1, max_workers=8)
        job = scheduler.submit(fan_out(32))
        scheduler.run(job.job_id)
        assert job.state is JobState.SUCCEEDED
        assert scheduler.pool.scaled_up >= 2      # grew past the floor
        assert scheduler.pool.scaled_down >= 1    # drained idle workers
        nodes = {p["node"] for p in job.placements}
        assert len(nodes) > 1                      # work actually spread

    def test_pool_holds_only_live_workers(self):
        scheduler, *_ = make_world(min_workers=1, max_workers=8)
        pool = scheduler.pool
        for width in (32, 2, 24, 1):
            job = scheduler.submit(fan_out(width))
            scheduler.run(job.job_id)
            assert job.state is JobState.SUCCEEDED
            assert len(pool.workers) == pool.size() <= scheduler.max_workers
        assert pool.scaled_up > scheduler.max_workers   # grew, shrank, grew
        assert pool.size() == pool.scaled_up - pool.scaled_down

    def test_per_task_graph_reads_do_not_grow_with_width(
            self, output_key_reads):
        per_task = []
        for width in (8, 32):
            scheduler, *_ = make_world()
            g = fan_out(width)
            g.add_task("total", lambda ins: 0,
                       inputs=tuple(f"t-{i:02d}" for i in range(width)))
            del output_key_reads[:]
            job = scheduler.submit(g)
            scheduler.run(job.job_id)
            assert job.state is JobState.SUCCEEDED
            per_task.append(len(output_key_reads) / len(g.tasks))
        assert per_task[0] == per_task[1]

    def test_eight_workers_at_least_4x_faster_than_one(self):
        makespans = {}
        for workers in (1, 8):
            scheduler, *_ = make_world(min_workers=workers,
                                       max_workers=workers)
            job = scheduler.submit(fan_out(64))
            scheduler.run(job.job_id)
            assert job.state is JobState.SUCCEEDED
            makespans[workers] = job.makespan_s
        assert makespans[1] / makespans[8] >= 4.0


class TestFaults:
    def crash_world(self, idempotent=True, crash_all=False):
        scheduler, clock, monitoring, plane, tracer, fault_plan = make_world(
            min_workers=4, max_workers=4)
        g = fan_out(16, cost_s=0.1)
        if not idempotent:
            g = TaskGraph("fragile")
            g.add_data("seed", 2, nbytes=4096)
            for i in range(16):
                g.add_task(f"t-{i:02d}", lambda ins, i=i: i,
                           inputs=("seed",), cost_s=0.1, idempotent=False)
        job = scheduler.submit(g)
        # Crash windows target hosts, whose ids are stable by name.
        if crash_all:
            for i in range(4):
                fault_plan.crash_node(f"compute-host-{i:02d}", start_s=0.4)
        else:
            fault_plan.crash_node("compute-host-00", start_s=0.4, end_s=10.0)
        return scheduler, job, tracer, plane

    def test_idempotent_tasks_rerun_after_crash(self):
        scheduler, job, tracer, _ = self.crash_world()
        scheduler.run(job.job_id)
        assert job.state is JobState.SUCCEEDED
        retried = [t for t, n in job.attempts.items() if n > 1]
        assert retried                              # crash forced re-execution
        # Recovery is visible as extra attempt spans under the job root.
        root = tracer.get_trace(job.trace_id)
        attempt_spans = [s for s in root.walk()
                         if s.name.startswith("compute.task:")]
        assert len(attempt_spans) == sum(job.attempts.values())
        assert any(s.status == "ERROR" for s in attempt_spans)

    def test_non_idempotent_task_fails_job_with_typed_error(self):
        scheduler, job, _, _ = self.crash_world(idempotent=False)
        scheduler.run(job.job_id)
        assert job.state is JobState.FAILED
        assert job.error_type == "NonIdempotentReplayError"
        with pytest.raises(TaskFailedError):
            scheduler.result(job.job_id)

    def test_all_workers_crashed_exhausts(self):
        scheduler, job, _, _ = self.crash_world(crash_all=True)
        scheduler.run(job.job_id)
        assert job.state is JobState.FAILED
        assert job.error_type == "WorkerExhaustedError"

    def test_crash_recovery_events_published(self):
        scheduler, job, _, plane = self.crash_world()
        scheduler.run(job.job_id)
        kinds = {e.kind for e in plane.events.recent()}
        assert "worker.crashed" in kinds
        assert "task.retried" in kinds
        assert "job.succeeded" in kinds


class TestObservability:
    def test_lifecycle_events_in_order_on_event_bus(self):
        scheduler, _, _, plane, _, _ = make_world()
        sub = plane.events.subscribe("watcher", kinds=["job"])
        job = scheduler.submit(fan_out(2))
        scheduler.run(job.job_id)
        kinds = [e.kind for e in sub.poll()]
        assert kinds == ["job.pending", "job.scheduled", "job.running",
                         "job.succeeded"]

    def test_gauges_mirrored_into_metrics(self):
        scheduler, _, monitoring, _, _, _ = make_world()
        job = scheduler.submit(fan_out(2))
        scheduler.step(job.job_id)
        assert monitoring.metrics.gauge("compute.jobs.running") == 1.0
        scheduler.run(job.job_id)
        metrics = monitoring.metrics
        assert metrics.gauge("compute.jobs.running") == 0.0
        assert metrics.gauge("compute.queue.depth") == 0.0
        assert metrics.gauge("compute.workers") >= 1.0
        assert metrics.counter("compute.tasks.succeeded") == 2

    def test_critical_path_covers_compute_phases_and_sums_to_100(self):
        scheduler, _, _, _, tracer, _ = make_world()
        g = fan_out(6)
        g.add_task("reduce", lambda ins: 0,
                   inputs=tuple(f"t-{i:02d}" for i in range(6)))
        job = scheduler.submit(g)
        scheduler.run(job.job_id)
        path = tracer.critical_path(job.trace_id)
        pct = path.layer_percentages()
        assert abs(sum(pct.values()) - 100.0) < 1e-9
        assert {"compute-queue", "compute-sched", "compute-exec"} <= set(pct)
        assert path.total_s == pytest.approx(job.makespan_s)
        assert tracer.verify_trace(job.trace_id)


class TestDeterminism:
    def run_once(self):
        scheduler, _, _, plane, _, fault_plan = make_world(
            min_workers=1, max_workers=6)
        fault_plan.crash_node("compute-host-01", start_s=0.5, end_s=3.0)
        g = fan_out(24, cost_s=0.07)
        g.add_task("reduce", lambda ins: 0,
                   inputs=tuple(f"t-{i:02d}" for i in range(24)))
        job = scheduler.submit(g)
        scheduler.run(job.job_id)
        events = [(e.seq, e.event_id, e.timestamp_s, e.kind)
                  for e in plane.events.recent()]
        return job, events

    def test_two_seeded_runs_identical_events_and_placements(self):
        job_a, events_a = self.run_once()
        job_b, events_b = self.run_once()
        assert job_a.state is JobState.SUCCEEDED
        assert events_a == events_b
        assert job_a.placements == job_b.placements
        assert job_a.makespan_s == job_b.makespan_s
