"""P8: the distributed task-graph compute layer (repro.compute).

A 64-task embarrassingly-parallel similarity sweep (plus a reduce) is
submitted to the deterministic scheduler and each headline claim of the
compute layer is measured:

* **scaling** — the same graph on fixed fleets of 1/2/4/8 attested
  worker VMs; eight workers must cut the simulated makespan by at least
  4x over one;
* **inline vs scheduled** — the pre-compute-layer shape (every task run
  sequentially on the caller's clock) against scheduled execution on
  eight workers, the speedup the /v1/compute migration buys;
* **fault recovery** — a FaultPlan crash window takes out one host
  mid-run; the job must still succeed via lineage-based re-execution,
  with the recovery visible as extra per-attempt tracer spans (ERROR
  spans for the crashed attempts) and worker.crashed / task.retried
  events on the health plane;
* **critical path** — scheduling/queueing/transfer/execution phase
  attribution over the job trace sums to exactly 100% of the makespan;
* **determinism** — the entire scenario, run twice in-process, emits
  byte-identical JSON.

Standalone mode for CI::

    PYTHONPATH=src python benchmarks/bench_p8_compute.py --quick
"""

import argparse
import json

import pytest

from repro.cloudsim.clock import SimClock
from repro.cloudsim.faults import FaultPlan
from repro.cloudsim.healthplane import HealthPlane
from repro.cloudsim.monitoring import MonitoringService
from repro.cloudsim.tracing import Tracer
from repro.compute import JobState, TaskGraph, standard_scheduler

try:
    from conftest import show
except ImportError:  # standalone main(), outside pytest's conftest path
    def show(title, rows):
        print(f"\n=== {title}")
        for row in rows:
            print("   ", row)

SEED = 8
TASK_COST_S = 0.5               # simulated cost of one similarity block
REDUCE_COST_S = 0.05
BLOCK_BYTES = 256_000           # per-block output shipped to the reduce
FLEETS = (1, 2, 4, 8)
SPEEDUP_FLOOR = 4.0             # acceptance: 8 workers >= 4x one worker
CRASH_START_S = 0.4             # host dies mid-first-wave
CRASH_END_S = 10.0              # ...and comes back later

# Parallel block count per mode (the reduce rides on top).
N_TASKS = {"full": 256, "quick": 64}


def _similarity_graph(n_tasks):
    """n independent similarity blocks feeding one reduce."""
    graph = TaskGraph("p8-similarity")
    graph.add_data("universe", list(range(64)), nbytes=64_000)

    def block(ins, i):
        base = ins["universe"]
        return sum((x * (i + 1)) % 97 for x in base)

    for i in range(n_tasks):
        graph.add_task(f"block-{i:03d}", lambda ins, i=i: block(ins, i),
                       inputs=("universe",), cost_s=TASK_COST_S,
                       output_bytes=BLOCK_BYTES)
    graph.add_task(
        "reduce",
        lambda ins: sum(ins[f"block-{i:03d}"] for i in range(n_tasks)),
        inputs=tuple(f"block-{i:03d}" for i in range(n_tasks)),
        cost_s=REDUCE_COST_S)
    return graph


def _world(workers):
    clock = SimClock()
    monitoring = MonitoringService(clock)
    plane = HealthPlane(monitoring)
    fault_plan = FaultPlan(seed=SEED, clock=clock)
    scheduler = standard_scheduler(
        clock=clock, monitoring=monitoring,
        min_workers=workers, max_workers=workers)
    scheduler.fault_plan = fault_plan
    return scheduler, clock, plane, fault_plan


def _run_fixed(n_tasks, workers):
    """One job on a pinned fleet; returns (job, plane)."""
    scheduler, _, plane, _ = _world(workers)
    job = scheduler.submit(_similarity_graph(n_tasks),
                           submitted_by="bench-p8")
    scheduler.run(job.job_id)
    return job, plane


def _inline_makespan(n_tasks):
    """The old shape: every task advances the caller's clock in turn."""
    clock = SimClock()
    for _ in range(n_tasks):
        clock.advance(TASK_COST_S)
    clock.advance(REDUCE_COST_S)
    return clock.now


def _scaling(n_tasks):
    makespans = {}
    nodes_used = {}
    for workers in FLEETS:
        job, _ = _run_fixed(n_tasks, workers)
        assert job.state is JobState.SUCCEEDED
        makespans[workers] = job.makespan_s
        nodes_used[workers] = len({p["node"] for p in job.placements})
    inline_s = _inline_makespan(n_tasks)
    return {
        "tasks": n_tasks + 1,
        "makespan_s": {str(w): round(makespans[w], 9) for w in FLEETS},
        "nodes_used": {str(w): nodes_used[w] for w in FLEETS},
        "inline_s": round(inline_s, 9),
        "speedup_8x": round(makespans[1] / makespans[8], 9),
        "speedup_vs_inline": round(inline_s / makespans[8], 9),
    }


def _recovery(n_tasks):
    clock = SimClock()
    monitoring = MonitoringService(clock)
    plane = HealthPlane(monitoring)
    tracer = Tracer(clock)
    fault_plan = FaultPlan(seed=SEED, clock=clock)
    fault_plan.crash_node("compute-host-00", start_s=CRASH_START_S,
                          end_s=CRASH_END_S)
    scheduler = standard_scheduler(
        clock=clock, monitoring=monitoring, min_workers=4, max_workers=4)
    scheduler.fault_plan = fault_plan
    job = scheduler.submit(_similarity_graph(n_tasks),
                           submitted_by="bench-p8")
    scheduler.run(job.job_id)

    root = tracer.get_trace(job.trace_id)
    attempt_spans = [s for s in root.walk()
                     if s.name.startswith("compute.task:")]
    error_spans = [s for s in attempt_spans if s.status == "ERROR"]
    path = tracer.critical_path(job.trace_id)
    percentages = path.layer_percentages()
    kinds = {e.kind for e in plane.events.recent()}
    return {
        "state": job.state.value,
        "makespan_s": round(job.makespan_s, 9),
        "tasks": n_tasks + 1,
        "attempts": sum(job.attempts.values()),
        "retried_tasks": sorted(t for t, n in job.attempts.items() if n > 1),
        "recovered_tasks": sorted(job.recovered_tasks),
        "attempt_spans": len(attempt_spans),
        "error_spans": len(error_spans),
        "trace_verified": tracer.verify_trace(job.trace_id),
        "critical_path_pct": {k: round(v, 9)
                              for k, v in sorted(percentages.items())},
        "critical_path_pct_sum": round(sum(percentages.values()), 9),
        "saw_worker_crashed": "worker.crashed" in kinds,
        "saw_task_retried": "task.retried" in kinds,
        "saw_job_succeeded": "job.succeeded" in kinds,
    }


def _run_scenario(mode):
    n_tasks = N_TASKS[mode]
    return {
        "mode": mode,
        "scaling": _scaling(n_tasks),
        "recovery": _recovery(n_tasks),
    }


@pytest.mark.benchmark(group="p8-compute")
def test_p8_eight_workers_at_least_4x_one(benchmark):
    """Acceptance: 8 pinned workers beat 1 by >= 4x on the 64-task graph."""
    result = _scaling(N_TASKS["quick"])
    benchmark.pedantic(lambda: _scaling(N_TASKS["quick"]), rounds=1,
                       iterations=1)
    benchmark.extra_info["speedup_8x"] = result["speedup_8x"]
    show("P8: fixed-fleet scaling (simulated makespan)",
         [f"{w} worker(s): {result['makespan_s'][str(w)]:.3f}s on "
          f"{result['nodes_used'][str(w)]} node(s)" for w in FLEETS] +
         [f"speedup 1 -> 8 workers: {result['speedup_8x']:.2f}x "
          f"(floor {SPEEDUP_FLOOR:.0f}x)"])
    assert result["speedup_8x"] >= SPEEDUP_FLOOR


@pytest.mark.benchmark(group="p8-compute")
def test_p8_scheduled_beats_inline(benchmark):
    """Acceptance: scheduled execution beats the inline-on-caller shape."""
    result = _scaling(N_TASKS["quick"])
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    show("P8: inline vs scheduled",
         [f"inline (old shape): {result['inline_s']:.3f}s simulated",
          f"scheduled on 8 workers: {result['makespan_s']['8']:.3f}s "
          f"({result['speedup_vs_inline']:.2f}x)"])
    assert result["speedup_vs_inline"] >= SPEEDUP_FLOOR


@pytest.mark.benchmark(group="p8-compute")
def test_p8_crash_recovery_with_attempt_spans(benchmark):
    """Acceptance: a mid-run host crash still completes the job, and the
    re-execution shows up as extra attempt spans + ERROR spans."""
    result = _recovery(N_TASKS["quick"])
    benchmark.pedantic(lambda: _recovery(N_TASKS["quick"]), rounds=1,
                       iterations=1)
    show("P8: lineage recovery under a host crash",
         [f"state {result['state']}, {result['attempts']} attempts for "
          f"{result['tasks']} tasks",
          f"retried {result['retried_tasks']}",
          f"attempt spans {result['attempt_spans']} "
          f"({result['error_spans']} ERROR)",
          f"critical path sums to {result['critical_path_pct_sum']:.1f}%"])
    assert result["state"] == "succeeded"
    assert result["attempts"] > result["tasks"]
    assert result["attempt_spans"] == result["attempts"]
    assert result["error_spans"] >= 1
    assert result["saw_worker_crashed"] and result["saw_task_retried"]
    assert abs(result["critical_path_pct_sum"] - 100.0) < 1e-9
    assert result["trace_verified"]


@pytest.mark.benchmark(group="p8-compute")
def test_p8_scenario_is_deterministic(benchmark):
    """Acceptance: the whole scenario twice, identical JSON."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    first = json.dumps(_run_scenario("quick"), sort_keys=True)
    second = json.dumps(_run_scenario("quick"), sort_keys=True)
    show("P8: determinism", [f"payload bytes: {len(first)}",
                             f"identical re-run: {first == second}"])
    assert first == second


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Compute-layer benchmark (writes JSON for CI)")
    parser.add_argument("--quick", action="store_true",
                        help="64 parallel tasks instead of 256")
    parser.add_argument("--output", default="BENCH_compute.json")
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    results = {"quick": args.quick, **_run_scenario(mode)}
    # Determinism: the whole scenario twice, byte-identical.
    second = {"quick": args.quick, **_run_scenario(mode)}
    results["deterministic"] = (
        json.dumps(results, sort_keys=True)
        == json.dumps(second, sort_keys=True))

    scaling = results["scaling"]
    recovery = results["recovery"]
    for workers in FLEETS:
        print(f"{workers} worker(s): {scaling['makespan_s'][str(workers)]:.3f}s "
              f"simulated on {scaling['nodes_used'][str(workers)]} node(s)")
    print(f"speedup 1 -> 8 workers: {scaling['speedup_8x']:.2f}x "
          f"(floor {SPEEDUP_FLOOR:.0f}x); vs inline "
          f"{scaling['speedup_vs_inline']:.2f}x")
    print(f"crash recovery: {recovery['state']} with "
          f"{recovery['attempts']} attempts for {recovery['tasks']} tasks; "
          f"{recovery['error_spans']} ERROR spans; retried "
          f"{recovery['retried_tasks']}")
    print(f"critical path sums to {recovery['critical_path_pct_sum']:.1f}% "
          f"across {sorted(recovery['critical_path_pct'])}")
    print(f"deterministic: {results['deterministic']}")

    assert scaling["speedup_8x"] >= SPEEDUP_FLOOR
    assert scaling["speedup_vs_inline"] >= SPEEDUP_FLOOR
    assert recovery["state"] == "succeeded"
    assert recovery["attempts"] > recovery["tasks"]
    assert recovery["attempt_spans"] == recovery["attempts"]
    assert recovery["error_spans"] >= 1
    assert abs(recovery["critical_path_pct_sum"] - 100.0) < 1e-9
    assert recovery["trace_verified"]
    assert results["deterministic"]

    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
    print(f"wrote {args.output}")
    return results


if __name__ == "__main__":
    main()
