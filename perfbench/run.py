"""Wall-clock benchmark of the platform: one workload per process.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` installs the per-layer timing wrappers and reports the
per-layer metrics instead.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is non-zero when an output check fails or when the sim digest differs
from the one an earlier run of the same source tree recorded for the same
workload and seed.  State kept between runs lives in ``.perfbench/``.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402  (the clock above starts set-up time)
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".perfbench"
# Set-ups timed per run, all but the first in fresh child processes on
# seeds drawn from --seed: seeded key generation searches for primes, and
# how long that takes depends on the seed, so the median is taken over
# several seeds.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ingest", "query", "stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it, and exit")
    return parser.parse_args(argv)


def setup_in_child(args, seed: int) -> float:
    """Set-up time of the workload on ``seed`` in a fresh process."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import harness, layers, workloads

    workload_cls = workloads.load(args.workload)
    tracer = None
    if args.trace:
        tracer = layers.LayerTracer()
        tracer.install()
    workload = workload_cls(args.seed)
    gc.collect()
    setup_s = time.perf_counter() - PROCESS_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    first = tracer.records if tracer else 0
    rec = harness.Recorder()
    started = time.perf_counter_ns()
    workload.run(args.seconds, rec)
    wall_ns = time.perf_counter_ns() - started
    last = tracer.records if tracer else 0
    if tracer:
        tracer.uninstall()

    problems = workload.check()
    digest = workload.digest
    tree = harness.tree_hash(ROOT, ("src", "perfbench"))
    earlier = harness.check_digest(STATE_DIR / "digests.json",
                                   f"{tree}:{args.workload}:{args.seed}",
                                   digest)
    if earlier is not None:
        problems.append(f"sim digest {digest} differs from {earlier} "
                        "recorded by an earlier run")
    beyond = harness.samples_beyond(rec.wall_ms, workload.tail_p, rec.weights)
    print(f"workload {args.workload} seed {args.seed}: {rec.ops} ops in "
          f"{wall_ns / 1e9:.2f}s; sim digest {digest}")
    print(f"op_tail_ms is p{workload.tail_p:g}, with {beyond} of "
          f"{len(rec.wall_ms)} timed calls beyond it (highest with ten: "
          f"p{harness.tail_percentile(rec.wall_ms, rec.weights)})")
    if beyond < harness.MIN_SAMPLES_BEYOND:
        print(f"WARNING: op_tail_ms rests on fewer than "
              f"{harness.MIN_SAMPLES_BEYOND} samples; the run was too short")
    print(f"set-up inputs {workload.inputs_s:.3f}s; simulated op latency p99 "
          f"{harness.percentile(rec.sim_ms, 99.0, rec.weights):.3f}ms")

    if tracer:
        summary = tracer.summarize(first, last, wall_ns)
        metrics = dict.fromkeys(layers.per_layer_spec(), 0.0)
        metrics.update(layers.per_layer_metrics(summary, rec.ops, wall_ns))
        metrics.update(per_layer_counts(tracer, workload, rec, summary,
                                        first, last))
        STATE_DIR.mkdir(exist_ok=True)
        tracer.dump(STATE_DIR / f"trace-{args.workload}-{args.seed}.npz",
                    first)
        attributed = sum(row["self_ns"] for row in summary.values())
        print(f"layer self times + unattributed = "
              f"{100.0 * attributed / wall_ns:.6f}% of traced wall")
        # Overhead: replay the digest prefix untraced on a fresh instance
        # in this process, seconds after the traced run, so both see the
        # same machine; the replay must reach the same digest.
        del workload
        gc.collect()
        replay = harness.Recorder()
        replica = workload_cls(args.seed)
        replica.run(0.0, replay)
        if replica.digest != digest:
            problems.append(f"untraced replay reached sim digest "
                            f"{replica.digest}, traced run {digest}")
        metrics["tracing.wall_ms_per_op"] = rec.busy_s * 1e3 / rec.ops
        metrics["tracing.overhead_pct"] = 100.0 * (
            rec.prefix_busy_s / replay.prefix_busy_s - 1)
        units = {name: unit for name, (unit, _) in
                 layers.per_layer_spec().items()}
    else:
        del workload
        gc.collect()
        seeds = random.Random(args.seed)
        samples = [setup_s] + [setup_in_child(args, seeds.randrange(2 ** 31))
                               for _ in range(SETUP_SAMPLES - 1)]
        print("set-up samples " + " ".join(f"{s:.3f}" for s in samples))
        metrics = harness.end_to_end(rec, workload_cls.tail_p,
                                     statistics.median(samples))
        units = harness.UNITS
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({"correct": not problems, "attempted": rec.attempted,
                      "failed": rec.failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 1 if problems else 0


def per_layer_counts(tracer, workload, rec, summary, first, last):
    """Library counters plus the counts only the wrappers can see."""
    ops = rec.ops
    counts = workload.counts(ops)
    calls = lambda name: tracer.calls_of(name, first, last)[0]  # noqa: E731
    attempts = counts.pop("core.resilience.attempts", 0.0)
    resilient_calls = calls("ResilientExecutor.call")
    if resilient_calls:
        counts["core.resilience.attempts_per_call"] = (attempts
                                                       / resilient_calls)
    counts["crypto.rsa.private_ops_per_op"] = calls(
        "RsaPrivateKey.private_op") / ops
    counts["crypto.rsa.verify_calls_per_op"] = (
        calls("rsa_verify") + calls("rsa_verify_batch")) / ops
    counts["crypto.symmetric.bytes_per_op"] = (
        summary["crypto.symmetric"]["amount"] / ops)
    counts["ingestion.provenance_events_per_op"] = (
        counts.get("ingestion.provenance_events_per_op", 0.0)
        + calls("ShardedIngestionFrontend.record_event") / ops)
    keypairs, keygen_ns = tracer.calls_of("generate_keypair", 0, first)
    counts["setup.keypairs"] = keypairs
    counts["setup.keygen_s"] = keygen_ns / 1e9
    counts["setup.inputs_s"] = workload.inputs_s
    return counts


if __name__ == "__main__":
    sys.exit(main())
