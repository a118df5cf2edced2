"""``stream``: a seeded MMPP clinical feed through ``StreamingPipeline``.

The pipeline runs on a 4-shard ``ShardedBlockchainNetwork`` over a
160-drug, 96-disease universe, with adaptive shedding, one subscription,
a ``standard_scheduler`` for the refresh jobs and a seeded 10% lossy
worker->orderer link.  The feed mixes labs, census pings and drug and
disease updates in calm and burst phases, as the sustained-rate scenario
of ``benchmarks/bench_p9_streaming.py`` does.

The benchmark serves the feed one call at a time through the public
``submit``, ``drain_until(..., max_events=1)`` and ``flush`` calls, in the
order ``StreamingPipeline.run()`` makes them; :func:`self_check` shows
that this loop and ``run()`` leave identical state.  An op is one
processed event, and its latency is the wall time of the
``drain_until`` call that served it (commit flushes and refresh jobs
fall inside the call that triggers them).
"""

from __future__ import annotations

import itertools
import random
import time
from typing import Dict, List, Optional

import numpy as np

from repro.analytics.similarity import (DiseaseSimilarityBuilder,
                                        DrugSimilarityBuilder)
from repro.blockchain import ShardedBlockchainNetwork
from repro.cloudsim.faults import FaultPlan
from repro.cloudsim.healthplane.events import EventBus
from repro.compute import standard_scheduler
from repro.ingestion import ShardedIngestionFrontend
from repro.knowledge.synthetic import generate_universe
from repro.streaming import (AdaptiveShedPolicy, FeedGenerator,
                             IncrementalSimilarityEngine, StreamingAnalytics,
                             StreamingPipeline, SubscriptionFilter,
                             SubscriptionRegistry)

from ..harness import Recorder, sim_digest

N_SHARDS = 4
N_DRUGS, N_DISEASES = 160, 96
LINK_DROP_RATE = 0.10
# The sustained-rate scenario of benchmarks/bench_p9_streaming.py (calm
# rate, dwells, lab and census shares, adaptive shedding), with three
# changes.  Its 500 Hz bursts overload that bench's 64-drug universe on
# purpose and shed 75% of the events on this one, so the run would time
# the shedding path; 5x the calm rate keeps the bursts near the worker's
# simulated capacity.  Its queues of 12 start shedding at a depth of 6,
# which those bursts still reach (~0.2% of events shed), and a shed count
# that depends on how far a run gets differs between runs; with unbounded
# queues the deepest shard queue over 1 800-5 400 simulated seconds on
# nine seeds held 11-17 events, so queues of 128, which shed from a depth
# of 64, never shed.  Its 50% drug / 20% disease split puts the median
# event on the gap between disease updates (~0.35 ms) and drug updates
# (~0.8 ms), where op_p50_ms jumps between the two from seed to seed;
# 60/10 puts it inside drug updates.
QUEUE_CAPACITY = 128
FEED = dict(n_patients=64, rate_calm_hz=8.0, rate_burst_hz=40.0,
            dwell_calm_s=15.0, dwell_burst_s=3.0,
            class_weights={"lab.hba1c": 0.2, "adt.census": 0.1,
                           "drug.update": 0.6, "disease.update": 0.1})
# Simulated seconds of feed generated in set-up: about twice what a 15 s
# run serves.  A faster build goes on with events generated lazily, past
# the set-up, from the same generator, up to EXTEND_FACTOR times as many.
FEED_SECONDS = 1800.0
EXTEND_FACTOR = 100
DIGEST_AFTER = 2000           # processed events
CHECK_ROWS = 8                # sampled similarity rows per source
SELF_CHECK_SECONDS = 30.0     # simulated feed length of the self-check


class Stack:
    """One fully wired streaming pipeline and its feed."""

    def __init__(self, seed: int, feed_seconds: float) -> None:
        self.network = network = ShardedBlockchainNetwork(
            N_SHARDS, seed=seed, batch_size=8)
        started = time.perf_counter()
        self.universe = universe = generate_universe(
            n_drugs=N_DRUGS, n_diseases=N_DISEASES, seed=seed)
        self.feed = FeedGenerator.for_universe(universe, seed=seed, **FEED)
        self.feed_seconds = feed_seconds
        self.events = self.feed.generate(feed_seconds)
        self.inputs_s = time.perf_counter() - started
        self.feed_ran_out = False
        self.engine = IncrementalSimilarityEngine(
            DrugSimilarityBuilder(universe), DiseaseSimilarityBuilder(universe))
        self.registry = SubscriptionRegistry(
            EventBus(network.clock, monitoring=network.monitoring),
            queue_maxlen=10 ** 6)
        self.pipeline = StreamingPipeline(
            frontend=ShardedIngestionFrontend(network, events_per_batch=8),
            analytics=StreamingAnalytics(self.engine),
            registry=self.registry, queue_capacity=QUEUE_CAPACITY,
            policy_factory=lambda name: AdaptiveShedPolicy(seed=seed),
            scheduler=standard_scheduler(clock=network.clock,
                                         monitoring=network.monitoring))
        plan = FaultPlan(seed=seed, clock=network.clock)
        plan.drop_link("stream-worker", "orderer", LINK_DROP_RATE)
        self.pipeline.fault_plan = plan
        self.subscription = self.registry.register(
            tenant_id="mercy-hospital", owner="ward-dashboard",
            criteria=SubscriptionFilter())

    def drive(self, rec: Optional[Recorder] = None,
              seconds: Optional[float] = None, min_events: int = 0,
              on_processed=None) -> None:
        """Serve the feed call by call, exactly as ``run()`` orders them.

        With ``seconds``, stop feeding arrivals once that much wall time
        has passed and ``min_events`` were processed, then serve what is
        queued and flush, untimed; the feed goes on past the pre-generated
        events until then, and ``feed_ran_out`` says if it still ended
        first.  Without, serve exactly the pre-generated events.
        """
        pipeline = self.pipeline
        clock = pipeline.clock
        events = self.events
        deadline = None
        if seconds is not None:
            deadline = time.perf_counter() + seconds
            events = itertools.chain(events, self.feed.events(
                EXTEND_FACTOR * self.feed_seconds,
                start_s=self.feed_seconds))

        def serve(limit_s) -> bool:
            sim_start = clock.now
            started = time.perf_counter()
            served = pipeline.drain_until(limit_s, max_events=1)
            wall = time.perf_counter() - started
            if served and rec is not None:
                rec.sample(wall, clock.now - sim_start)
            if served and on_processed is not None:
                on_processed()
            return bool(served)

        for event in events:
            while serve(event.arrival_s):
                pass
            if (deadline is not None and time.perf_counter() > deadline
                    and pipeline.processed >= min_events):
                break
            if clock.now < event.arrival_s:
                clock.advance_to(event.arrival_s)
            started = time.perf_counter()
            pipeline.submit(event)
            if rec is not None:
                rec.busy_s += time.perf_counter() - started
        else:
            self.feed_ran_out = deadline is not None
            deadline = None
        if deadline is not None:   # stopped early: the rest is untimed
            rec = None
        while serve(None):
            pass
        started = time.perf_counter()
        pipeline.flush(force=True)
        if rec is not None:
            rec.busy_s += time.perf_counter() - started

    def push_latencies(self) -> List[float]:
        return self.network.monitoring.metrics.histogram_values(
            "streaming.push.latency_s")

    def sim_fields(self) -> Dict:
        pipeline = self.pipeline
        return {"sim_now": self.network.clock.now,
                "tips": [peer.ledger.tip_hash
                         for channel in self.network.channels
                         for peer in channel.peers],
                "ledger": pipeline.ledger(),
                "flushes": pipeline.flushes,
                "failed_flushes": pipeline.failed_flushes,
                "commit_retries": pipeline.commit_retries_used,
                "pair_evals": self.engine.pair_evals,
                "push_latencies": self.push_latencies()}


class StreamWorkload:
    tail_p = 99.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.stack = Stack(seed, FEED_SECONDS)
        self.inputs_s = self.stack.inputs_s
        self.digest = None

    def run(self, seconds: float, rec: Recorder) -> None:
        def checkpoint():
            if self.stack.pipeline.processed == DIGEST_AFTER:
                self.digest = sim_digest(self.stack.sim_fields())
                rec.mark_prefix()

        self.stack.drive(rec, seconds, min_events=DIGEST_AFTER,
                         on_processed=checkpoint)
        ledger = self.stack.pipeline.ledger()
        rec.attempted = ledger["arrivals"]
        rec.failed = ledger["shed"]

    def check(self) -> List[str]:
        stack = self.stack
        problems = []
        if not stack.pipeline.ledger_balanced():
            problems.append(f"pipeline ledger unbalanced: "
                            f"{stack.pipeline.ledger()}")
        if stack.pipeline.depth:
            problems.append("events left queued")
        if stack.feed_ran_out:
            problems.append("the feed ran out before the run's deadline")
        for channel in stack.network.channels:
            for peer in channel.peers:
                try:
                    peer.ledger.verify()
                except Exception as exc:  # a tampered ledger raises
                    problems.append(f"peer {peer.peer_id} ledger: {exc}")
        problems += rows_match_rebuild(stack.engine, stack.universe,
                                       random.Random(self.seed))
        problems += self_check(self.seed)
        return problems

    def counts(self, ops: int) -> Dict[str, float]:
        pipeline = self.stack.pipeline
        scheduler = pipeline.scheduler
        tasks = sum(len(scheduler.job(job_id).task_states)
                    for job_id in pipeline.refresh_jobs)
        ledgers = [channel.peers[0].ledger
                   for channel in self.stack.network.channels]
        return {
            "cloudsim.monitoring.log_entries_per_op":
                len(self.stack.network.monitoring.logs.entries()) / ops,
            "blockchain.tx_per_op":
                sum(ledger.transaction_count for ledger in ledgers) / ops,
            "blockchain.blocks_per_op":
                sum(ledger.height for ledger in ledgers) / ops,
            "streaming.shed": pipeline.shed,
            "streaming.max_queue_depth": max(
                (queue.peak_depth for queue in pipeline.queues), default=0),
            "streaming.commit_retries": pipeline.commit_retries_used,
            "analytics.pair_evals_per_op": self.stack.engine.pair_evals / ops,
            "compute.tasks_per_refresh":
                tasks / max(1, len(pipeline.refresh_jobs)),
        }


def rows_match_rebuild(engine, universe, rng: random.Random) -> List[str]:
    """Sampled rows of every maintained matrix equal a from-scratch build."""
    drugs = DrugSimilarityBuilder(universe, pubchem=engine.drugs.pubchem,
                                  drugbank=engine.drugs.drugbank,
                                  sider=engine.drugs.sider)
    diseases = DiseaseSimilarityBuilder(universe,
                                        disgenet=engine.diseases.disgenet)
    rebuilt = {**drugs.all_sources(), **diseases.all_sources()}
    problems = []
    for source, matrix in rebuilt.items():
        rows = rng.sample(range(len(matrix)), CHECK_ROWS)
        worst = float(np.max(np.abs(engine.matrices[source][rows]
                                    - matrix[rows])))
        if worst > 1e-9:
            problems.append(f"{source} rows differ from a rebuild by {worst}")
    return problems


def self_check(seed: int) -> List[str]:
    """Serving call by call leaves the same state as ``run()``."""
    by_run = Stack(seed, SELF_CHECK_SECONDS)
    by_run.pipeline.run(by_run.events)
    by_call = Stack(seed, SELF_CHECK_SECONDS)
    by_call.drive()
    a, b = by_run.sim_fields(), by_call.sim_fields()
    if a == b:
        return []
    differing = sorted(k for k in a if a[k] != b[k])
    return [f"serving call by call differs from run() in {differing}"]
