"""``ingest``: clinic upload rounds through :class:`HealthCloudPlatform`.

Four registered clinic clients upload encrypted FHIR bundles (1 Patient
plus 1-8 Observations, every patient consented).  A round is one clinic
uploading k bundles, then one ``run_ingestion()``; k comes from
{1, 2, 4, 8, 16, 32}.  Round sizes are dealt from shuffled decks with a
fixed composition, so every seed sees the same mix of round sizes and
only their order (and the bundles) change.  A bundle's latency runs from
its round's first ``upload`` to the return of the ``run_ingestion()``
that committed it.
"""

from __future__ import annotations

import itertools
import random
import time
from typing import Dict, List

from repro import HealthCloudPlatform
from repro.blockchain.audit import AuditorView
from repro.fhir.resources import Bundle, Observation, Patient
from repro.ingestion.pipeline import (IngestionStatus,
                                      encrypt_bundle_for_upload)

from ..harness import Recorder, sim_digest

N_CLINICS = 4
POOL_PER_CLINIC = 96          # distinct encrypted bundles per clinic
# Rounds per deck by size, chosen for this benchmark: bundle mass
# 4/8/20/48/16/32 of 128, so the median bundle sits inside the size-8
# rounds.  A uniform draw of k would put it on the boundary between
# size-16 and size-32 rounds, and op_p50_ms would jump between the two.
DECK = {1: 4, 2: 4, 4: 5, 8: 6, 16: 1, 32: 1}
DECKS = 8                     # the round list repeats after these
DIGEST_AFTER_ROUNDS = 4 * sum(DECK.values())
AUDIT_SAMPLE = 64

STATES = ("MA", "NY", "CA", "TX", "WA", "IL")
LABS = (("4548-4", "HbA1c", "%", 7.1, 1.3),
        ("2345-7", "Glucose", "mg/dL", 110.0, 25.0),
        ("2093-3", "Cholesterol", "mg/dL", 190.0, 35.0),
        ("8480-6", "Systolic BP", "mm[Hg]", 128.0, 15.0))


def make_bundle(rng: random.Random, clinic: int, index: int) -> Bundle:
    patient_id = f"pt-{clinic}-{index:05d}"
    bundle = Bundle(id=f"bundle-{clinic}-{index:05d}")
    bundle.add(Patient(
        id=patient_id,
        name={"family": f"Fam{rng.randrange(10_000)}",
              "given": [f"Pat{rng.randrange(1000)}"]},
        birthDate=f"{rng.randrange(1930, 2010)}-{rng.randrange(1, 13):02d}"
                  f"-{rng.randrange(1, 29):02d}",
        gender=rng.choice(("female", "male")),
        address={"line": [f"{rng.randrange(1, 999)} Main St"],
                 "city": "Springfield", "state": rng.choice(STATES),
                 "postalCode": f"{rng.randrange(10_000, 99_999)}"}))
    for k in range(rng.randrange(1, 9)):
        loinc, text, unit, mean, sd = rng.choice(LABS)
        bundle.add(Observation(
            id=f"{patient_id}-obs-{k}", code={"text": text, "loinc": loinc},
            subject=f"Patient/{patient_id}",
            effectiveDateTime=f"2024-{rng.randrange(1, 13):02d}-01",
            valueQuantity={"value": round(rng.gauss(mean, sd), 2),
                           "unit": unit}))
    return bundle


class IngestWorkload:
    # A round's bundles share one latency, so the tail counts rounds:
    # p99 and p95 leave too few rounds beyond them, p90 about 18 in 15 s.
    tail_p = 90.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.platform = platform = HealthCloudPlatform(seed=seed)
        context = platform.register_tenant("clinic-network")
        self.clinics = []
        for c in range(N_CLINICS):
            group = platform.rbac.create_group(context.tenant.tenant_id,
                                               f"clinic-{c}")
            registration = platform.ingestion.register_client(f"clinic-{c}")
            self.clinics.append((f"clinic-{c}", group.group_id, registration))

        started = time.perf_counter()
        rng = random.Random(seed)
        self.pool: List[list] = []
        for c, (_, group_id, registration) in enumerate(self.clinics):
            envelopes = []
            for i in range(POOL_PER_CLINIC):
                bundle = make_bundle(rng, c, i)
                platform.consent.grant(bundle.entries[0].id, group_id)
                envelopes.append(encrypt_bundle_for_upload(bundle,
                                                           registration))
            self.pool.append(envelopes)
        self.rounds = []          # (clinic, k)
        for _ in range(DECKS):
            deck = [k for k, n in DECK.items() for _ in range(n)]
            rng.shuffle(deck)
            self.rounds += [(rng.randrange(N_CLINICS), k) for k in deck]
        self.inputs_s = time.perf_counter() - started
        self.jobs = []
        self.digest = None

    def run(self, seconds: float, rec: Recorder) -> None:
        platform = self.platform
        clock = platform.clock
        cursor = [0] * N_CLINICS
        deadline = time.perf_counter() + seconds
        rounds = itertools.cycle(self.rounds)
        for number, (clinic, k) in enumerate(rounds, start=1):
            client_id, group_id, _ = self.clinics[clinic]
            envelopes = self.pool[clinic]
            batch = [envelopes[(cursor[clinic] + i) % POOL_PER_CLINIC]
                     for i in range(k)]
            cursor[clinic] += k
            sim_start = clock.now
            started = time.perf_counter()
            jobs = [platform.ingestion.upload(client_id, envelope, group_id)
                    for envelope in batch]
            platform.run_ingestion()
            wall = time.perf_counter() - started
            rec.sample(wall, clock.now - sim_start, count=k,
                       ok=sum(job.status is IngestionStatus.STORED
                              for job in jobs))
            self.jobs += jobs
            if number == DIGEST_AFTER_ROUNDS:
                self.digest = sim_digest(self.sim_fields())
                rec.mark_prefix()
            if number >= DIGEST_AFTER_ROUNDS and time.perf_counter() > deadline:
                return

    def sim_fields(self) -> Dict:
        network = self.platform.blockchain
        return {"sim_now": self.platform.clock.now,
                "tx_roots": [peer.ledger.running_tx_root
                             for peer in network.peers],
                "tips": [peer.ledger.tip_hash for peer in network.peers],
                "jobs": [(job.job_id, job.status.value,
                          job.reference_bundle_id) for job in self.jobs]}

    def check(self) -> List[str]:
        problems = []
        network = self.platform.blockchain
        for peer in network.peers:
            try:
                peer.ledger.verify()
            except Exception as exc:  # a tampered ledger raises
                problems.append(f"peer {peer.peer_id} ledger: {exc}")
        auditor = AuditorView(network)
        events = auditor.search_events()
        stored_events = sum(1 for e in events if e.event == "stored")
        stored_jobs = sum(job.status is IngestionStatus.STORED
                          for job in self.jobs)
        if stored_jobs != len(self.jobs):   # every bundle is valid, consented
            problems.append(f"{len(self.jobs) - stored_jobs} of "
                            f"{len(self.jobs)} jobs not STORED")
        if stored_events != stored_jobs:
            problems.append(f"{stored_events} 'stored' provenance events "
                            f"for {stored_jobs} stored jobs")
        sample = random.Random(self.seed).sample(
            events, min(AUDIT_SAMPLE, len(events)))
        bad = sum(not auditor.verify_event(e) for e in sample)
        if bad:
            problems.append(f"{bad}/{len(sample)} sampled provenance "
                            "events fail verification")
        return problems

    def counts(self, ops: int) -> Dict[str, float]:
        metrics = self.platform.monitoring.metrics
        ledger = self.platform.blockchain.peers[0].ledger
        return {
            "cloudsim.monitoring.log_entries_per_op":
                len(self.platform.monitoring.logs.entries()) / ops,
            "ingestion.provenance_events_per_op":
                metrics.counter("ingestion.provenance_events") / ops,
            "blockchain.tx_per_op": ledger.transaction_count / ops,
            "blockchain.blocks_per_op": ledger.height / ops,
        }
