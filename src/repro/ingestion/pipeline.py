"""Asynchronous data ingestion pipeline (Sections II-B and IV-B1).

The full flow the paper specifies:

1. clients encrypt bundles "using a client's public certificate issued by
   the platform" and upload to "a secure temporary storage area" (the
   staging area); "a message is left in the platform's internal messaging
   system for the background ingestion process";
2. "the platform returns a status URL to the uploading client";
3. the background process i) decrypts with the client's private key
   (generated at registration, held in the key management system),
   ii) validates the bundle, scans for malware, verifies consent,
   iii) de-identifies and stores in the Data Lake with a reference-id,
   keeping the identity mapping in protected metadata;
4. every step lands a provenance event on the blockchain, and
   malware/privacy verdicts go to their networks.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..blockchain.chaincode import ProvenanceBatch
from ..blockchain.network import BlockchainNetwork
from ..blockchain.sharding import ShardedBlockchainNetwork, ShardedIngestReport
from ..cloudsim.clock import SimClock
from ..cloudsim.monitoring import MonitoringService
from ..cloudsim.tracing import maybe_span
from ..core.errors import (
    AuthenticationError,
    HealthCloudError,
    NotFoundError,
)
from ..crypto.rsa import (
    EnvelopeSession,
    HybridCiphertext,
    RsaPrivateKey,
    RsaPublicKey,
    generate_keypair,
    hybrid_decrypt,
)
from ..crypto.symmetric import SharedKeyCipher
from ..fhir.resources import Bundle, Patient
from ..fhir.validation import BundleValidator
from ..privacy.consent import ConsentManagementService
from ..privacy.deidentify import Deidentifier, ReidentificationMap
from ..privacy.verification import AnonymizationVerificationService
from .datalake import DataLake
from .malware import MalwareScanner


class IngestionStatus(Enum):
    """States reported by a job's status URL."""

    UPLOADED = "uploaded"
    DECRYPTED = "decrypted"
    VALIDATED = "validated"
    SCANNED = "scanned"
    CONSENTED = "consented"
    DEIDENTIFIED = "deidentified"
    STORED = "stored"
    REJECTED = "rejected"


# The ledger identity every ingestion writer submits as.
SUBMITTER = "ingestion-service"

# Bundles a client seals under one upload session before it wraps a fresh
# data key: a bound on how much data one wrapped key protects, far below
# the 2**63 counter nonces the session's cipher can issue.
SESSION_BUNDLES = 1024

# Simulated per-stage service times (seconds) for the E1 latency split.
STAGE_COSTS = {
    IngestionStatus.DECRYPTED: 4e-3,
    IngestionStatus.VALIDATED: 2e-3,
    IngestionStatus.SCANNED: 3e-3,
    IngestionStatus.CONSENTED: 1e-3,
    IngestionStatus.DEIDENTIFIED: 2e-3,
    IngestionStatus.STORED: 5e-3,
}


@dataclass
class IngestionJob:
    """One staged upload working its way through the pipeline."""

    job_id: str
    client_id: str
    group_id: str
    envelope: HybridCiphertext
    status: IngestionStatus = IngestionStatus.UPLOADED
    reason: str = ""
    stage_times: Dict[str, float] = field(default_factory=dict)
    stored_record_ids: List[str] = field(default_factory=list)
    reference_bundle_id: str = ""
    # Simulated seconds from the start of processing to storage; set
    # only for a stored job.
    latency_s: Optional[float] = None

    @property
    def status_url(self) -> str:
        return f"/ingestion/status/{self.job_id}"


@dataclass
class ClientRegistration:
    """Issued at registration: public certificate for upload encryption.

    ``session`` is the client's current upload session, which
    :func:`encrypt_bundle_for_upload` opens on first use and rotates.
    """

    client_id: str
    public_key: RsaPublicKey
    session: Optional[EnvelopeSession] = field(default=None, compare=False,
                                               repr=False)


class IngestionService:
    """Staging area + background ingestion worker + status API."""

    def __init__(self, datalake: DataLake,
                 consent: ConsentManagementService,
                 deidentifier: Deidentifier,
                 validator: Optional[BundleValidator] = None,
                 scanner: Optional[MalwareScanner] = None,
                 verification: Optional[AnonymizationVerificationService] = None,
                 blockchain: Optional[BlockchainNetwork] = None,
                 monitoring: Optional[MonitoringService] = None,
                 clock: Optional[SimClock] = None,
                 key_seed: Optional[int] = None,
                 provenance_batch_size: int = 16) -> None:
        if provenance_batch_size < 1:
            raise ValueError("provenance batch size must be >= 1")
        self.datalake = datalake
        self.consent = consent
        self.deidentifier = deidentifier
        self.validator = validator if validator is not None else BundleValidator()
        self.scanner = scanner if scanner is not None else MalwareScanner()
        self.verification = (verification if verification is not None
                             else AnonymizationVerificationService(
                                 minimum_degree=0.0))
        self.blockchain = blockchain
        self.clock = clock if clock is not None else SimClock()
        self.monitoring = (monitoring if monitoring is not None
                           else MonitoringService(self.clock))
        self._client_keys: Dict[str, RsaPrivateKey] = {}
        # client -> its current upload session's wrapped key and cipher
        self._sessions: Dict[str, Dict[bytes, SharedKeyCipher]] = {}
        self.jobs: Dict[str, IngestionJob] = {}
        self._queue: Deque[str] = deque()
        self.monitoring.metrics.register_gauge(
            "ingestion.queue_depth", lambda: len(self._queue))
        self._job_counter = 0
        self._key_seed = key_seed
        self.reidentification = ReidentificationMap()
        self.provenance_batch_size = provenance_batch_size
        # The open batch and its verdict reports are kept until their
        # submission succeeds; a failed flush retries them next time.
        self._batch = ProvenanceBatch()
        self._report_buffer: List[Tuple[str, str, Dict[str, Any]]] = []
        self._batch_counter = 0

    # -- registration (Section II-B, "Registration Service") -------------------

    def register_client(self, client_id: str) -> ClientRegistration:
        """Issue a client its platform-held keypair's public certificate."""
        if client_id in self._client_keys:
            raise AuthenticationError(f"client {client_id} already registered")
        seed = (None if self._key_seed is None
                else self._key_seed * 191 + len(self._client_keys) + 1)
        private = generate_keypair(bits=1024, seed=seed)
        self._client_keys[client_id] = private
        self._sessions[client_id] = {}
        return ClientRegistration(client_id, private.public_key())

    # -- upload (synchronous part) ------------------------------------------------

    def upload(self, client_id: str, envelope: HybridCiphertext,
               group_id: str) -> IngestionJob:
        """Stage an encrypted bundle; returns the job with its status URL."""
        if client_id not in self._client_keys:
            raise AuthenticationError(f"client {client_id} not registered")
        self._job_counter += 1
        job = IngestionJob(
            job_id=f"job-{self._job_counter:07d}",
            client_id=client_id,
            group_id=group_id,
            envelope=envelope,
        )
        self.jobs[job.job_id] = job
        self._queue.append(job.job_id)
        self.monitoring.metrics.incr("ingestion.uploads")
        return job

    def status(self, job_id: str) -> Tuple[IngestionStatus, str]:
        """What a GET on the status URL returns."""
        job = self._job(job_id)
        return job.status, job.reason

    # -- background worker -----------------------------------------------------------

    def process_pending(self, limit: Optional[int] = None) -> int:
        """Run the background ingestion process over queued jobs.

        Jobs are driven through the stages in batches of the service's
        ``provenance_batch_size``; each batch's buffered provenance
        events are flushed as one Merkle-batched, endorsed transaction,
        so the endorsement cost is amortized across the whole batch
        instead of paid per stage event.
        """
        processed = 0
        in_batch = 0
        with maybe_span(self.clock.tracer, "ingestion.process_pending",
                        "ingestion",
                        batch_size=self.provenance_batch_size) as span:
            while self._queue and (limit is None or processed < limit):
                job_id = self._queue.popleft()
                job = self.jobs[job_id]
                with maybe_span(self.clock.tracer, "ingestion.job",
                                "ingestion", job=job_id) as job_span:
                    self._process(job)
                    job_span.set_attribute("status", job.status.value)
                processed += 1
                in_batch += 1
                if in_batch >= self.provenance_batch_size:
                    self.flush_provenance()
                    in_batch = 0
            self.flush_provenance()
            span.set_attribute("processed", processed)
        return processed

    def flush_provenance(self) -> int:
        """Submit buffered provenance events and verdict reports.

        All buffered per-stage events go out as a single ``record_batch``
        transaction carrying their Merkle root (every event keeps an
        inclusion proof against that endorsed root); buffered malware and
        privacy reports ride in the same endorsement round-trip via
        :meth:`BlockchainNetwork.submit_batch`.  The buffers are cleared
        only once the submission succeeds.  Returns the number of
        transactions submitted.
        """
        if self.blockchain is None:
            return 0
        requests: List[Tuple[str, str, Dict[str, Any]]] = []
        n_events = len(self._batch)
        if n_events:
            requests.append(self._batch.request(
                f"provbatch-{self._batch_counter + 1:06d}"))
        # Per-record privacy verdicts collapse into one batch transaction
        # (they are the second per-job cost after provenance events);
        # anything else — malware reports are rare — goes out as-is.
        privacy_levels = [args for chaincode, method, args
                          in self._report_buffer
                          if (chaincode, method) == ("privacy", "record_level")]
        if privacy_levels:
            requests.append(("privacy", "record_level_batch",
                             {"records": privacy_levels}))
        requests.extend(
            report for report in self._report_buffer
            if (report[0], report[1]) != ("privacy", "record_level"))
        if not requests:
            return 0
        self.blockchain.submit_batch(SUBMITTER, requests)
        if n_events:
            self._batch_counter += 1
            self._batch = ProvenanceBatch()
            self.monitoring.metrics.incr("ingestion.provenance_batches")
            self.monitoring.metrics.incr("ingestion.provenance_events",
                                         n_events)
        self._report_buffer.clear()
        return len(requests)

    def _advance(self, job: IngestionJob, status: IngestionStatus) -> None:
        cost = STAGE_COSTS.get(status, 0.0)
        self.clock.advance(cost)
        job.status = status
        job.stage_times[status.value] = self.clock.now

    def _reject(self, job: IngestionJob, reason: str) -> None:
        job.status = IngestionStatus.REJECTED
        job.reason = reason
        self.monitoring.metrics.incr("ingestion.rejected")
        self.monitoring.log("ingestion", f"job {job.job_id} rejected: {reason}",
                            level="WARN")

    def _process(self, job: IngestionJob) -> None:
        start = self.clock.now
        # i) decrypt with the client's platform-held private key; the
        # client's current session skips the RSA unwrap.
        try:
            plaintext = hybrid_decrypt(self._client_keys[job.client_id],
                                       job.envelope,
                                       opened=self._sessions[job.client_id])
        except Exception as exc:
            self._reject(job, f"decryption failed: {exc}")
            return
        self._advance(job, IngestionStatus.DECRYPTED)
        data_hash = hashlib.sha256(plaintext).hexdigest()
        self._provenance(job, data_hash, "received")

        # malware filtration before parsing (content inspection).
        scan = self.scanner.scan(plaintext)
        if not scan.clean:
            self._malware_report(job, scan)
            if scan.action == "drop":
                self._reject(job, "malware detected: "
                             + ",".join(scan.matched_signatures))
                return
            plaintext = self.scanner.sanitize(plaintext)
        self._advance(job, IngestionStatus.SCANNED)

        # ii) validate the bundle.
        try:
            bundle = Bundle.from_json(plaintext.decode("utf-8"))
        except Exception as exc:
            self._reject(job, f"bundle parse failed: {exc}")
            return
        report = self.validator.validate(bundle)
        if not report.valid:
            self._reject(job, "validation failed: " + "; ".join(report.errors))
            return
        self._advance(job, IngestionStatus.VALIDATED)
        self._provenance(job, data_hash, "validated")

        # consent verification for every patient in the bundle.
        patients = bundle.resources_of(Patient)
        for patient in patients:
            if not self.consent.has_consent(patient.id, job.group_id):
                self._reject(job, f"no consent for patient {patient.id} "
                             f"in group {job.group_id}")
                return
        self._advance(job, IngestionStatus.CONSENTED)

        # iii) de-identify; verify the achieved anonymization degree.
        clean_bundle, mapping = self.deidentifier.deidentify_bundle(bundle)
        self.reidentification.entries.update(mapping.entries)
        assessment = self.verification.assess_bundle(clean_bundle)
        self._privacy_report(job, assessment.overall_degree,
                             assessment.passed)
        if not assessment.passed:
            self._reject(job, "anonymization verification failed "
                         f"(degree {assessment.overall_degree:.2f})")
            return
        self.verification.admit(clean_bundle)
        self._advance(job, IngestionStatus.DEIDENTIFIED)
        self._provenance(job, data_hash, "deidentified")

        # store original + de-identified versions per patient.
        clean_json = clean_bundle.to_json().encode()
        for patient in patients:
            reference = self.deidentifier.reference_id(patient.id)
            original = self.datalake.store(
                reference, plaintext, kind="original",
                group_id=job.group_id,
                metadata={"bundle": bundle.id, "job": job.job_id})
            anonymized = self.datalake.store(
                reference, clean_json, kind="anonymized",
                group_id=job.group_id,
                metadata={"bundle": clean_bundle.id, "job": job.job_id})
            job.stored_record_ids.extend([original.record_id,
                                          anonymized.record_id])
        job.reference_bundle_id = clean_bundle.id
        self._advance(job, IngestionStatus.STORED)
        self._provenance(job, data_hash, "stored")
        job.latency_s = self.clock.now - start
        self.monitoring.metrics.incr("ingestion.stored")
        self.monitoring.metrics.observe("ingestion.latency", job.latency_s)

    # -- blockchain hooks --------------------------------------------------------------

    def _provenance(self, job: IngestionJob, data_hash: str,
                    event: str) -> None:
        if self.blockchain is None:
            return
        self._batch.append(handle=job.job_id, data_hash=data_hash,
                           event=event, actor=job.client_id,
                           metadata={"group": job.group_id})

    def _malware_report(self, job: IngestionJob, scan) -> None:
        action = "dropped" if scan.action == "drop" else "sanitized"
        self._report("malware", "report", {
            "record_id": job.job_id, "sender": job.client_id,
            "signature_name": ",".join(scan.matched_signatures),
            "action": action})

    def _privacy_report(self, job: IngestionJob, degree: float,
                        passed: bool) -> None:
        self._report("privacy", "record_level", {
            "record_id": job.job_id, "sender": job.client_id,
            "degree": round(degree, 4), "passed": passed})

    def _report(self, chaincode: str, method: str,
                args: Dict[str, Any]) -> None:
        if self.blockchain is None:
            return
        self._report_buffer.append((chaincode, method, args))

    def _job(self, job_id: str) -> IngestionJob:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise NotFoundError(f"job {job_id} unknown") from None


def encrypt_bundle_for_upload(bundle: Bundle,
                              registration: ClientRegistration) -> HybridCiphertext:
    """Client-side helper: serialize a bundle and seal it for upload.

    Every bundle is sealed under the registration's upload session, so
    the client wraps a data key (and the service unwraps it) once per
    :data:`SESSION_BUNDLES` bundles, not once per bundle.
    """
    session = registration.session
    if session is None or session.sealed >= SESSION_BUNDLES:
        session = registration.session = EnvelopeSession(
            registration.public_key)
    return session.seal(bundle.to_json().encode())


class ShardedIngestionFrontend:
    """Routes provenance events to shard-local Merkle batches.

    The write-path front door for a :class:`ShardedBlockchainNetwork`:
    every event carries a tenant/patient ``routing_key``; events for the
    same shard accumulate in a shard-local :class:`ProvenanceBatch`.
    When a batch reaches ``events_per_batch`` it is sealed into one
    ``record_batch`` request; :meth:`flush` seals the remainder and hands
    every sealed batch to the network's fork-join pipelined
    :meth:`ShardedBlockchainNetwork.ingest` in one call.  The
    ``ingestion.pending_events`` gauge reads :attr:`pending_events`:
    events buffered or sealed but not yet committed.
    """

    def __init__(self, network: ShardedBlockchainNetwork,
                 events_per_batch: int = 16) -> None:
        if events_per_batch < 1:
            raise ValueError("events per batch must be >= 1")
        self.network = network
        self.events_per_batch = events_per_batch
        self.monitoring = network.monitoring
        # shard -> (routing key of its first event, open batch)
        self._buffers: Dict[int, Tuple[str, ProvenanceBatch]] = {}
        self._sealed: List[Tuple[str, Tuple[str, str, Dict[str, Any]]]] = []
        self._batch_counter = 0
        self.monitoring.metrics.register_gauge(
            "ingestion.pending_events", lambda: self.pending_events)

    @property
    def pending_events(self) -> int:
        """Events accepted but not yet committed to any shard ledger."""
        buffered = sum(len(batch) for _, batch in self._buffers.values())
        return buffered + sum(len(request[2]["events"])
                              for _, request in self._sealed)

    def record_event(self, routing_key: str, *, handle: str, data_hash: str,
                     event: str, actor: str,
                     metadata: Optional[Dict[str, Any]] = None) -> int:
        """Buffer one provenance event on its owning shard's batch.

        Returns the event's leaf index within the (eventual) batch — the
        position its Merkle inclusion proof is anchored at.
        """
        shard = self.network.router.shard_for(routing_key)
        if shard not in self._buffers:
            self._buffers[shard] = (routing_key, ProvenanceBatch())
        _, batch = self._buffers[shard]
        leaf_index = batch.append(handle=handle, data_hash=data_hash,
                                  event=event, actor=actor,
                                  metadata=metadata)
        if len(batch) >= self.events_per_batch:
            self._seal(shard)
        return leaf_index

    def _seal(self, shard: int) -> None:
        routing_key, batch = self._buffers.pop(shard)
        self._batch_counter += 1
        batch_id = (f"shardbatch-{self.network.shard_name(shard)}"
                    f"-{self._batch_counter:06d}")
        self._sealed.append((routing_key, batch.request(batch_id)))
        self.monitoring.publish("ingestion", "ingestion.batch_sealed",
                                shard=self.network.shard_name(shard),
                                batch=batch_id, events=len(batch))

    def flush(self, round_size: Optional[int] = None,
              pipelined: bool = True) -> Optional[ShardedIngestReport]:
        """Seal every partial buffer and commit all sealed batches.

        One fork-join pipelined ingest across shards; ``round_size``
        limits how many batch transactions each shard commits per
        pipeline round.  Returns the ingest report, or ``None`` when
        there was nothing to commit.

        The queue is only cleared after the ingest succeeds.  A failed
        ingest keeps the sealed batches that did not commit (shards
        commit one after another, so some may have), so
        :attr:`pending_events` and its ``ingestion.pending_events`` gauge
        count their events, and a later :meth:`flush` retries them.
        """
        for shard in sorted(self._buffers):
            self._seal(shard)
        if not self._sealed:
            return None
        sealed = list(self._sealed)
        self.monitoring.publish("ingestion", "ingestion.flush",
                                batches=len(sealed),
                                events=self.pending_events)
        try:
            report = self.network.ingest(SUBMITTER, sealed,
                                         round_size=round_size,
                                         pipelined=pipelined)
        except HealthCloudError:
            self._drop_committed()
            raise
        self._sealed = []
        return report

    def _drop_committed(self) -> None:
        """Unqueue the sealed batches a failed ingest committed anyway.

        A retry must not resubmit them: their shard's peers refuse a
        batch id already recorded, which would fail every later flush.
        """
        self._sealed = [
            (key, request) for key, request in self._sealed
            if self.network.query(key, "provenance", "get_batch",
                                  batch_id=request[2]["batch_id"]) is None]
