"""Federated study lifecycle coordinator.

:class:`FederatedStudyService` drives the study state machine the paper's
multi-stakeholder setting implies — PROPOSED -> APPROVED -> RUNNING ->
COMPLETE/DENIED — with every transition recorded as an endorsed
transaction on the provenance ledger's ``study`` chaincode, so M-of-N
threshold approval is enforced on-chain, not by coordinator goodwill.

An aggregation round is four phases:

1. **compute** — a task graph on the compute scheduler, one task per
   institution, produces the encrypted pairwise-masked partials;
2. **delivery** — each upload crosses the institution -> coordinator link
   (chaos-aware: a ``ResilientExecutor`` retries dropped links);
3. **ledger** — upload commitments ``H(ciphertext || key_fingerprint ||
   ts || institution)`` land as one endorsed batch via the sharded write
   path, where the ``study`` chaincode refuses any commitment before the
   study holds its M approvals;
4. **combine** — the coordinator verifies each upload against its
   on-ledger commitment, decrypts, and sums; the pairwise masks cancel
   and only the aggregate remains.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..blockchain.sharding import ShardedBlockchainNetwork
from ..cloudsim.clock import SimClock
from ..cloudsim.monitoring import MonitoringService
from ..cloudsim.tracing import maybe_span
from ..compute.graph import TaskGraph
from ..compute.scheduler import Scheduler
from ..core.canonical import canonical_json
from ..core.errors import (
    ConfigurationError,
    IntegrityError,
    ServiceUnavailableError,
    StudyError,
    ValidationError,
)
from ..core.resilience import ResiliencePolicy, ResilientExecutor
from ..crypto.symmetric import Ciphertext, SharedKeyCipher, generate_key, hkdf_expand
from .institution import Institution, MaskedUpload
from .secure import bytes_to_words, combine_masked, pair_secret

COORDINATOR_ID = "federation-coordinator"
ANALYSES = ("jmf", "delt")

# Delivery retry policy for chaos-dropped institution uplinks.  The
# breaker opens after 13 failures, so it never cuts one upload short.
DELIVERY_POLICY = ResiliencePolicy(max_attempts=12, base_backoff_s=0.5,
                                   max_backoff_s=8.0, jitter=0.0,
                                   breaker_failure_threshold=13)


@dataclass
class JmfStudyConfig:
    """Coordinator-side configuration for federated JMF studies."""

    n_drugs: int
    n_diseases: int
    drug_similarities: Dict[str, np.ndarray]
    disease_similarities: Dict[str, np.ndarray]
    jmf_kwargs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class DeltStudyConfig:
    """Coordinator-side configuration for federated DELT studies."""

    n_drugs: int
    ridge: float = 1.0
    network_weight: float = 0.0
    drug_similarity: Optional[np.ndarray] = None
    use_time_drift: bool = True
    max_iterations: int = 20
    tolerance: float = 1e-6


class FederatedStudyService:
    """Coordinates studies across institutions, a ledger, and a scheduler."""

    def __init__(self, *, clock: SimClock,
                 network: ShardedBlockchainNetwork,
                 scheduler: Scheduler,
                 institutions: Sequence[Institution],
                 monitoring: Optional[MonitoringService] = None,
                 seed: int = 0,
                 jmf_config: Optional[JmfStudyConfig] = None,
                 delt_config: Optional[DeltStudyConfig] = None) -> None:
        self.clock = clock
        self.network = network
        self.scheduler = scheduler
        self.monitoring = monitoring
        self._uplinks = ResilientExecutor(DELIVERY_POLICY, clock,
                                          monitoring)
        self.institutions: Dict[str, Institution] = {
            inst.name: inst for inst in institutions}
        self.jmf_config = jmf_config
        self.delt_config = delt_config
        self._root_key = generate_key(seed * 104_729 + 11)
        self._studies: Dict[str, Dict[str, Any]] = {}
        self._results: Dict[str, Any] = {}
        self._counter = 0

    # -- ledger plumbing -----------------------------------------------------

    def _invoke(self, routing_key: str, method: str, **args: Any) -> Any:
        channel = self.network.channel_for(routing_key)
        return channel.invoke(COORDINATOR_ID, "study", method, **args)

    def _query(self, routing_key: str, method: str, **args: Any) -> Any:
        return self.network.query(routing_key, "study", method, **args)

    def _record_commitments(self, study_id: str,
                            uploads: Sequence[MaskedUpload]) -> None:
        """One endorsed batch of commitments through the write path."""
        requests = []
        for upload in uploads:
            args = {"study_id": study_id, "round_tag": upload.round_tag,
                    "institution": upload.institution,
                    "commitment": upload.commitment(),
                    "committed_at": upload.created_at}
            requests.append(("study", "record_commitment", args))
        # All of a study's records share its routing key, so the whole
        # batch lands (pipelined) on the study's home shard.
        self.network.ingest(COORDINATOR_ID,
                            [(study_id, request) for request in requests])

    # -- lifecycle ------------------------------------------------------------

    def propose(self, *, tenant_id: str, researcher: str, analysis: str,
                group_id: str, participants: Sequence[str],
                threshold: int) -> Dict[str, Any]:
        """Open a study; returns its id and on-ledger state."""
        if analysis not in ANALYSES:
            raise ValidationError(
                f"unknown analysis {analysis!r}; expected one of {ANALYSES}")
        unknown = sorted(set(participants) - set(self.institutions))
        if unknown:
            raise ValidationError(f"unknown institutions: {unknown}")
        self._counter += 1
        study_id = f"study-{self._counter:06d}"
        self._invoke(
            study_id, "propose", study_id=study_id, researcher=researcher,
            analysis=analysis, group_id=group_id,
            participants=sorted(set(participants)), threshold=int(threshold),
            proposed_at=self.clock.now)
        study_master = hkdf_expand(self._root_key,
                                   b"study|" + study_id.encode())
        for name in sorted(set(participants)):
            self.institutions[name].enroll_study(study_id, study_master)
        self._studies[study_id] = {
            "study_id": study_id, "tenant_id": tenant_id,
            "researcher": researcher, "analysis": analysis,
            "group_id": group_id,
            "participants": sorted(set(participants)),
            "threshold": int(threshold), "master": study_master,
            "job_ids": [], "upload_retries": 0, "rounds": 0,
            "trace_id": None,
        }
        self._log(f"study {study_id} proposed by {researcher} "
                  f"({analysis}, {threshold}-of-{len(set(participants))})")
        return {"study_id": study_id, "state": "proposed"}

    def approve(self, study_id: str, institution: str) -> str:
        """Record one institution's on-ledger approval."""
        self._known(study_id)
        self._precheck_decision(study_id, institution,
                                allowed=("proposed", "approved"))
        self._invoke(study_id, "approve", study_id=study_id,
                     institution=institution, approved_at=self.clock.now)
        state = self.ledger_status(study_id)["state"]
        self._log(f"study {study_id} approved by {institution} -> {state}")
        return state

    def deny(self, study_id: str, institution: str) -> str:
        """Record one institution's on-ledger veto."""
        self._known(study_id)
        self._precheck_decision(study_id, institution, allowed=("proposed",))
        self._invoke(study_id, "deny", study_id=study_id,
                     institution=institution, denied_at=self.clock.now)
        self._log(f"study {study_id} denied by {institution}")
        return "denied"

    def _precheck_decision(self, study_id: str, institution: str,
                           allowed: Sequence[str]) -> None:
        """Client-side mirror of the chaincode's lifecycle checks.

        The contract remains the authority (an invalid transition fails
        endorsement regardless); this precheck turns the common mistakes
        into :class:`StudyError` with a readable message instead of a
        failed-endorsement error.
        """
        record = self.ledger_status(study_id)
        if institution not in record["participants"]:
            raise StudyError(
                f"{institution!r} is not a participant of {study_id!r}")
        if record["state"] not in allowed:
            raise StudyError(
                f"study {study_id!r} is {record['state']}; decision refused")

    def ledger_status(self, study_id: str) -> Dict[str, Any]:
        """The on-ledger study record."""
        record = self._query(study_id, "status", study_id=study_id)
        if record is None:
            raise StudyError(f"study {study_id!r} is not on the ledger")
        return record

    def status(self, study_id: str) -> Dict[str, Any]:
        """Ledger state merged with coordinator-side run bookkeeping."""
        local = self._known(study_id)
        record = self.ledger_status(study_id)
        return {
            "study_id": study_id, "state": record["state"],
            "analysis": record["analysis"], "group_id": record["group_id"],
            "participants": record["participants"],
            "threshold": record["threshold"],
            "approvals": [a["institution"] for a in record["approvals"]],
            "denials": [d["institution"] for d in record["denials"]],
            "rounds": local["rounds"], "job_ids": list(local["job_ids"]),
            "upload_retries": local["upload_retries"],
            "trace_id": local["trace_id"],
        }

    def ledger_commitments(self, study_id: str) -> Dict[str, Dict[str, Any]]:
        """All on-ledger upload commitments for a study."""
        self._known(study_id)
        return self._query(study_id, "commitments", study_id=study_id)

    def run(self, study_id: str) -> Dict[str, Any]:
        """Execute an approved study end to end; returns a result summary.

        Refuses (``StudyError``) unless the ledger shows the study
        APPROVED with its full M-of-N approvals — no aggregation round
        starts before threshold approval.
        """
        local = self._known(study_id)
        record = self.ledger_status(study_id)
        if record["state"] != "approved":
            raise StudyError(
                f"study {study_id!r} is {record['state']} with "
                f"{len(record['approvals'])} of {record['threshold']} "
                f"approvals; cannot run")
        self._invoke(study_id, "start", study_id=study_id,
                     started_at=self.clock.now)
        with maybe_span(self.clock.tracer, "federation.study", "federation",
                        study=study_id, analysis=local["analysis"]) as span:
            local["trace_id"] = getattr(span, "trace_id", None)
            from .analytics import federated_delt, federated_jmf
            if local["analysis"] == "jmf":
                if self.jmf_config is None:
                    raise ConfigurationError("no JMF study config installed")
                result = federated_jmf(self, study_id, self.jmf_config)
            else:
                if self.delt_config is None:
                    raise ConfigurationError("no DELT study config installed")
                result = federated_delt(self, study_id, self.delt_config)
        digest = result_digest(local["analysis"], result)
        self._invoke(study_id, "complete", study_id=study_id,
                     completed_at=self.clock.now, result_digest=digest)
        self._results[study_id] = result
        self._log(f"study {study_id} complete, result digest {digest[:16]}")
        return {"study_id": study_id, "state": "complete",
                "result_digest": digest, "rounds": local["rounds"],
                "job_ids": list(local["job_ids"]),
                "upload_retries": local["upload_retries"],
                "trace_id": local["trace_id"]}

    def result_object(self, study_id: str) -> Any:
        """The fitted result (JmfResult / DeltResult) of a completed study."""
        if study_id not in self._results:
            raise StudyError(f"study {study_id!r} has no result yet")
        return self._results[study_id]

    # -- the aggregation round ------------------------------------------------

    def aggregation_round(self, study_id: str, round_tag: str,
                          compute_fn: Callable[[Institution], np.ndarray],
                          *, cost_s: float = 0.05) -> np.ndarray:
        """Run one secure-aggregation round; returns the combined vector."""
        local = self._known(study_id)
        participants = local["participants"]
        with maybe_span(self.clock.tracer, "federation.round", "federation",
                        study=study_id, round=round_tag):
            uploads = self._compute_phase(local, round_tag, compute_fn,
                                          cost_s)
            delivered = self._delivery_phase(local, uploads)
            self._record_commitments(study_id, delivered)
            self._verify_phase(study_id, round_tag, delivered, participants)
            combined = self._combine_phase(local, delivered)
        local["rounds"] += 1
        return combined

    def _compute_phase(self, local: Dict[str, Any], round_tag: str,
                       compute_fn: Callable[[Institution], np.ndarray],
                       cost_s: float) -> List[MaskedUpload]:
        """One task per institution on the compute scheduler."""
        study_id = local["study_id"]
        participants = local["participants"]
        graph = TaskGraph(f"{study_id}:{round_tag}")

        def make_task(name: str):
            institution = self.institutions[name]
            secrets = {peer: pair_secret(institution.masking_key,
                                         self.institutions[peer].masking_key,
                                         study_id)
                       for peer in participants if peer != name}

            def task(_inputs: Dict[str, Any]) -> MaskedUpload:
                values = compute_fn(institution)
                return institution.masked_upload(study_id, round_tag,
                                                 values, secrets)
            return task

        for name in participants:
            graph.add_task(f"partial:{name}", make_task(name),
                           cost_s=cost_s, output_bytes=4096)
        job = self.scheduler.submit(graph, tenant_id=local["tenant_id"],
                                    submitted_by=local["researcher"])
        self.scheduler.run(job.job_id)
        local["job_ids"].append(job.job_id)
        outputs = self.scheduler.result(job.job_id)
        return [outputs[f"partial:{name}"] for name in participants]

    def _delivery_phase(self, local: Dict[str, Any],
                        uploads: Sequence[MaskedUpload]
                        ) -> List[MaskedUpload]:
        """Pull every upload across its (possibly chaotic) uplink."""
        delivered: List[MaskedUpload] = []
        for upload in uploads:
            institution = self.institutions[upload.institution]

            def attempt() -> MaskedUpload:
                try:
                    return institution.transmit(upload)
                except ServiceUnavailableError:
                    local["upload_retries"] += 1
                    raise
            delivered.append(self._uplinks.call(
                f"uplink.{upload.institution}", attempt))
        return delivered

    def _verify_phase(self, study_id: str, round_tag: str,
                      uploads: Sequence[MaskedUpload],
                      participants: Sequence[str]) -> None:
        """Every upload must match its endorsed on-ledger commitment."""
        on_ledger = self.ledger_commitments(study_id)
        for upload in uploads:
            key = (f"studycommit/{study_id}/{round_tag}/"
                   f"{upload.institution}")
            entry = on_ledger.get(key)
            if entry is None:
                raise IntegrityError(f"no ledger commitment at {key}")
            if entry["commitment"] != upload.commitment():
                raise IntegrityError(f"ledger commitment mismatch at {key}")
        if len(uploads) != len(participants):
            raise IntegrityError(
                f"round {round_tag}: {len(uploads)} uploads for "
                f"{len(participants)} participants")

    def _combine_phase(self, local: Dict[str, Any],
                       uploads: Sequence[MaskedUpload]) -> np.ndarray:
        """Decrypt from the wire format and cancel the pairwise masks."""
        study_id = local["study_id"]
        masked: Dict[str, List[int]] = {}
        for upload in uploads:
            key = hkdf_expand(local["master"],
                              b"inst|" + upload.institution.encode())
            cipher = SharedKeyCipher(key)
            associated = (f"{study_id}|{upload.round_tag}|"
                          f"{upload.institution}").encode()
            payload = cipher.decrypt(Ciphertext.from_bytes(upload.ciphertext),
                                     associated)
            masked[upload.institution] = bytes_to_words(payload)
        return combine_masked(masked)

    # -- internals ------------------------------------------------------------

    def _known(self, study_id: str) -> Dict[str, Any]:
        local = self._studies.get(study_id)
        if local is None:
            raise StudyError(f"study {study_id!r} is not registered here")
        return local

    def studies_for_tenant(self, tenant_id: str) -> List[str]:
        return sorted(sid for sid, local in self._studies.items()
                      if local["tenant_id"] == tenant_id)

    def study_tenant(self, study_id: str) -> Optional[str]:
        local = self._studies.get(study_id)
        return None if local is None else local["tenant_id"]

    def _log(self, message: str) -> None:
        if self.monitoring is not None:
            self.monitoring.log("federation", message)


def result_digest(analysis: str, result: Any) -> str:
    """Stable digest of a fitted result for the on-ledger COMPLETE record."""
    if analysis == "jmf":
        payload = {"analysis": "jmf",
                   "drug_source_weights": {
                       k: round(float(v), 9)
                       for k, v in result.drug_source_weights.items()},
                   "disease_source_weights": {
                       k: round(float(v), 9)
                       for k, v in result.disease_source_weights.items()},
                   "objective": [round(float(o), 6)
                                 for o in result.objective_history],
                   "scores": np.round(result.scores(), 9).tolist()}
    else:
        payload = {"analysis": "delt",
                   "effects": np.round(result.effects, 9).tolist(),
                   "objective": [round(float(o), 6)
                                 for o in result.objective_history]}
    return hashlib.sha256(canonical_json(payload)).hexdigest()
