"""Federated study lifecycle: threshold approval on-chain, rounds, chaos."""

import numpy as np
import pytest

from repro.blockchain.sharding import ShardedBlockchainNetwork
from repro.cloudsim.clock import SimClock
from repro.cloudsim.faults import FaultPlan
from repro.cloudsim.monitoring import MonitoringService
from repro.cloudsim.tracing import Tracer
from repro.compute.scheduler import standard_scheduler
from repro.core.errors import EndorsementError, StudyError, ValidationError
from repro.federation import (
    COORDINATOR_ID,
    DeltStudyConfig,
    FederatedStudyService,
    build_institutions,
)
from repro.workloads.emr import generate_emr_cohort

GROUP = "grp-hba1c"
N_DRUGS = 8


def build_world(n_institutions=3, sharded=False, seed=5, n_patients=24,
                max_iterations=2):
    clock = SimClock()
    monitoring = MonitoringService(clock)
    tracer = Tracer(clock)
    cohort = generate_emr_cohort(n_patients=n_patients, n_drugs=N_DRUGS,
                                 n_lowering=2, seed=seed)
    institutions = build_institutions(n_institutions, clock, GROUP,
                                      patients=cohort.patients, seed=seed)
    network = ShardedBlockchainNetwork(2 if sharded else 1, seed=seed,
                                       clock=clock, monitoring=monitoring)
    network.tracer = tracer
    scheduler = standard_scheduler(clock=clock, monitoring=monitoring,
                                   tracer=tracer)
    service = FederatedStudyService(
        clock=clock, network=network, scheduler=scheduler,
        institutions=institutions, monitoring=monitoring, tracer=tracer,
        seed=seed,
        delt_config=DeltStudyConfig(n_drugs=N_DRUGS,
                                    max_iterations=max_iterations))
    return service, institutions, network, tracer


def propose(service, threshold=2, participants=None):
    participants = participants or ["inst-00", "inst-01", "inst-02"]
    opened = service.propose(
        tenant_id="tenant-lab", researcher="user-researcher",
        analysis="delt", group_id=GROUP, participants=participants,
        threshold=threshold)
    return opened["study_id"]


class TestLifecycle:
    def test_propose_lands_on_ledger(self):
        service, *_ = build_world()
        study_id = propose(service)
        record = service.ledger_status(study_id)
        assert record["state"] == "proposed"
        assert record["threshold"] == 2
        assert record["participants"] == ["inst-00", "inst-01", "inst-02"]

    def test_unknown_participant_rejected(self):
        service, *_ = build_world()
        with pytest.raises(ValidationError, match="unknown institutions"):
            propose(service, participants=["inst-00", "inst-99"])

    def test_below_threshold_stays_proposed(self):
        service, *_ = build_world()
        study_id = propose(service, threshold=2)
        assert service.approve(study_id, "inst-00") == "proposed"

    def test_threshold_flips_to_approved(self):
        service, *_ = build_world()
        study_id = propose(service, threshold=2)
        service.approve(study_id, "inst-00")
        assert service.approve(study_id, "inst-01") == "approved"

    def test_duplicate_approval_counts_once(self):
        service, *_ = build_world()
        study_id = propose(service, threshold=2)
        service.approve(study_id, "inst-00")
        state = service.approve(study_id, "inst-00")
        assert state == "proposed"
        assert len(service.ledger_status(study_id)["approvals"]) == 1

    def test_deny_closes_the_study(self):
        service, *_ = build_world()
        study_id = propose(service)
        assert service.deny(study_id, "inst-01") == "denied"
        with pytest.raises(StudyError, match="denied"):
            service.approve(study_id, "inst-00")
        with pytest.raises(StudyError, match="cannot run"):
            service.run(study_id)

    def test_non_participant_decisions_rejected(self):
        service, *_ = build_world(n_institutions=4)
        study_id = propose(service, participants=["inst-00", "inst-01"])
        with pytest.raises(StudyError, match="not a participant"):
            service.approve(study_id, "inst-03")
        with pytest.raises(StudyError, match="not a participant"):
            service.deny(study_id, "inst-03")

    def test_unregistered_study_rejected(self):
        service, *_ = build_world()
        with pytest.raises(StudyError):
            service.status("study-999999")
        with pytest.raises(StudyError):
            service.run("study-999999")

    def test_status_merges_ledger_and_run_state(self):
        service, *_ = build_world()
        study_id = propose(service, threshold=1)
        service.approve(study_id, "inst-02")
        status = service.status(study_id)
        assert status["state"] == "approved"
        assert status["approvals"] == ["inst-02"]
        assert status["rounds"] == 0
        assert status["job_ids"] == []


class TestThresholdOnChain:
    def test_run_refused_before_threshold(self):
        service, *_ = build_world()
        study_id = propose(service, threshold=3)
        service.approve(study_id, "inst-00")
        service.approve(study_id, "inst-01")
        with pytest.raises(StudyError, match="2 of 3 approvals"):
            service.run(study_id)

    def test_commitment_refused_before_approval(self):
        """The chaincode itself refuses pre-approval commitments.

        A commitment transaction submitted while the study is merely
        PROPOSED fails endorsement simulation — nothing lands on the
        ledger even when the coordinator misbehaves and submits one.
        """
        service, _, network, _ = build_world()
        study_id = propose(service, threshold=2)
        service.approve(study_id, "inst-00")  # one short of threshold
        with pytest.raises(EndorsementError):
            network.channel_for(study_id).invoke(
                COORDINATOR_ID, "study", "record_commitment",
                study_id=study_id, round_tag="r0", institution="inst-00",
                commitment="deadbeef", committed_at=0.0)
        assert service.ledger_commitments(study_id) == {}

    def test_commitment_accepted_after_threshold(self):
        service, _, network, _ = build_world()
        study_id = propose(service, threshold=2)
        service.approve(study_id, "inst-00")
        service.approve(study_id, "inst-01")
        network.channel_for(study_id).invoke(
            COORDINATOR_ID, "study", "record_commitment",
            study_id=study_id, round_tag="r0", institution="inst-00",
            commitment="deadbeef", committed_at=0.0)
        commits = service.ledger_commitments(study_id)
        assert [c["commitment"] for c in commits.values()] == ["deadbeef"]

    def test_commitment_from_non_participant_refused(self):
        service, _, network, _ = build_world(n_institutions=4)
        study_id = propose(service, threshold=1,
                           participants=["inst-00", "inst-01"])
        service.approve(study_id, "inst-00")
        with pytest.raises(EndorsementError):
            network.channel_for(study_id).invoke(
                COORDINATOR_ID, "study", "record_commitment",
                study_id=study_id, round_tag="r0", institution="inst-03",
                commitment="deadbeef", committed_at=0.0)


class TestRunEndToEnd:
    def test_delt_study_completes(self):
        service, institutions, _, tracer = build_world()
        study_id = propose(service, threshold=2)
        service.approve(study_id, "inst-00")
        service.approve(study_id, "inst-01")
        summary = service.run(study_id)

        assert summary["state"] == "complete"
        assert service.ledger_status(study_id)["state"] == "complete"
        # Two rounds (partials + loss) per DELT iteration.
        assert summary["rounds"] % 2 == 0 and summary["rounds"] >= 2
        assert len(summary["job_ids"]) == summary["rounds"]
        effects = service.result_object(study_id).effects
        assert effects.shape == (N_DRUGS,)

        # Every round leaves one endorsed commitment per institution.
        commits = service.ledger_commitments(study_id)
        assert len(commits) == summary["rounds"] * 3

        # Nothing but masked partials ever left any institution.
        for institution in institutions:
            assert institution.egress_log, "no egress recorded"
            assert {r.kind for r in institution.egress_log} == {
                "masked-partial"}

        # The run is fully traced and attribution closes at 100%.
        path = tracer.critical_path(summary["trace_id"])
        assert "federation" in path.by_layer()
        assert sum(path.layer_percentages().values()) == pytest.approx(100.0)

    def test_sharded_write_path(self):
        service, _, network, _ = build_world(sharded=True)
        study_id = propose(service, threshold=2)
        service.approve(study_id, "inst-00")
        service.approve(study_id, "inst-01")
        summary = service.run(study_id)
        assert summary["state"] == "complete"
        commits = service.ledger_commitments(study_id)
        assert len(commits) == summary["rounds"] * 3
        # The whole study routes to one shard by its id.
        channel = network.channel_for(study_id)
        assert channel.query("study", "status",
                             study_id=study_id)["state"] == "complete"

    def test_chaos_link_drop_is_retried(self):
        service, institutions, _, _ = build_world()
        plan = FaultPlan(seed=3, clock=service.clock)
        plan.drop_link("inst-00", "coordinator", 1.0,
                       start_s=0.0, end_s=service.clock.now + 1.0)
        institutions[0].fault_plan = plan
        study_id = propose(service, threshold=2)
        service.approve(study_id, "inst-00")
        service.approve(study_id, "inst-01")
        summary = service.run(study_id)
        assert summary["state"] == "complete"
        assert summary["upload_retries"] > 0
        assert plan.counters.get("link_drop", 0) > 0

    def test_tenant_bookkeeping(self):
        service, *_ = build_world()
        study_id = propose(service)
        assert service.study_tenant(study_id) == "tenant-lab"
        assert service.study_tenant("study-999999") is None
        assert service.studies_for_tenant("tenant-lab") == [study_id]
        assert service.studies_for_tenant("tenant-other") == []
