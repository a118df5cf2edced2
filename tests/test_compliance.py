"""Tests for HIPAA controls, change management, audit, and GDPR."""

import pytest

from repro import HealthCloudPlatform
from repro.cloudsim.monitoring import MonitoringService
from repro.compliance.change import ChangeManagementService, ChangeState
from repro.compliance.hipaa import (
    Control,
    ControlStatus,
    HipaaControlRegistry,
    Pillar,
)
from repro.core.errors import ChangeManagementError, ComplianceError
from repro.compliance.audit import AuditService
from repro.trusted.attestation import AttestationService
from repro.trusted.tpm import Tpm


class TestHipaaControls:
    def test_standard_set_loaded(self):
        registry = HipaaControlRegistry()
        assert len(registry.controls()) >= 14
        assert registry.controls(pillar=Pillar.TECHNICAL)

    def test_coverage_math(self):
        registry = HipaaControlRegistry()
        assert registry.coverage() == 0.0
        registry.mark_implemented("164.312-audit", "repro.compliance")
        assert 0.0 < registry.coverage() < 1.0

    def test_gdpr_filter(self):
        registry = HipaaControlRegistry()
        gdpr = registry.controls(regulation="GDPR")
        assert all(c.regulation == "GDPR" for c in gdpr)
        assert len(gdpr) == 3

    def test_verify_requires_implementation(self):
        registry = HipaaControlRegistry()
        with pytest.raises(ComplianceError):
            registry.mark_verified("164.312-audit")
        registry.mark_implemented("164.312-audit", "x")
        assert registry.mark_verified(
            "164.312-audit").status is ControlStatus.VERIFIED

    def test_gaps(self):
        registry = HipaaControlRegistry()
        registry.mark_implemented("164.312-audit", "x")
        gaps = registry.gaps()
        assert all(c.status is ControlStatus.NOT_IMPLEMENTED for c in gaps)
        assert "164.312-audit" not in [c.control_id for c in gaps]

    def test_report_shape(self):
        registry = HipaaControlRegistry()
        registry.mark_implemented("164.312-audit", "x")
        report = registry.report()
        assert "technical" in report
        assert report["technical"]["implemented"] == 1

    def test_duplicate_control_rejected(self):
        registry = HipaaControlRegistry()
        with pytest.raises(ComplianceError):
            registry.add_control(Control("164.312-audit", Pillar.TECHNICAL,
                                         "dup"))

    def test_platform_marks_implemented_controls(self):
        platform = HealthCloudPlatform(seed=3, use_blockchain=False)
        assert platform.controls.coverage() > 0.5


class TestChangeManagement:
    @pytest.fixture
    def cm(self):
        attestation = AttestationService(seed=60)
        return ChangeManagementService(attestation), attestation

    def test_full_workflow(self, cm):
        service, attestation = cm
        tpm = Tpm("tpm:svc", seed=61)
        tpm.extend(2, "hypervisor", "aa" * 32)
        attestation.enroll_platform(tpm)
        attestation.set_golden_values(tpm.tpm_id, {2: tpm.read_pcr(2)})
        assert attestation.attest(tpm, (2,)).trusted

        change = service.describe("tpm:svc", "upgrade hypervisor to v5",
                                  requested_by="dev1")
        service.evaluate(change.change_id, "low risk, tested in staging")
        service.approve(change.change_id, approver="sec-officer")
        service.apply_platform_change(change.change_id, tpm, 2,
                                      "hypervisor-v5", "bb" * 32,
                                      golden_pcrs=[2])
        # Post-change the platform still attests (goldens were refreshed).
        assert attestation.attest(tpm, (2,)).trusted
        assert change.state is ChangeState.APPLIED

    def test_unapproved_change_breaks_attestation(self, cm):
        service, attestation = cm
        tpm = Tpm("tpm:svc", seed=62)
        tpm.extend(2, "hypervisor", "aa" * 32)
        attestation.enroll_platform(tpm)
        attestation.set_golden_values(tpm.tpm_id, {2: tpm.read_pcr(2)})
        # Rogue upgrade without a change record:
        tpm.extend(2, "hypervisor-v5", "bb" * 32)
        assert not attestation.attest(tpm, (2,)).trusted

    def test_cannot_apply_without_approval(self, cm):
        service, _ = cm
        tpm = Tpm("tpm:svc", seed=63)
        change = service.describe("tpm:svc", "x", "dev1")
        with pytest.raises(ChangeManagementError):
            service.apply_platform_change(change.change_id, tpm, 2,
                                          "c", "aa" * 32, [2])
        service.evaluate(change.change_id, "ok")
        with pytest.raises(ChangeManagementError):
            service.apply_platform_change(change.change_id, tpm, 2,
                                          "c", "aa" * 32, [2])

    def test_separation_of_duties(self, cm):
        service, _ = cm
        change = service.describe("svc", "x", requested_by="dev1")
        service.evaluate(change.change_id, "ok")
        with pytest.raises(ChangeManagementError):
            service.approve(change.change_id, approver="dev1")

    def test_rejection(self, cm):
        service, _ = cm
        change = service.describe("svc", "x", "dev1")
        service.evaluate(change.change_id, "too risky")
        service.reject(change.change_id, "sec-officer")
        assert change.state is ChangeState.REJECTED

    def test_pending_listing(self, cm):
        service, _ = cm
        service.describe("svc", "a", "dev1")
        change = service.describe("svc", "b", "dev1")
        service.evaluate(change.change_id, "ok")
        assert len(service.pending()) == 2


class TestAuditService:
    def test_clean_audit(self):
        platform = HealthCloudPlatform(seed=5)
        platform.monitoring.log("ingest", "something happened")
        report = platform.audit.run_audit()
        assert report.clean
        assert report.log_chain_valid
        assert report.ledger_valid in (True, None)

    def test_log_tamper_flagged(self):
        platform = HealthCloudPlatform(seed=5, use_blockchain=False)
        platform.monitoring.log("ingest", "original")
        import dataclasses
        store = platform.monitoring.logs
        store._entries[0] = dataclasses.replace(store._entries[0],
                                                message="forged")
        report = platform.audit.run_audit()
        assert not report.clean
        assert not report.log_chain_valid

    def test_denial_spike_flagged(self):
        platform = HealthCloudPlatform(seed=5, use_blockchain=False)
        context = platform.register_tenant("t")
        user = platform.rbac.register_user(context.tenant.tenant_id, "probe")
        from repro.rbac.model import Action, Scope, ScopeKind
        scope = Scope(ScopeKind.ORGANIZATION, context.default_org.org_id)
        for _ in range(10):
            platform.rbac.check(user.user_id, Action.READ, "phi", scope,
                                context.default_org.org_id,
                                context.default_env.env_id)
        report = platform.audit.run_audit(denial_ratio_threshold=0.5)
        assert any("probing" in f for f in report.findings)

    def test_log_search(self):
        monitoring = MonitoringService()
        monitoring.log("ingest", "job rejected: malware", level="WARN")
        monitoring.log("ingest", "job stored")
        audit = AuditService(monitoring)
        assert len(audit.search_logs(contains="malware")) == 1
        assert len(audit.search_logs(level="WARN")) == 1


class TestGdpr:
    @pytest.fixture
    def ingested(self):
        from repro.fhir.resources import Bundle, Patient
        from repro.ingestion.pipeline import encrypt_bundle_for_upload
        platform = HealthCloudPlatform(seed=9)
        context = platform.register_tenant("t")
        group = platform.rbac.create_group(context.tenant.tenant_id, "study")
        registration = platform.ingestion.register_client("c1")
        platform.consent.grant("pt-1", group.group_id)
        bundle = Bundle(id="b").add(
            Patient(id="pt-1", name={"family": "Doe"},
                    birthDate="1980-01-02", gender="female"))
        job = platform.ingestion.upload(
            "c1", encrypt_bundle_for_upload(bundle, registration),
            group.group_id)
        platform.run_ingestion()
        return platform, job

    def test_erasure_receipt(self, ingested):
        platform, job = ingested
        receipt = platform.gdpr.erase_subject("pt-1")
        assert receipt.consents_revoked == 1
        assert receipt.record_versions_destroyed == 2
        assert receipt.provenance_recorded

    def test_data_unreadable_after_erasure(self, ingested):
        platform, job = ingested
        platform.gdpr.erase_subject("pt-1")
        from repro.core.errors import KeyManagementError
        with pytest.raises(KeyManagementError):
            platform.datalake.retrieve(job.stored_record_ids[0])

    def test_subject_access_report(self, ingested):
        platform, _ = ingested
        report = platform.gdpr.subject_access("pt-1")
        assert len(report.stored_records) == 2
        assert len(report.consents) == 1
        assert report.patient_ref.startswith("ref-")

    def test_erasure_visible_in_provenance(self, ingested):
        platform, _ = ingested
        platform.gdpr.erase_subject("pt-1")
        report = platform.gdpr.subject_access("pt-1")
        assert [e["event"] for e in report.provenance_events] == ["deleted"]

    def test_subject_access_lists_ingestion_provenance(self, ingested):
        platform, job = ingested
        report = platform.gdpr.subject_access("pt-1")
        # Two stored versions, one job: its events are listed once.
        assert len(report.stored_records) == 2
        assert [e["event"] for e in report.provenance_events] == [
            "received", "validated", "deidentified", "stored"]
        assert report.provenance_events == platform.blockchain.query(
            "provenance", "get_history", handle=job.job_id)

    def test_subject_access_lists_every_job_then_the_subject(self, ingested):
        from repro.fhir.resources import Bundle, Patient
        from repro.ingestion.pipeline import encrypt_bundle_for_upload
        platform, first = ingested
        registration = platform.ingestion.register_client("c2")
        bundle = Bundle(id="b2").add(
            Patient(id="pt-1", name={"family": "Doe"},
                    birthDate="1980-01-02", gender="female"))
        second = platform.ingestion.upload(
            "c2", encrypt_bundle_for_upload(bundle, registration),
            first.group_id)
        platform.run_ingestion()
        report = platform.gdpr.subject_access("pt-1")
        stages = ["received", "validated", "deidentified", "stored"]
        assert [(e["actor"], e["event"])
                for e in report.provenance_events] == (
            [("c1", stage) for stage in stages]
            + [("c2", stage) for stage in stages])
        assert second.status.value == "stored"

    @staticmethod
    def _erasures(platform):
        from repro.blockchain import AuditorView
        view = AuditorView(platform.blockchain)
        return view, view.search_events(event="deleted")

    def test_erasure_is_audited_like_any_event(self, ingested):
        platform, _ = ingested
        platform.gdpr.erase_subject("pt-1")
        view, erasures = self._erasures(platform)
        assert len(erasures) == 1
        (erasure,) = erasures
        assert erasure.handle == platform.gdpr.subject_access(
            "pt-1").patient_ref
        assert erasure.actor == "gdpr-service"
        assert view.event_proof(erasure) is not None
        assert view.verify_event(erasure)

    def test_tampered_erasure_fails_verification(self, ingested):
        import dataclasses
        platform, _ = ingested
        platform.gdpr.erase_subject("pt-1")
        view, (erasure,) = self._erasures(platform)
        # A forged copy of the event fails against the endorsed root ...
        assert not view.verify_event(
            dataclasses.replace(erasure, data_hash="f0" * 32))
        # ... and so does the event rewritten inside the committed batch.
        ledger = platform.blockchain.peers[0].ledger
        block = ledger.block(erasure.block_height)
        txs = list(block.transactions)
        index = next(i for i, tx in enumerate(txs)
                     if tx.tx_id == erasure.tx_id)
        events = [dict(e, data_hash="f0" * 32)
                  for e in txs[index].args["events"]]
        txs[index] = dataclasses.replace(
            txs[index], args={**txs[index].args, "events": events})
        ledger._blocks[erasure.block_height] = dataclasses.replace(
            block, transactions=tuple(txs))
        _, (tampered,) = self._erasures(platform)
        assert tampered.data_hash == "f0" * 32
        assert not view.verify_event(tampered)

    def test_erasing_twice_records_two_batches(self, ingested):
        platform, _ = ingested
        platform.gdpr.erase_subject("pt-1")
        platform.gdpr.erase_subject("pt-1")
        view, erasures = self._erasures(platform)
        assert len(erasures) == 2
        assert len({e.batch_id for e in erasures}) == 2
        assert all(view.verify_event(e) for e in erasures)
        report = platform.gdpr.subject_access("pt-1")
        assert [e["event"] for e in report.provenance_events] == [
            "deleted", "deleted"]
