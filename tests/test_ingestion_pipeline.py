"""Tests for the asynchronous ingestion pipeline and export service."""

import pytest

from repro.core.errors import (
    AuthenticationError,
    AuthorizationError,
    ConsentError,
    ExportError,
)
from repro.crypto.rsa import hybrid_encrypt
from repro.fhir.resources import Bundle, Observation, Patient
from repro.ingestion.export import ExportService
from repro.ingestion.pipeline import (
    IngestionStatus,
    encrypt_bundle_for_upload,
)
from repro.rbac.model import Action, Permission, Scope, ScopeKind
from repro import HealthCloudPlatform


def make_bundle(patient_id="pt-1", bundle_id="b1"):
    bundle = Bundle(id=bundle_id)
    bundle.add(Patient(id=patient_id, name={"family": "Doe"},
                       birthDate="1980-03-12", gender="female"))
    bundle.add(Observation(id=f"{patient_id}-obs", code={"text": "HbA1c"},
                           subject=f"Patient/{patient_id}",
                           valueQuantity={"value": 7.0, "unit": "%"}))
    return bundle


@pytest.fixture
def platform():
    p = HealthCloudPlatform(seed=17)
    context = p.register_tenant("acme")
    group = p.rbac.create_group(context.tenant.tenant_id, "study")
    registration = p.ingestion.register_client("client-1")
    return p, context, group, registration


class TestUploadFlow:
    def test_happy_path(self, platform):
        p, _, group, registration = platform
        p.consent.grant("pt-1", group.group_id)
        job = p.ingestion.upload(
            "client-1", encrypt_bundle_for_upload(make_bundle(), registration),
            group.group_id)
        assert p.ingestion.status(job.job_id)[0] is IngestionStatus.UPLOADED
        p.run_ingestion()
        status, reason = p.ingestion.status(job.job_id)
        assert status is IngestionStatus.STORED, reason
        assert len(job.stored_record_ids) == 2  # original + anonymized

    def test_unregistered_client_rejected(self, platform):
        p, _, group, registration = platform
        envelope = encrypt_bundle_for_upload(make_bundle(), registration)
        with pytest.raises(AuthenticationError):
            p.ingestion.upload("stranger", envelope, group.group_id)

    def test_missing_consent_rejected(self, platform):
        p, _, group, registration = platform
        job = p.ingestion.upload(
            "client-1", encrypt_bundle_for_upload(make_bundle(), registration),
            group.group_id)
        p.run_ingestion()
        status, reason = p.ingestion.status(job.job_id)
        assert status is IngestionStatus.REJECTED
        assert "consent" in reason

    def test_wrong_key_rejected(self, platform):
        p, _, group, _ = platform
        other = p.ingestion.register_client("client-2")
        p.consent.grant("pt-1", group.group_id)
        # Encrypted for client-2 but uploaded as client-1.
        envelope = encrypt_bundle_for_upload(make_bundle(), other)
        job = p.ingestion.upload("client-1", envelope, group.group_id)
        p.run_ingestion()
        status, reason = p.ingestion.status(job.job_id)
        assert status is IngestionStatus.REJECTED
        assert "decryption" in reason

    def test_invalid_bundle_rejected(self, platform):
        p, _, group, registration = platform
        bad = Bundle(id="b-bad")
        bad.add(Observation(id="o", code={"text": "x"},
                            subject="Patient/ghost"))
        job = p.ingestion.upload(
            "client-1", encrypt_bundle_for_upload(bad, registration),
            group.group_id)
        p.run_ingestion()
        status, reason = p.ingestion.status(job.job_id)
        assert status is IngestionStatus.REJECTED
        assert "validation" in reason

    def test_malware_rejected_and_reported(self, platform):
        p, _, group, registration = platform
        p.consent.grant("pt-1", group.group_id)
        payload = (make_bundle().to_json()
                   + "EICAR-STANDARD-ANTIVIRUS-TEST-FILE").encode()
        envelope = hybrid_encrypt(registration.public_key, payload)
        job = p.ingestion.upload("client-1", envelope, group.group_id)
        p.run_ingestion()
        status, reason = p.ingestion.status(job.job_id)
        assert status is IngestionStatus.REJECTED
        assert "malware" in reason
        report = p.blockchain.query("malware", "record_status",
                                    record_id=job.job_id)
        assert report["action"] == "dropped"

    def test_provenance_chain_recorded(self, platform):
        p, _, group, registration = platform
        p.consent.grant("pt-1", group.group_id)
        job = p.ingestion.upload(
            "client-1", encrypt_bundle_for_upload(make_bundle(), registration),
            group.group_id)
        p.run_ingestion()
        history = p.blockchain.query("provenance", "get_history",
                                     handle=job.job_id)
        assert [e["event"] for e in history] == [
            "received", "validated", "deidentified", "stored"]

    def test_stored_data_is_deidentified(self, platform):
        p, _, group, registration = platform
        p.consent.grant("pt-1", group.group_id)
        job = p.ingestion.upload(
            "client-1", encrypt_bundle_for_upload(make_bundle(), registration),
            group.group_id)
        p.run_ingestion()
        anonymized_ids = job.stored_record_ids[1::2]
        plaintext = p.datalake.retrieve(anonymized_ids[0])
        assert b"Doe" not in plaintext
        assert b"pt-1" not in plaintext

    def test_privacy_level_recorded(self, platform):
        p, _, group, registration = platform
        p.consent.grant("pt-1", group.group_id)
        job = p.ingestion.upload(
            "client-1", encrypt_bundle_for_upload(make_bundle(), registration),
            group.group_id)
        p.run_ingestion()
        level = p.blockchain.query("privacy", "record_level_of",
                                   record_id=job.job_id)
        assert level["passed"]

    def test_stage_costs_accumulate(self, platform):
        p, _, group, registration = platform
        p.consent.grant("pt-1", group.group_id)
        start = p.clock.now
        job = p.ingestion.upload(
            "client-1", encrypt_bundle_for_upload(make_bundle(), registration),
            group.group_id)
        p.run_ingestion()
        assert p.clock.now > start
        assert "stored" in job.stage_times


class TestExport:
    def _ingest_cohort(self, p, group, registration, n=8):
        for i in range(n):
            pid = f"pt-{i}"
            p.consent.grant(pid, group.group_id)
            bundle = make_bundle(patient_id=pid, bundle_id=f"b-{i}")
            p.ingestion.upload(
                "client-1", encrypt_bundle_for_upload(bundle, registration),
                group.group_id)
        p.run_ingestion()

    def _grant_export_roles(self, p, context, user):
        tenant_scope = Scope(ScopeKind.TENANT, context.tenant.tenant_id)
        p.rbac.define_role("exporter", [
            Permission(Action.READ, "anonymized-data", tenant_scope),
            Permission(Action.READ, "phi-data", tenant_scope),
        ])
        p.rbac.bind_role(user.user_id, context.default_org.org_id,
                         context.default_env.env_id, "exporter")

    def test_anonymized_export(self, platform):
        p, context, group, registration = platform
        self._ingest_cohort(p, group, registration)
        user = p.rbac.register_user(context.tenant.tenant_id, "cro-analyst")
        self._grant_export_roles(p, context, user)
        p.rbac.add_group_member(group.group_id, user.user_id)
        export = p.export.export_anonymized(
            user.user_id, group.group_id, context.default_org.org_id,
            context.default_env.env_id)
        assert len(export.bundles) == 8
        assert export.achieved_k >= p.export.anonymity_k
        for row in export.cohort_table:
            assert row["patient_ref"].startswith("ref-")

    def test_full_export_reidentifies(self, platform):
        p, context, group, registration = platform
        self._ingest_cohort(p, group, registration)
        user = p.rbac.register_user(context.tenant.tenant_id, "cro-analyst")
        self._grant_export_roles(p, context, user)
        p.rbac.add_group_member(group.group_id, user.user_id)
        export = p.export.export_full(
            user.user_id, group.group_id, context.default_org.org_id,
            context.default_env.env_id)
        original_ids = {pid for pid, _ in export.records}
        assert original_ids == {f"pt-{i}" for i in range(8)}

    def test_full_export_blocked_without_rbac(self, platform):
        p, context, group, registration = platform
        self._ingest_cohort(p, group, registration)
        user = p.rbac.register_user(context.tenant.tenant_id, "intruder")
        with pytest.raises(AuthorizationError):
            p.export.export_full(user.user_id, group.group_id,
                                 context.default_org.org_id,
                                 context.default_env.env_id)

    def test_full_export_blocked_after_consent_revocation(self, platform):
        p, context, group, registration = platform
        self._ingest_cohort(p, group, registration)
        user = p.rbac.register_user(context.tenant.tenant_id, "cro-analyst")
        self._grant_export_roles(p, context, user)
        p.rbac.add_group_member(group.group_id, user.user_id)
        p.consent.revoke_all_for_patient("pt-3")
        with pytest.raises(ConsentError):
            p.export.export_full(user.user_id, group.group_id,
                                 context.default_org.org_id,
                                 context.default_env.env_id)

    def test_export_empty_group(self, platform):
        p, context, group, _ = platform
        user = p.rbac.register_user(context.tenant.tenant_id, "cro-analyst")
        self._grant_export_roles(p, context, user)
        p.rbac.add_group_member(group.group_id, user.user_id)
        with pytest.raises(ExportError):
            p.export.export_anonymized(user.user_id, group.group_id,
                                       context.default_org.org_id,
                                       context.default_env.env_id)


class TestQueueDepthGauge:
    def test_gauge_tracks_uploads_and_drains(self, platform):
        p, _, group, registration = platform
        metrics = p.ingestion.monitoring.metrics
        for i in range(3):
            p.consent.grant(f"pt-{i}", group.group_id)
            p.ingestion.upload(
                "client-1",
                encrypt_bundle_for_upload(
                    make_bundle(patient_id=f"pt-{i}", bundle_id=f"b{i}"),
                    registration),
                group.group_id)
        assert metrics.gauge("ingestion.queue_depth") == 3
        p.ingestion.process_pending(limit=1)
        assert metrics.gauge("ingestion.queue_depth") == 2
        p.run_ingestion()
        assert metrics.gauge("ingestion.queue_depth") == 0

    def test_provenance_batch_root_matches_batch_tree(self, platform):
        """The incrementally built flush root must equal the root the
        record_batch contract recomputes — otherwise endorsement fails."""
        p, _, group, registration = platform
        p.consent.grant("pt-1", group.group_id)
        p.ingestion.upload(
            "client-1", encrypt_bundle_for_upload(make_bundle(), registration),
            group.group_id)
        p.run_ingestion()  # would raise at endorsement on a root mismatch
        history = p.blockchain.query("provenance", "get_history",
                                     handle="job-0000001")
        assert history
        assert all("batch" in event["meta"] for event in history)


class TestShardedIngestionFrontend:
    def _frontend(self, n_shards=4, events_per_batch=4):
        from repro.blockchain import ShardedBlockchainNetwork
        from repro.ingestion import ShardedIngestionFrontend
        network = ShardedBlockchainNetwork(n_shards, seed=5, batch_size=8)
        return network, ShardedIngestionFrontend(
            network, events_per_batch=events_per_batch)

    def _fill(self, frontend, n, n_keys=10):
        for i in range(n):
            frontend.record_event(
                f"patient-{i % n_keys:03d}", handle=f"h-{i}",
                data_hash=f"{i:04x}", event="received", actor="ingest")

    def test_events_land_on_owning_shard(self):
        network, frontend = self._frontend()
        self._fill(frontend, 24)
        report = frontend.flush()
        assert report.transactions >= 1
        history = network.query("patient-000", "provenance",
                                "get_history", handle="h-0")
        assert history and history[0]["meta"]["batch"].startswith("shardbatch-")
        assert network.peers_converged()

    def test_queue_depth_gauge_follows_buffered_events(self):
        network, frontend = self._frontend(events_per_batch=100)
        metrics = network.monitoring.metrics
        self._fill(frontend, 7)
        assert frontend.pending_events == 7
        assert metrics.gauge("ingestion.queue_depth") == 7
        frontend.flush()
        assert frontend.pending_events == 0
        assert metrics.gauge("ingestion.queue_depth") == 0

    def test_full_buffers_seal_automatically(self):
        network, frontend = self._frontend(events_per_batch=2)
        # Same key -> same shard; the third event seals one batch of 2.
        for i in range(3):
            frontend.record_event("patient-xyz", handle=f"h-{i}",
                                  data_hash="aa", event="received",
                                  actor="ingest")
        assert frontend._sealed  # one sealed batch awaiting flush
        report = frontend.flush()
        assert report.transactions == 2  # sealed batch + remainder batch

    def test_flush_with_nothing_pending_returns_none(self):
        _, frontend = self._frontend()
        assert frontend.flush() is None

    def test_leaf_index_returned_for_inclusion_proofs(self):
        _, frontend = self._frontend(events_per_batch=4)
        indices = [frontend.record_event("patient-abc", handle=f"h-{i}",
                                         data_hash="aa", event="received",
                                         actor="ingest") for i in range(4)]
        assert indices == [0, 1, 2, 3]

    def test_invalid_batch_size_rejected(self):
        from repro.blockchain import ShardedBlockchainNetwork
        from repro.ingestion import ShardedIngestionFrontend
        network = ShardedBlockchainNetwork(2, seed=5)
        with pytest.raises(ValueError):
            ShardedIngestionFrontend(network, events_per_batch=0)


class TestFrontendQueueDepthFreshness:
    """Regression: ``ingestion.queue_depth`` went to 0 on a *failed* flush.

    The old flush cleared the sealed queue and zeroed the gauge before
    calling ``network.ingest``, so an endorsement failure lost the
    batches and reported an empty queue.  Now the state (and gauge) only
    clears after a successful ingest, and the retained batches can be
    retried.
    """

    def _frontend(self, n_shards=2, events_per_batch=4):
        from repro.blockchain import ShardedBlockchainNetwork
        from repro.ingestion import ShardedIngestionFrontend
        network = ShardedBlockchainNetwork(n_shards, seed=5, batch_size=8)
        return network, ShardedIngestionFrontend(
            network, events_per_batch=events_per_batch)

    def _crash_shard(self, network, shard, start_s=0.0, end_s=1_000.0):
        from repro.cloudsim.faults import FaultPlan
        plan = FaultPlan(seed=1, clock=network.clock)
        channel = network.channels[shard]
        for peer in channel.peers[:3]:   # 3 of 4 down: policy unmeetable
            plan.crash_node(peer.peer_id, start_s=start_s, end_s=end_s)
        for peer in channel.peers:
            peer.fault_plan = plan

    def test_failed_flush_keeps_queue_and_gauge(self):
        from repro.core.errors import EndorsementError
        network, frontend = self._frontend()
        for i in range(4):               # same key -> one shard, one batch
            frontend.record_event("patient-xyz", handle=f"h-{i}",
                                  data_hash="aa", event="received",
                                  actor="ingest")
        shard = network.router.shard_for("patient-xyz")
        self._crash_shard(network, shard)
        with pytest.raises(EndorsementError):
            frontend.flush()
        metrics = network.monitoring.metrics
        assert frontend.pending_events == 4        # batches retained
        assert metrics.gauge("ingestion.queue_depth") == 4

    def test_bad_round_size_keeps_queue_and_gauge(self):
        # Regression: round_size=-1 reached the network, which committed
        # nothing yet reported success, so the flush dropped its batches.
        from repro.core.errors import LedgerError
        network, frontend = self._frontend()
        for i in range(6):
            frontend.record_event(f"patient-{i:03d}", handle=f"h-{i}",
                                  data_hash="aa", event="received",
                                  actor="ingest")
        metrics = network.monitoring.metrics
        for round_size in (0, -1):
            with pytest.raises(LedgerError):
                frontend.flush(round_size=round_size)
            assert frontend.pending_events == 6
            assert metrics.gauge("ingestion.queue_depth") == 6
        assert all(channel.peers[0].ledger.height == 0
                   for channel in network.channels)
        report = frontend.flush(round_size=1)
        assert report is not None
        assert frontend.pending_events == 0
        assert sum(r.rounds for r in report.shard_reports.values()) == \
            report.transactions
        assert network.peers_converged()

    def test_retry_after_recovery_commits_and_zeroes_gauge(self):
        from repro.core.errors import EndorsementError
        network, frontend = self._frontend()
        for i in range(4):
            frontend.record_event("patient-xyz", handle=f"h-{i}",
                                  data_hash="aa", event="received",
                                  actor="ingest")
        shard = network.router.shard_for("patient-xyz")
        self._crash_shard(network, shard, end_s=1_000.0)
        with pytest.raises(EndorsementError):
            frontend.flush()
        network.clock.advance(2_000.0)             # peers recover
        report = frontend.flush()                  # same sealed batch retried
        assert report is not None and report.transactions == 1
        assert frontend.pending_events == 0
        assert network.monitoring.metrics.gauge("ingestion.queue_depth") == 0
        assert network.peers_converged()
