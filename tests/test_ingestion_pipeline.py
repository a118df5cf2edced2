"""Tests for the asynchronous ingestion pipeline and export service."""

import random

import pytest

from repro.core.errors import (
    AuthenticationError,
    AuthorizationError,
    ConsentError,
    ExportError,
)
import repro.crypto.rsa as rsa
import repro.ingestion.pipeline as pipeline
from repro.crypto.rsa import HybridCiphertext, hybrid_encrypt, rsa_encrypt
from repro.crypto.symmetric import Ciphertext, generate_key
from repro.fhir.resources import Bundle, Observation, Patient
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

    def test_platform_and_frontend_gauges_share_one_monitoring(
            self, platform):
        # Regression: the frontend pushed its pending events under the
        # service's ``ingestion.queue_depth``, so the last writer won.
        from repro.blockchain import ShardedBlockchainNetwork
        from repro.core.errors import ConfigurationError
        from repro.ingestion import ShardedIngestionFrontend
        p, _, group, registration = platform
        network = ShardedBlockchainNetwork(2, seed=5, clock=p.clock,
                                           monitoring=p.monitoring)
        frontend = ShardedIngestionFrontend(network)
        for i in range(2):
            p.ingestion.upload(
                "client-1",
                encrypt_bundle_for_upload(
                    make_bundle(patient_id=f"pt-{i}", bundle_id=f"b{i}"),
                    registration),
                group.group_id)
        for i in range(5):
            frontend.record_event(f"patient-{i:03d}", handle=f"h-{i}",
                                  data_hash="aa", event="received",
                                  actor="ingest")
        metrics = p.monitoring.metrics
        assert metrics.gauge("ingestion.queue_depth") == 2
        assert metrics.gauge("ingestion.pending_events") == 5
        with pytest.raises(ConfigurationError):
            ShardedIngestionFrontend(network)

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


@pytest.fixture
def unwraps(monkeypatch):
    """Records every RSA unwrap (``rsa_decrypt`` call) from here on."""
    calls = []
    original = rsa.rsa_decrypt

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(rsa, "rsa_decrypt", counted)
    return calls


def consented_bundles(p, group, first, count):
    """``count`` bundles for fresh patients, each consented to ``group``."""
    bundles = []
    for i in range(first, first + count):
        p.consent.grant(f"pt-{i}", group.group_id)
        bundles.append(make_bundle(patient_id=f"pt-{i}", bundle_id=f"b{i}"))
    return bundles


def ingest(p, group, envelopes, client_id="client-1"):
    jobs = [p.ingestion.upload(client_id, envelope, group.group_id)
            for envelope in envelopes]
    p.run_ingestion()
    return jobs


class TestUploadSessions:
    """A client wraps one data key per session; the service unwraps it
    once and keeps only each client's current session."""

    def test_one_unwrap_for_a_session_of_uploads(self, platform, unwraps):
        p, _, group, registration = platform
        jobs = ingest(p, group, [
            encrypt_bundle_for_upload(bundle, registration)
            for bundle in consented_bundles(p, group, 0, 64)])
        assert [job.status for job in jobs] == [IngestionStatus.STORED] * 64
        assert len(unwraps) == 1

    def test_rotation_and_a_stale_session(self, platform, unwraps,
                                          monkeypatch):
        monkeypatch.setattr(pipeline, "SESSION_BUNDLES", 4)
        p, _, group, registration = platform
        bundles = consented_bundles(p, group, 0, 11)
        envelopes = [encrypt_bundle_for_upload(bundles[0], registration)]
        first_session = registration.session
        envelopes += [encrypt_bundle_for_upload(bundle, registration)
                      for bundle in bundles[1:10]]
        assert len({envelope.wrapped_key for envelope in envelopes}) == 3
        jobs = ingest(p, group, envelopes)
        assert all(job.status is IngestionStatus.STORED for job in jobs)
        assert len(unwraps) == 3
        stale = first_session.seal(bundles[10].to_json().encode())
        [job] = ingest(p, group, [stale])
        assert job.status is IngestionStatus.STORED
        assert len(unwraps) == 4

    @pytest.mark.parametrize("forge, forged_unwraps", [
        ("flipped_body", 0),
        ("random_key_wrapped", 1),
        ("random_wrapped_bytes", 1),
        ("other_clients_session", 1),
    ])
    def test_a_bad_envelope_never_evicts_the_warm_session(
            self, platform, unwraps, forge, forged_unwraps):
        p, _, group, registration = platform
        warm, victim, after = consented_bundles(p, group, 0, 3)
        ingest(p, group, [encrypt_bundle_for_upload(warm, registration)])
        valid = encrypt_bundle_for_upload(victim, registration)
        if forge == "flipped_body":
            body = bytearray(valid.body.body)
            body[0] ^= 1
            bad = HybridCiphertext(valid.wrapped_key, Ciphertext(
                valid.body.nonce, bytes(body), valid.body.tag))
        elif forge == "random_key_wrapped":
            bad = HybridCiphertext(
                rsa_encrypt(registration.public_key, generate_key()),
                valid.body)
        elif forge == "random_wrapped_bytes":
            bad = HybridCiphertext(
                random.Random(7).randbytes(len(valid.wrapped_key)),
                valid.body)
        else:
            # client-2's session is warm at the service too, and must
            # still not open under client-1's key.
            other = p.ingestion.register_client("client-2")
            [own] = ingest(p, group, [
                encrypt_bundle_for_upload(victim, other)], "client-2")
            assert own.status is IngestionStatus.STORED
            bad = encrypt_bundle_for_upload(victim, other)
        before = len(unwraps)
        [rejected] = ingest(p, group, [bad])
        assert rejected.status is IngestionStatus.REJECTED
        assert "decryption failed" in rejected.reason
        assert len(unwraps) == before + forged_unwraps
        [stored] = ingest(p, group, [
            encrypt_bundle_for_upload(after, registration)])
        assert stored.status is IngestionStatus.STORED, stored.reason
        assert len(unwraps) == before + forged_unwraps

    def test_one_shot_envelopes_interleave_with_a_session(self, platform,
                                                          unwraps):
        """A one-shot envelope costs one unwrap and replaces the kept
        session, so the next session envelope pays one more: alternating
        them unwraps every envelope, as the parent did."""
        p, _, group, registration = platform
        envelopes = [
            encrypt_bundle_for_upload(bundle, registration) if i % 2
            else hybrid_encrypt(registration.public_key,
                                bundle.to_json().encode())
            for i, bundle in enumerate(consented_bundles(p, group, 0, 8))]
        jobs = ingest(p, group, envelopes)
        assert [job.status for job in jobs] == [IngestionStatus.STORED] * 8
        assert len(unwraps) == 8

    def test_a_session_seals_each_bundle_under_a_fresh_nonce(self,
                                                              platform):
        _, _, _, registration = platform
        envelopes = [encrypt_bundle_for_upload(
            make_bundle(patient_id=f"pt-{i}", bundle_id=f"b{i}"),
            registration) for i in range(100)]
        assert len({envelope.wrapped_key for envelope in envelopes}) == 1
        assert len({envelope.body.nonce for envelope in envelopes}) == 100


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
        assert metrics.gauge("ingestion.pending_events") == 7
        frontend.flush()
        assert frontend.pending_events == 0
        assert metrics.gauge("ingestion.pending_events") == 0

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
    """Regression: the frontend's gauge went to 0 on a *failed* flush.

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
        assert metrics.gauge("ingestion.pending_events") == 4

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
            assert metrics.gauge("ingestion.pending_events") == 6
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
        assert network.monitoring.metrics.gauge(
            "ingestion.pending_events") == 0
        assert network.peers_converged()

    def test_partly_failed_flush_retries_only_uncommitted_batches(self):
        # Regression: shard-00 committed and shard-01 failed, but both
        # sealed batches stayed queued.  Every retry resubmitted
        # shard-00's batch, which its peers refuse as already recorded,
        # so shard-01's events never committed.
        from repro.core.errors import EndorsementError
        network, frontend = self._frontend()
        keys = {0: "patient-001", 1: "patient-000"}
        assert {network.router.shard_for(k) for k in keys.values()} == {0, 1}
        for shard, key in keys.items():
            for i in range(2):
                frontend.record_event(key, handle=f"h-{shard}-{i}",
                                      data_hash="aa", event="received",
                                      actor="ingest")
        self._crash_shard(network, 1)
        with pytest.raises(EndorsementError):
            frontend.flush()
        assert [c.peers[0].ledger.height for c in network.channels] == [1, 0]
        metrics = network.monitoring.metrics
        assert frontend.pending_events == 2        # shard-01's only
        assert metrics.gauge("ingestion.pending_events") == 2
        network.clock.advance(2_000.0)             # peers recover
        report = frontend.flush()
        assert report is not None and report.transactions == 1
        assert list(report.shard_reports) == ["shard-01"]
        assert frontend.pending_events == 0
        assert metrics.gauge("ingestion.pending_events") == 0
        history = network.query(keys[1], "provenance", "get_history",
                                handle="h-1-0")
        assert len(history) == 1
        assert history[0]["meta"]["batch"].startswith("shardbatch-shard-01-")
        assert network.peers_converged()
