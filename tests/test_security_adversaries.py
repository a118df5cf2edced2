"""Adversary-model tests (Section IV-A).

Exercises the threat model's two adversary classes against the deployed
defenses:

* **honest-but-curious insiders** — follow the protocol but try to learn
  PHI from what they can legitimately touch (logs, ciphertexts, the
  ledger, anonymized exports);
* **malicious adversaries** — deviate arbitrarily: tamper with uploads,
  replay tokens, forge endorsements, inject malware, rewrite history.

Each test is one attack; the assertion is the defense holding.
"""

import dataclasses

import pytest

from repro import HealthCloudPlatform
from repro.core.errors import (
    AuthenticationError,
    AuthorizationError,
    KeyManagementError,
)
from repro.fhir.resources import Bundle, Observation, Patient
from repro.ingestion.pipeline import IngestionStatus, encrypt_bundle_for_upload


@pytest.fixture
def deployed():
    platform = HealthCloudPlatform(seed=201)
    context = platform.register_tenant("hospital")
    group = platform.rbac.create_group(context.tenant.tenant_id, "study")
    registration = platform.ingestion.register_client("bridge")
    platform.consent.grant("pt-alice", group.group_id)
    bundle = Bundle(id="b1")
    bundle.add(Patient(id="pt-alice", name={"family": "Anderson"},
                       birthDate="1975-08-20", gender="female",
                       identifier=[{"system": "ssn",
                                    "value": "987-65-4321"}]))
    bundle.add(Observation(id="o1", code={"text": "HbA1c"},
                           subject="Patient/pt-alice",
                           valueQuantity={"value": 8.1, "unit": "%"}))
    job = platform.ingestion.upload(
        "bridge", encrypt_bundle_for_upload(bundle, registration),
        group.group_id)
    platform.run_ingestion()
    assert platform.ingestion.status(job.job_id)[0] is IngestionStatus.STORED
    return platform, context, group, registration, job


class TestHonestButCurious:
    def test_logs_leak_no_phi(self, deployed):
        """An insider reading every log line learns no identifiers."""
        platform, *_ = deployed
        for entry in platform.monitoring.logs.entries():
            assert "Anderson" not in entry.message
            assert "987-65-4321" not in entry.message

    def test_ledger_carries_no_phi(self, deployed):
        """The replicated ledger holds handles and hashes, never PHI."""
        platform, _, _, _, job = deployed
        for tx in platform.blockchain.peers[0].ledger.transactions():
            serialized = str(tx.args)
            assert "Anderson" not in serialized
            assert "987-65-4321" not in serialized
            assert "pt-alice" not in serialized  # de-identified actor paths

    def test_lake_ciphertexts_opaque(self, deployed):
        """Raw storage access without key grants reveals nothing."""
        platform, _, _, _, job = deployed
        for record_id in job.stored_record_ids:
            record = platform.datalake._records[record_id]
            assert b"Anderson" not in record.ciphertext
            assert b"987-65-4321" not in record.ciphertext

    def test_curious_kms_principal_blocked(self, deployed):
        """A service identity without a grant cannot unwrap data keys."""
        platform, _, _, _, job = deployed
        record = platform.datalake._records[job.stored_record_ids[0]]
        with pytest.raises(AuthorizationError):
            platform.kms.unwrap_data_key(record.key_id, record.wrapped_key,
                                         "curious-billing-service",
                                         key_version=record.key_version)

    def test_anonymized_record_is_deidentified(self, deployed):
        """The version analysts read has pseudonymous ids, no identifiers."""
        platform, _, _, _, job = deployed
        anonymized = platform.datalake.retrieve(job.stored_record_ids[1])
        assert b"Anderson" not in anonymized
        assert b"987-65-4321" not in anonymized
        assert b"ref-" in anonymized

    def test_unauthorized_export_denied_and_audited(self, deployed):
        platform, context, group, _, _ = deployed
        snoop = platform.rbac.register_user(context.tenant.tenant_id,
                                            "curious-admin")
        with pytest.raises(AuthorizationError):
            platform.export.export_full(snoop.user_id, group.group_id,
                                        context.default_org.org_id,
                                        context.default_env.env_id)
        denials = [d for d in platform.rbac.decision_log() if not d.allowed]
        assert any(d.user_id == snoop.user_id for d in denials)


class TestMaliciousAdversaries:
    def test_tampered_upload_rejected(self, deployed):
        """Bit-flipping an in-flight envelope breaks the AEAD tag."""
        platform, _, group, registration, _ = deployed
        platform.consent.grant("pt-bob", group.group_id)
        bundle = Bundle(id="b2").add(
            Patient(id="pt-bob", name={"family": "B"}, birthDate="1980-01-01",
                    gender="male"))
        envelope = encrypt_bundle_for_upload(bundle, registration)
        body = envelope.body
        flipped = dataclasses.replace(
            body, body=bytes([body.body[0] ^ 0xFF]) + body.body[1:])
        tampered = dataclasses.replace(envelope, body=flipped)
        job = platform.ingestion.upload("bridge", tampered, group.group_id)
        platform.run_ingestion()
        status, reason = platform.ingestion.status(job.job_id)
        assert status is IngestionStatus.REJECTED
        assert "decryption" in reason

    def test_replayed_attestation_quote_rejected(self, deployed):
        """A captured quote cannot satisfy a later nonce challenge."""
        from repro.trusted import AttestationService, Tpm, verify_quote
        attestation = AttestationService(seed=5)
        tpm = Tpm("tpm:victim", seed=6)
        old_nonce = attestation.fresh_nonce()
        captured = tpm.quote(old_nonce, (0,))
        fresh_nonce = attestation.fresh_nonce()
        assert not verify_quote(tpm.attestation_public_key, captured,
                                fresh_nonce)

    def test_expired_token_replay_rejected(self, deployed):
        platform, context, _, _, _ = deployed
        from repro.rbac import ExternalIdentityProvider
        user = platform.rbac.register_user(context.tenant.tenant_id, "dr-x")
        idp = ExternalIdentityProvider("idp", b"secret-0123456789",
                                       platform.clock)
        platform.federation.approve_idp("idp", b"secret-0123456789")
        platform.federation.link_identity("idp", "dr-x@idp", user.user_id)
        token = idp.issue_token("dr-x@idp", ttl_s=60.0)
        assert platform.federation.authenticate(token).user_id == user.user_id
        platform.clock.advance(61.0)  # attacker replays after expiry
        with pytest.raises(AuthenticationError):
            platform.federation.authenticate(token)

    def test_history_rewrite_detected_by_audit(self, deployed):
        """A malicious peer admin rewrites a block; the audit pass flags it."""
        platform, *_ = deployed
        ledger = platform.blockchain.peers[0].ledger
        block = ledger.block(0)
        forged_tx = dataclasses.replace(block.transactions[0],
                                        args={"handle": "SCRUBBED"})
        ledger._blocks[0] = dataclasses.replace(
            block, transactions=(forged_tx,) + block.transactions[1:])
        report = platform.audit.run_audit()
        assert not report.clean
        assert report.ledger_valid is False

    def test_malware_sender_flagged_as_risky(self, deployed):
        """Repeated malware uploads trip the malware network's analytics."""
        from repro.crypto.rsa import hybrid_encrypt
        platform, _, group, registration, _ = deployed
        for i in range(3):
            payload = f'{{"n": {i}}}'.encode() + b"\x7fELF evil"
            envelope = hybrid_encrypt(registration.public_key, payload)
            platform.ingestion.upload("bridge", envelope, group.group_id)
        platform.run_ingestion()
        assert platform.blockchain.query("malware", "is_risky_sender",
                                         sender="bridge")

    def test_erased_patient_stays_erased_for_attackers(self, deployed):
        """Post-erasure, even full storage compromise yields nothing."""
        platform, _, _, _, job = deployed
        platform.gdpr.erase_subject("pt-alice")
        record = platform.datalake._records[job.stored_record_ids[0]]
        # The attacker has the ciphertext and the wrapped key...
        assert record.ciphertext and record.wrapped_key
        # ...but the KMS material is gone for every key version.
        with pytest.raises(KeyManagementError):
            platform.kms.unwrap_data_key(record.key_id, record.wrapped_key,
                                         platform.datalake.SERVICE_PRINCIPAL,
                                         key_version=record.key_version)

    def test_consent_forgery_blocked_at_export(self, deployed):
        """Revoked consent cannot be bypassed by asking again nicely."""
        platform, context, group, _, _ = deployed
        from repro.rbac.model import Action, Permission, Scope, ScopeKind
        analyst = platform.rbac.register_user(context.tenant.tenant_id,
                                              "cro")
        scope = Scope(ScopeKind.TENANT, context.tenant.tenant_id)
        platform.rbac.define_role("full-access", [
            Permission(Action.READ, "phi-data", scope)])
        platform.rbac.bind_role(analyst.user_id, context.default_org.org_id,
                                context.default_env.env_id, "full-access")
        platform.rbac.add_group_member(group.group_id, analyst.user_id)
        platform.consent.revoke_all_for_patient("pt-alice")
        from repro.core.errors import ConsentError
        with pytest.raises(ConsentError):
            platform.export.export_full(analyst.user_id, group.group_id,
                                        context.default_org.org_id,
                                        context.default_env.env_id)
