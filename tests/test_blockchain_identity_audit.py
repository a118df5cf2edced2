"""Tests for MSP, self-sovereign identity, auditor view, and the DB baseline."""

import pytest

import repro.blockchain.identity as identity_module
from repro import HealthCloudPlatform
from repro.blockchain import ShardedBlockchainNetwork, standard_network
from repro.blockchain.audit import AuditorView, CentralizedProvenanceDb
from repro.blockchain.identity import (
    MembershipServiceProvider,
    PseudonymVerifier,
    SelfSovereignIdentity,
)
from repro.blockchain.network import ORGANIZATIONS, consortium_msp
from repro.core.errors import (
    AuthenticationError,
    LedgerError,
    NotFoundError,
    ValidationError,
)
from repro.crypto.rsa import generate_keypair, rsa_verify
from repro.fhir.resources import Bundle, Observation, Patient
from repro.ingestion.pipeline import encrypt_bundle_for_upload
from tests.conftest import one_leaf_batch


class TestMsp:
    def test_enroll_and_verify(self):
        msp = MembershipServiceProvider(seed=1)
        msp.enroll("alice", "org-a")
        signature = msp.sign_as("alice", b"payload")
        assert msp.verify("alice", b"payload", signature)
        assert not msp.verify("alice", b"other", signature)

    def test_duplicate_enrollment_rejected(self):
        msp = MembershipServiceProvider(seed=1)
        msp.enroll("alice", "org-a")
        with pytest.raises(AuthenticationError):
            msp.enroll("alice", "org-b")

    def test_unknown_member(self):
        msp = MembershipServiceProvider(seed=1)
        assert not msp.verify("ghost", b"x", b"y")
        with pytest.raises(NotFoundError):
            msp.identity("ghost")

    def test_roles_and_orgs(self):
        msp = MembershipServiceProvider(seed=1)
        msp.enroll("p1", "org-a", roles={"peer"})
        msp.enroll("c1", "org-b", roles={"client"})
        assert [m.member_id for m in msp.members_with_role("peer")] == ["p1"]
        assert msp.organizations() == {"org-a", "org-b"}


# The consortium in enrolment order.
CONSORTIUM = [f"peer.{org}" for org in ORGANIZATIONS] + ["ingestion-service",
                                                         "auditor"]


def _key_seed(seed, member_id):
    """Member k of the consortium draws its key from seed * 65537 + k."""
    return seed * 65_537 + CONSORTIUM.index(member_id) + 1


def _eager_key(seed, member_id):
    """The key enrolment generated for ``member_id`` before keys waited
    for first use."""
    return generate_keypair(bits=1024, seed=_key_seed(seed, member_id))


@pytest.fixture
def keygens(monkeypatch):
    """Seeds of the member keypairs the MSP generates during the test."""
    seeds = []
    real = identity_module.generate_keypair

    def counting(*args, **kwargs):
        seeds.append(kwargs.get("seed"))
        return real(*args, **kwargs)

    monkeypatch.setattr(identity_module, "generate_keypair", counting)
    return seeds


class TestKeysOnFirstUse:
    def test_building_a_platform_or_a_sharded_network_generates_no_key(
            self, keygens):
        platform = HealthCloudPlatform(seed=7)
        sharded = ShardedBlockchainNetwork(4, seed=7)
        # Roles and organizations are read without a key.
        for channel in (platform.blockchain, *sharded.channels):
            assert len(channel.endorsing_peers()) == 4
        assert sharded.msp.organizations() == set(ORGANIZATIONS)
        assert sharded.msp.enrolment("auditor").roles == {"auditor"}
        assert keygens == []

    def test_after_the_first_flush_only_the_signers_have_keys(self,
                                                              keygens):
        platform = HealthCloudPlatform(seed=7)
        context = platform.register_tenant("acme")
        group = platform.rbac.create_group(context.tenant.tenant_id, "study")
        registration = platform.ingestion.register_client("client-1")
        platform.consent.grant("pt-1", group.group_id)
        bundle = Bundle(id="b1")
        bundle.add(Patient(id="pt-1", name={"family": "Doe"},
                           birthDate="1980-03-12", gender="female"))
        bundle.add(Observation(id="pt-1-obs", code={"text": "HbA1c"},
                               subject="Patient/pt-1",
                               valueQuantity={"value": 7.0, "unit": "%"}))
        platform.ingestion.upload(
            "client-1", encrypt_bundle_for_upload(bundle, registration),
            group.group_id)
        platform.run_ingestion()
        ledger = platform.blockchain.peers[0].ledger
        assert ledger.height >= 1
        signers = {member_id for tx in ledger.transactions()
                   for member_id, _, _ in tx.endorsements}
        assert signers
        assert sorted(keygens) == sorted(_key_seed(7, member_id)
                                         for member_id in signers)
        for member_id in signers:
            assert (platform.blockchain.msp.signing_key(member_id)
                    == _eager_key(7, member_id))
        assert len(keygens) == len(signers)  # reading them generated none

    def test_order_of_first_use_does_not_change_a_key(self, keygens):
        msp = consortium_msp(7)
        audit_signature = msp.sign_as("peer.audit-org", b"first")
        assert keygens == [_key_seed(7, "peer.audit-org")]
        sender_signature = msp.sign_as("peer.sender-org", b"second")
        assert keygens == [_key_seed(7, "peer.audit-org"),
                           _key_seed(7, "peer.sender-org")]
        for member_id, payload, signature in (
                ("peer.audit-org", b"first", audit_signature),
                ("peer.sender-org", b"second", sender_signature)):
            eager = _eager_key(7, member_id)
            assert msp.signing_key(member_id) == eager
            assert msp.identity(member_id).public_key == eager.public_key()
            assert rsa_verify(eager.public_key(), payload, signature)
        assert len(keygens) == 2

    def test_a_name_never_enrolled_gets_no_key(self, keygens):
        msp = consortium_msp(7)
        assert not msp.verify("ghost", b"x", b"y")
        assert msp.verify_batch("ghost", [(b"x", b"y"), (b"z", b"w")]) == [
            False, False]
        for read in (msp.identity, msp.signing_key, msp.enrolment):
            with pytest.raises(NotFoundError):
                read("ghost")
        with pytest.raises(AuthenticationError):
            msp.enroll("auditor", "audit-org", roles={"auditor"})
        assert keygens == []

    def test_an_unseeded_member_keeps_its_first_key(self):
        msp = MembershipServiceProvider()
        msp.enroll("alice", "org-a")
        first = msp.sign_as("alice", b"one")
        public = msp.identity("alice").public_key
        second = msp.sign_as("alice", b"two")
        assert rsa_verify(public, b"one", first)
        assert rsa_verify(public, b"two", second)
        assert msp.verify("alice", b"two", second)


class TestSelfSovereignIdentity:
    def test_pseudonyms_unlinkable_across_parties(self):
        identity = SelfSovereignIdentity("dr-jones", b"master-secret-0123456")
        nym_a = identity.pseudonym_for("hospital-a")
        nym_b = identity.pseudonym_for("hospital-b")
        assert nym_a != nym_b

    def test_pseudonym_stable_per_party(self):
        identity = SelfSovereignIdentity("dr-jones", b"master-secret-0123456")
        assert (identity.pseudonym_for("hospital-a")
                == identity.pseudonym_for("hospital-a"))

    def test_proof_verifies(self):
        identity = SelfSovereignIdentity("dr-jones", b"master-secret-0123456")
        verifier = PseudonymVerifier("hospital-a")
        verifier.register(identity)
        proof = identity.prove("hospital-a", b"challenge-1")
        assert verifier.verify(proof)

    def test_proof_bound_to_party(self):
        identity = SelfSovereignIdentity("dr-jones", b"master-secret-0123456")
        verifier_a = PseudonymVerifier("hospital-a")
        verifier_a.register(identity)
        proof_for_b = identity.prove("hospital-b", b"challenge-1")
        assert not verifier_a.verify(proof_for_b)

    def test_unregistered_pseudonym_rejected(self):
        identity = SelfSovereignIdentity("dr-jones", b"master-secret-0123456")
        verifier = PseudonymVerifier("hospital-a")
        proof = identity.prove("hospital-a", b"challenge-1")
        assert not verifier.verify(proof)

    def test_short_secret_rejected(self):
        with pytest.raises(ValueError):
            SelfSovereignIdentity("x", b"short")


@pytest.fixture
def populated_network():
    net = standard_network(seed=8, batch_size=5)
    for i in range(6):
        net.submit("ingestion-service", "provenance", "record_batch",
                   **one_leaf_batch(
                       f"audit-{i}",
                       handle=f"rec-{i % 2}", data_hash=f"{i:02x}" * 32,
                       event="received" if i % 2 == 0 else "stored",
                       actor=f"client-{i % 3}"))
    net.flush()
    return net


class TestAuditorView:
    def test_search_by_chaincode(self, populated_network):
        view = AuditorView(populated_network)
        assert len(view.search(chaincode="provenance")) == 6
        assert view.search(chaincode="consent") == []

    def test_search_by_args(self, populated_network):
        view = AuditorView(populated_network)
        findings = view.search(arg_equals={"batch_id": "audit-2"})
        assert [f.args["events"][0]["handle"] for f in findings] == ["rec-0"]
        assert view.search(arg_equals={"batch_id": "audit-9"}) == []
        # Per-event fields sit inside the batch; search_events reads them.
        assert len(view.search_events(handle="rec-0")) == 3

    def test_search_refuses_event_fields(self, populated_network):
        # Regression: no transaction carries an event field as a
        # top-level argument, so such a search found nothing, silently.
        view = AuditorView(populated_network)
        for name in ("handle", "data_hash", "event", "actor"):
            with pytest.raises(ValidationError, match="search_events"):
                view.search(chaincode="provenance",
                            arg_equals={name: "rec-0"})

    def test_record_history(self, populated_network):
        view = AuditorView(populated_network)
        assert len(view.record_history("rec-1")) == 3

    def test_integrity_verifies(self, populated_network):
        view = AuditorView(populated_network)
        assert view.verify_integrity()

    def test_tamper_detected(self, populated_network):
        import dataclasses
        view = AuditorView(populated_network)
        ledger = populated_network.peers[0].ledger
        block = ledger.block(0)
        forged_tx = dataclasses.replace(
            block.transactions[0], args={"handle": "FORGED"})
        ledger._blocks[0] = dataclasses.replace(
            block, transactions=(forged_tx,) + block.transactions[1:])
        with pytest.raises(LedgerError):
            view.verify_integrity()

    def test_empty_network_rejected(self):
        from repro.blockchain.identity import MembershipServiceProvider
        from repro.blockchain.network import BlockchainNetwork
        net = BlockchainNetwork(MembershipServiceProvider(seed=9))
        with pytest.raises(LedgerError):
            AuditorView(net)


class TestCentralizedBaseline:
    def test_same_logical_api(self):
        db = CentralizedProvenanceDb()
        db.record_event("h1", "aa", "received", "svc")
        db.record_event("h1", "bb", "stored", "svc")
        assert [e["event"] for e in db.get_history("h1")] == ["received",
                                                              "stored"]

    def test_tampering_succeeds_and_is_undetectable(self):
        db = CentralizedProvenanceDb()
        db.record_event("h1", "aa", "received", "svc")
        assert db.tamper("h1", 0, "FORGED")
        assert db.get_history("h1")[0]["hash"] == "FORGED"
        # The baseline's verification has nothing to catch it with.
        assert db.verify_integrity()

    def test_tamper_missing_target(self):
        db = CentralizedProvenanceDb()
        assert not db.tamper("ghost", 0, "x")
