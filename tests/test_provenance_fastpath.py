"""Tests for the provenance fast path: Merkle-batched endorsement,
batched pipeline processing, and per-event audit semantics.

The fast path must not weaken what Fig. 6 depends on: every per-stage
event stays individually queryable through the auditor view, carries a
verifying Merkle inclusion proof against its endorsed batch root, and a
single mutated event inside a committed batch is detected both by the
chain walk and by the event's own proof.
"""

import dataclasses

import pytest

from repro import HealthCloudPlatform
from repro.blockchain import AuditorView, chaincode, ledger, standard_network
from repro.blockchain.chaincode import (
    ProvenanceBatch,
    ProvenanceContract,
    WorldState,
    provenance_event_leaf,
)
from repro.blockchain.identity import MembershipServiceProvider
from repro.core.errors import EndorsementError, LedgerError, ValidationError
from repro.crypto.merkle import MerkleTree, verify_proof
from repro.fhir.resources import Bundle, Observation, Patient
from repro.ingestion.pipeline import IngestionStatus, encrypt_bundle_for_upload


def make_bundle(patient_id="pt-1", bundle_id="b1"):
    bundle = Bundle(id=bundle_id)
    bundle.add(Patient(id=patient_id, name={"family": "Doe"},
                       birthDate="1980-03-12", gender="female"))
    bundle.add(Observation(id=f"{patient_id}-obs", code={"text": "HbA1c"},
                           subject=f"Patient/{patient_id}",
                           valueQuantity={"value": 7.0, "unit": "%"}))
    return bundle


def build_platform(provenance_batch_size, n_bundles=6, seed=29):
    platform = HealthCloudPlatform(
        seed=seed, provenance_batch_size=provenance_batch_size)
    context = platform.register_tenant("fastpath")
    group = platform.rbac.create_group(context.tenant.tenant_id, "study")
    registration = platform.ingestion.register_client("client-1")
    jobs = []
    for i in range(n_bundles):
        pid = f"pt-{i}"
        platform.consent.grant(pid, group.group_id)
        bundle = make_bundle(patient_id=pid, bundle_id=f"b-{i}")
        jobs.append(platform.ingestion.upload(
            "client-1", encrypt_bundle_for_upload(bundle, registration),
            group.group_id))
    return platform, jobs


class TestBatchedPipeline:
    def test_all_jobs_stored_and_histories_preserved(self):
        platform, jobs = build_platform(provenance_batch_size=4)
        platform.run_ingestion()
        for job in jobs:
            assert job.status is IngestionStatus.STORED, job.reason
            history = platform.blockchain.query(
                "provenance", "get_history", handle=job.job_id)
            assert [e["event"] for e in history] == [
                "received", "validated", "deidentified", "stored"]
            # Every batched event is tagged with its batch and leaf index.
            for entry in history:
                assert entry["meta"]["batch"].startswith("provbatch-")
                assert entry["meta"]["leaf"] >= 0

    def test_one_batched_transaction_per_flush(self):
        platform, jobs = build_platform(provenance_batch_size=3, n_bundles=6)
        platform.run_ingestion()
        view = AuditorView(platform.blockchain)
        batched = view.search(chaincode="provenance", method="record_batch")
        singles = view.search(chaincode="provenance", method="record_event")
        # 6 jobs in batches of 3 -> 2 flushes -> 2 batched transactions,
        # instead of 24 individually endorsed event transactions.
        assert len(batched) == 2
        assert singles == []
        batches = platform.monitoring.metrics.counter(
            "ingestion.provenance_batches")
        events = platform.monitoring.metrics.counter(
            "ingestion.provenance_events")
        assert batches == 2
        assert events == 24  # 6 jobs x 4 per-stage events

    def test_legacy_batch_size_one_keeps_per_event_transactions(self):
        platform, jobs = build_platform(provenance_batch_size=1, n_bundles=2)
        platform.run_ingestion()
        view = AuditorView(platform.blockchain)
        assert view.search(chaincode="provenance", method="record_batch") == []
        singles = view.search(chaincode="provenance", method="record_event")
        assert len(singles) == 8  # 2 jobs x 4 per-stage events

    def test_queue_drains_in_fifo_order_with_limit(self):
        platform, jobs = build_platform(provenance_batch_size=4, n_bundles=5)
        assert platform.run_ingestion(limit=2) == 2
        statuses = [platform.ingestion.status(j.job_id)[0] for j in jobs]
        assert statuses[:2] == [IngestionStatus.STORED] * 2
        assert statuses[2:] == [IngestionStatus.UPLOADED] * 3
        assert platform.run_ingestion() == 3
        assert all(platform.ingestion.status(j.job_id)[0]
                   is IngestionStatus.STORED for j in jobs)

    def test_verdict_reports_ride_in_the_batch_flush(self):
        platform, jobs = build_platform(provenance_batch_size=4, n_bundles=2)
        platform.run_ingestion()
        for job in jobs:
            level = platform.blockchain.query(
                "privacy", "record_level_of", record_id=job.job_id)
            assert level["passed"]

    def test_failed_flush_keeps_events_until_submission_succeeds(self):
        from repro.cloudsim.faults import FaultPlan
        platform, jobs = build_platform(provenance_batch_size=16,
                                        n_bundles=3)
        plan = FaultPlan(seed=1, clock=platform.clock)
        for peer in platform.blockchain.peers[:3]:
            plan.crash_node(peer.peer_id, start_s=0.0, end_s=1_000.0)
        for peer in platform.blockchain.peers:
            peer.fault_plan = plan
        with pytest.raises(EndorsementError):
            platform.run_ingestion()
        assert all(job.status is IngestionStatus.STORED for job in jobs)
        platform.clock.advance_to(2_000.0)
        platform.run_ingestion()
        view = AuditorView(platform.blockchain)
        stored = view.search_events(event="stored")
        assert len(stored) == 3
        assert all(view.verify_event(finding) for finding in stored)
        # The privacy verdicts were kept with the batch, not dropped.
        for job in jobs:
            assert platform.blockchain.query(
                "privacy", "record_level_of", record_id=job.job_id)


class TestAuditSemantics:
    def test_every_event_individually_queryable_with_proof(self):
        platform, jobs = build_platform(provenance_batch_size=4)
        platform.run_ingestion()
        view = AuditorView(platform.blockchain)
        for job in jobs:
            findings = view.search_events(handle=job.job_id)
            assert [f.event for f in findings] == [
                "received", "validated", "deidentified", "stored"]
            for finding in findings:
                proof = view.event_proof(finding)
                assert proof is not None
                assert view.verify_event(finding)

    def test_search_events_filters(self):
        platform, jobs = build_platform(provenance_batch_size=4, n_bundles=3)
        platform.run_ingestion()
        view = AuditorView(platform.blockchain)
        stored = view.search_events(event="stored")
        assert len(stored) == 3
        by_actor = view.search_events(actor="client-1")
        assert len(by_actor) == 12

    def test_tampered_batch_event_detected_twice(self):
        """Mutating one event inside a committed batch must fail both the
        chain walk and that event's Merkle inclusion proof."""
        platform, jobs = build_platform(provenance_batch_size=4)
        platform.run_ingestion()
        view = AuditorView(platform.blockchain)
        assert view.verify_integrity()

        # Admin-level tamper: rewrite one event's hash inside the stored
        # batched transaction on one peer's ledger copy.
        ledger = platform.blockchain.peers[0].ledger
        target = None
        for height, block in enumerate(ledger.blocks()):
            for tx_index, tx in enumerate(block.transactions):
                if tx.method == "record_batch":
                    target = (height, tx_index, tx)
                    break
            if target:
                break
        assert target is not None
        height, tx_index, tx = target
        forged_events = [dict(e) for e in tx.args["events"]]
        forged_events[1]["data_hash"] = "f0" * 32
        forged_tx = dataclasses.replace(
            tx, args={**tx.args, "events": forged_events})
        block = ledger.block(height)
        txs = list(block.transactions)
        txs[tx_index] = forged_tx
        ledger._blocks[height] = dataclasses.replace(
            block, transactions=tuple(txs))

        # Detection 1: the hash chain no longer verifies.
        with pytest.raises(LedgerError):
            ledger.verify()

        # Detection 2: the mutated event's own inclusion proof fails
        # against the endorsed batch root.
        findings = view.search_events(handle=forged_events[1]["handle"])
        mutated = [f for f in findings if f.data_hash == "f0" * 32]
        assert mutated and not view.verify_event(mutated[0])
        # Proof-level check: the forged leaf cannot verify against the
        # root the endorsers signed.
        recorded_root = bytes.fromhex(forged_tx.args["merkle_root"])
        forged_tree = MerkleTree(
            [provenance_event_leaf(e) for e in forged_events])
        assert not verify_proof(recorded_root,
                                provenance_event_leaf(forged_events[1]),
                                forged_tree.proof(1))
        # Untampered sibling events still carry valid anchors on honest
        # peers: replace nothing there, so their ledgers stay verifiable.
        platform.blockchain.peers[1].ledger.verify()

    def test_endorsers_reject_wrong_merkle_root(self):
        network = standard_network(seed=5)
        events = [{"handle": "h1", "data_hash": "aa" * 32,
                   "event": "received", "actor": "c", "metadata": {}}]
        with pytest.raises(EndorsementError):
            network.submit("ingestion-service", "provenance", "record_batch",
                           batch_id="bad", merkle_root="00" * 32,
                           events=events)
        # The rejection is the chaincode's root check, visible in the logs.
        failures = network.monitoring.metrics.counter(
            "blockchain.endorsement_failures")
        assert failures >= 2  # every endorsing peer refused to sign

    def test_record_batch_requires_events(self):
        from repro.blockchain.chaincode import ProvenanceContract, WorldState
        with pytest.raises(ValidationError):
            ProvenanceContract().invoke(WorldState(), "record_batch",
                                        {"batch_id": "b", "merkle_root": "",
                                         "events": []})


class TestSubmitBatch:
    @staticmethod
    def _requests(n, prefix="h"):
        return [("provenance", "record_event",
                 {"handle": f"{prefix}{i}", "data_hash": "aa" * 32,
                  "event": "received", "actor": "c"}) for i in range(n)]

    def test_batch_endorses_and_commits(self):
        network = standard_network(seed=8, batch_size=10)
        txs = network.submit_batch("ingestion-service", self._requests(5))
        assert len(txs) == 5
        for tx in txs:
            assert len(tx.endorsements) == network.policy.min_endorsements
            orgs = {network.msp.identity(member_id).organization
                    for member_id, _ in tx.endorsements}
            assert len(orgs) == network.policy.min_organizations
        network.flush()
        assert network.peers_converged()
        assert len(network.peers[0].ledger.transactions()) == 5

    def test_empty_batch_is_noop(self):
        network = standard_network(seed=8)
        assert network.submit_batch("ingestion-service", []) == []

    def test_batch_amortizes_simulated_latency(self):
        per_tx = standard_network(seed=9)
        for chaincode, method, args in self._requests(6):
            per_tx.submit("ingestion-service", chaincode, method, **args)
        batched = standard_network(seed=9)
        batched.submit_batch("ingestion-service", self._requests(6))
        # One endorsement round-trip per visited peer for the whole batch
        # vs one per transaction per endorsement; the visits stop once
        # every transaction meets the policy.
        assert batched.clock.now < per_tx.clock.now
        assert batched.clock.now == pytest.approx(
            batched.policy.min_endorsements
            * batched.ENDORSE_LATENCY)

    def test_batch_policy_enforced(self):
        from repro.blockchain.chaincode import ProvenanceContract
        from repro.blockchain.identity import MembershipServiceProvider
        from repro.blockchain.network import (
            BlockchainNetwork,
            EndorsementPolicy,
            Peer,
        )
        msp = MembershipServiceProvider(seed=31)
        network = BlockchainNetwork(msp, policy=EndorsementPolicy(2, 2))
        msp.enroll("peer.solo", "solo-org", roles={"peer"})
        network.add_peer(Peer("peer.solo", "solo-org", msp,
                              {"provenance": ProvenanceContract()}))
        msp.enroll("ingestion-service", "solo-org")
        with pytest.raises(EndorsementError):
            network.submit_batch("ingestion-service", self._requests(2))
        assert network.orderer.pending_count == 0  # nothing half-ordered


class TestPeersDoNotRepeatPureWork:
    """However many peers commit a block: each transaction is encoded
    once, a batch's leaves are computed only by its builder and its
    endorsers, and each endorser's signatures are checked once."""

    @staticmethod
    def _batch_request(n, batch_id="b-1"):
        batch = ProvenanceBatch()
        for i in range(n):
            batch.append(handle=f"h{i}", data_hash="aa" * 32,
                         event="received", actor="c")
        return batch.request(batch_id)

    @staticmethod
    def _counting(monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def test_each_transaction_is_encoded_once(self, monkeypatch):
        network = standard_network(seed=8, batch_size=10)
        requests = [self._batch_request(8)] + TestSubmitBatch._requests(3)
        encodings = self._counting(monkeypatch, ledger, "canonical_json")
        txs = network.submit_batch("ingestion-service", requests)
        network.flush()
        assert len(network.peers) == 4
        assert len(encodings) == len(txs) == 4
        assert network.peers_converged()

    def test_committing_peers_do_not_recompute_leaves(self, monkeypatch):
        network = standard_network(seed=8)
        request = self._batch_request(8)
        leaves = self._counting(monkeypatch, chaincode,
                                "provenance_event_leaf")
        network.submit_batch("ingestion-service", [request])
        assert len(leaves) == 2 * 8  # each endorser checks the root
        network.flush()
        assert len(leaves) == 2 * 8
        assert network.peers_converged()
        assert network.query("provenance", "get_history", handle="h3")[0][
            "meta"] == {"batch": "b-1", "leaf": 3}

    def test_one_signature_check_per_endorser_per_block(self,
                                                         monkeypatch):
        network = standard_network(seed=8)
        txs = network.submit_batch("ingestion-service",
                                   TestSubmitBatch._requests(3))
        checks = self._counting(monkeypatch, MembershipServiceProvider,
                                "verify_batch")
        network.flush()
        endorsers = {member_id for tx in txs
                     for member_id, _ in tx.endorsements}
        assert sorted(member_id for _, member_id, _ in checks) == sorted(
            endorsers)
        assert all(peer.ledger.height == 1 for peer in network.peers)
        assert network.peers_converged()

    def test_a_bad_signature_fails_on_every_peer(self):
        network = standard_network(seed=8, batch_size=1)
        tx = network.submit("ingestion-service", "provenance",
                            "record_event", handle="forged",
                            data_hash="aa" * 32, event="received",
                            actor="c")
        (member_id, signature), other = tx.endorsements
        flipped = bytes([signature[0] ^ 1]) + signature[1:]
        network.orderer._pending[-1] = tx.with_endorsements(
            [(member_id, flipped), other])
        network.flush()
        assert all(peer.ledger.height == 1 for peer in network.peers)
        assert not any(peer.query("provenance", "get_history",
                                  handle="forged")
                       for peer in network.peers)

    def test_an_in_place_rewrite_fails_the_chain_walk(self):
        """The kept payload serves the write path only; the audit walk
        re-encodes, so it still sees a committed event changed in place."""
        network = standard_network(seed=8)
        network.submit_batch("ingestion-service", [self._batch_request(4)])
        network.flush()
        chain = network.peers[0].ledger
        assert chain.verify()
        [tx] = chain.block(0).transactions
        tx.args["events"][2]["data_hash"] = "f0" * 32
        with pytest.raises(LedgerError):
            chain.verify()

    def test_apply_skips_the_argument_check(self):
        """Committing peers apply a batch the endorsers checked; a direct
        ``invoke`` still checks."""
        _, _, args = self._batch_request(2)
        bad = {**args, "merkle_root": "00" * 32}
        contract = ProvenanceContract()
        with pytest.raises(ValidationError):
            contract.invoke(WorldState(), "record_batch", bad)
        assert contract.apply(WorldState(), "record_batch", bad) == [0, 0]


class TestEndorsementFailureVisibility:
    def _network_with_broken_peer(self):
        from repro.blockchain.chaincode import Chaincode, ProvenanceContract
        from repro.blockchain.identity import MembershipServiceProvider
        from repro.blockchain.network import (
            BlockchainNetwork,
            EndorsementPolicy,
            Peer,
        )

        class BrokenContract(Chaincode):
            NAME = "provenance"

            def invoke(self, state, method, args):
                raise RuntimeError("endorser crashed")

        msp = MembershipServiceProvider(seed=41)
        network = BlockchainNetwork(msp, policy=EndorsementPolicy(2, 2),
                                    batch_size=1)
        good = {"provenance": ProvenanceContract()}
        for org in ("org-a", "org-b", "org-c"):
            msp.enroll(f"peer.{org}", org, roles={"peer"})
        network.add_peer(Peer("peer.org-a", "org-a", msp, good))
        network.add_peer(Peer("peer.org-b", "org-b", msp,
                              {"provenance": BrokenContract()}))
        network.add_peer(Peer("peer.org-c", "org-c", msp, good))
        msp.enroll("client", "org-a")
        return network

    def test_failures_logged_and_counted(self):
        network = self._network_with_broken_peer()
        network.submit("client", "provenance", "record_event", handle="h",
                       data_hash="aa" * 32, event="received", actor="c")
        metrics = network.monitoring.metrics
        assert metrics.counter("blockchain.endorsement_failures") == 1
        assert metrics.counter(
            "blockchain.endorsement_failures.peer.org-b") == 1
        warnings = network.monitoring.logs.entries(stream="blockchain",
                                                   level="WARN")
        assert len(warnings) == 1
        assert "peer.org-b" in warnings[0].message

    def test_failures_counted_in_batches_too(self):
        network = self._network_with_broken_peer()
        network.submit_batch("client", TestSubmitBatch._requests(3))
        metrics = network.monitoring.metrics
        assert metrics.counter("blockchain.endorsement_failures") == 3
