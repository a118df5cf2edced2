"""Tests for the permissioned network: endorsement, ordering, commit."""

from collections import Counter

import pytest

from repro.blockchain import standard_network
from repro.blockchain.identity import MembershipServiceProvider
from repro.blockchain.chaincode import ProvenanceContract
from repro.blockchain.ledger import Endorsement
from repro.blockchain.network import (
    ORGANIZATIONS,
    BlockchainNetwork,
    EndorsementPolicy,
    OrderingService,
    Peer,
)
from repro.cloudsim.faults import FaultPlan
from repro.core.errors import EndorsementError, LedgerError
from repro.crypto.merkle import root_from_path
from repro.crypto.rsa import RsaPrivateKey
from tests.conftest import one_leaf_batch


@pytest.fixture(scope="module")
def network():
    net = standard_network(seed=2, batch_size=4)
    return net


class TestEndorsementPolicy:
    def test_satisfied(self):
        policy = EndorsementPolicy(2, 2)
        assert policy.satisfied_by(["org-a", "org-b"])

    def test_insufficient_count(self):
        assert not EndorsementPolicy(3, 2).satisfied_by(["a", "b"])

    def test_insufficient_orgs(self):
        assert not EndorsementPolicy(2, 2).satisfied_by(["a", "a"])

    @pytest.mark.parametrize("counts", [(0, 0), (0, 1), (1, 0), (-1, 2)])
    def test_policy_must_require_an_endorsement(self, counts):
        with pytest.raises(LedgerError):
            EndorsementPolicy(*counts)


class TestTransactionFlow:
    def test_submit_gathers_endorsements(self, network):
        tx = network.submit("ingestion-service", "provenance",
                            "record_batch",
                            **one_leaf_batch(handle="flow-1",
                                             data_hash="aa" * 32,
                                             event="received", actor="client"))
        # The client stops as soon as the policy holds.
        assert len(tx.endorsements) == network.policy.min_endorsements
        orgs = {network.msp.identity(member_id).organization
                for member_id, _, _ in tx.endorsements}
        assert len(orgs) == network.policy.min_organizations

    def test_flush_commits_to_all_peers(self, network):
        network.submit("ingestion-service", "provenance", "record_batch",
                       **one_leaf_batch(handle="flow-2", data_hash="bb" * 32,
                                        event="received", actor="client"))
        network.flush()
        assert network.peers_converged()
        history = network.query("provenance", "get_history", handle="flow-2")
        assert len(history) == 1

    def test_batching(self):
        net = standard_network(seed=3, batch_size=3)
        for i in range(7):
            net.submit("ingestion-service", "provenance", "record_batch",
                       **one_leaf_batch(handle=f"b{i}", data_hash="cc" * 32,
                                        event="received", actor="c"))
        blocks = net.flush()
        # 7 transactions at batch size 3 -> blocks of 3, 3, 1.
        assert [len(b.transactions) for b in blocks] == [3, 3, 1]

    def test_unknown_chaincode_method_fails_endorsement(self):
        net = standard_network(seed=4)
        with pytest.raises(EndorsementError):
            net.submit("ingestion-service", "provenance", "nonexistent",
                       foo=1)

    def test_strict_policy_unmet(self):
        msp = MembershipServiceProvider(seed=5)
        net = BlockchainNetwork(msp, policy=EndorsementPolicy(3, 3))
        contracts = {"provenance": ProvenanceContract()}
        msp.enroll("peer.only", "solo-org", roles={"peer"})
        net.add_peer(Peer("peer.only", "solo-org", msp, contracts))
        msp.enroll("client", "solo-org")
        with pytest.raises(EndorsementError):
            net.submit("client", "provenance", "record_batch",
                       **one_leaf_batch(handle="h", data_hash="aa" * 32,
                                        event="received", actor="c"))

    def test_ledgers_identical_across_peers(self, network):
        network.invoke("ingestion-service", "provenance", "record_batch",
                       **one_leaf_batch(handle="conv", data_hash="dd" * 32,
                                        event="received", actor="c"))
        tips = {p.ledger.tip_hash for p in network.peers}
        assert len(tips) == 1

    def test_endorsement_simulation_does_not_mutate_state(self, network):
        before = network.peers[0].state.snapshot_hash()
        network.submit("ingestion-service", "provenance", "record_batch",
                       **one_leaf_batch(handle="sim-only", data_hash="ee" * 32,
                                        event="received", actor="c"))
        # Not flushed yet: endorsement simulation must not have written.
        assert network.peers[0].state.snapshot_hash() == before
        network.flush()
        assert network.peers[0].state.snapshot_hash() != before

    def test_forged_endorsement_not_applied(self):
        net = standard_network(seed=6, batch_size=1)
        tx = net.submit("ingestion-service", "provenance", "record_batch",
                        **one_leaf_batch(handle="forge", data_hash="aa" * 32,
                                         event="received", actor="c"))
        # Replace all endorsement signatures with junk before ordering.
        forged = tx.with_endorsements(
            [e._replace(signature=b"\x00" * len(e.signature))
             for e in tx.endorsements])
        net.orderer._pending[-1] = forged
        net.flush()
        history = net.query("provenance", "get_history", handle="forge")
        assert history == []  # validation dropped the forged transaction


class TestCommitOrder:
    def test_a_refused_block_changes_no_state(self):
        """The ledger checks a block before any transaction is applied."""
        import dataclasses

        from repro.blockchain.ledger import build_block
        net = standard_network(seed=3, batch_size=10)
        tx = net.submit("ingestion-service", "provenance", "record_batch",
                        **one_leaf_batch(handle="h1", data_hash="aa" * 32,
                                         event="received", actor="c"))
        peer = net.peers[0]
        block = build_block(peer.ledger.height, peer.ledger.tip_hash, 1.0,
                            [tx])
        forged = dataclasses.replace(block, merkle_root="00" * 32)
        with pytest.raises(LedgerError):
            peer.commit_block(forged, net.policy)
        assert peer.ledger.height == 0
        assert peer.query("provenance", "get_history", handle="h1") == []
        assert peer.commit_block(block, net.policy) == 1
        assert peer.query("provenance", "get_history", handle="h1")

    def test_a_block_repeating_its_last_transaction_is_refused(self):
        """A copy of a 3-transaction block with its last transaction
        repeated does not keep the block's Merkle root (no node is paired
        with itself), so a peer syncing from a source that serves it
        refuses it before applying anything."""
        import dataclasses

        net = standard_network(seed=5, batch_size=3)
        for i in range(3):
            net.submit("ingestion-service", "provenance", "record_batch",
                       **one_leaf_batch(handle=f"r{i}", data_hash="aa" * 32,
                                        event="received", actor="c"))
        net.flush()
        source = net.peers[-1]
        block = source.ledger.block(0)
        assert len(block.transactions) == 3
        source.ledger._blocks[0] = dataclasses.replace(
            block, transactions=block.transactions + block.transactions[-1:])
        net.msp.enroll("peer.repeat-org", "repeat-org", roles={"peer"})
        fresh = Peer("peer.repeat-org", "repeat-org", net.msp,
                     {"provenance": ProvenanceContract()})
        with pytest.raises(LedgerError,
                           match="Merkle root mismatch at height 0"):
            fresh.sync_from(source, net.policy)
        assert fresh.ledger.height == 0
        assert fresh.query("provenance", "get_history", handle="r2") == []


class TestEndorserFailure:
    def test_one_failing_endorser_tolerated(self):
        """A crashing endorser just doesn't sign; policy still satisfiable."""
        from repro.blockchain.chaincode import Chaincode

        class BrokenContract(Chaincode):
            NAME = "provenance"

            def invoke(self, state, method, args):
                raise RuntimeError("endorser crashed")

        msp = MembershipServiceProvider(seed=21)
        net = BlockchainNetwork(msp, policy=EndorsementPolicy(2, 2),
                                batch_size=1)
        good = {"provenance": ProvenanceContract()}
        for org in ("org-a", "org-b", "org-c"):
            msp.enroll(f"peer.{org}", org, roles={"peer"})
        net.add_peer(Peer("peer.org-a", "org-a", msp, good))
        net.add_peer(Peer("peer.org-b", "org-b", msp,
                          {"provenance": BrokenContract()}))
        net.add_peer(Peer("peer.org-c", "org-c", msp, good))
        msp.enroll("client", "org-a")
        tx = net.submit("client", "provenance", "record_batch",
                        **one_leaf_batch(handle="h", data_hash="aa" * 32,
                                         event="received", actor="c"))
        # Only the two healthy orgs endorsed.
        assert len(tx.endorsements) == 2
        net.flush()
        assert net.peers[0].query("provenance", "get_history",
                                  handle="h")

    def test_too_many_failures_block_policy(self):
        from repro.blockchain.chaincode import Chaincode

        class BrokenContract(Chaincode):
            NAME = "provenance"

            def invoke(self, state, method, args):
                raise RuntimeError("down")

        msp = MembershipServiceProvider(seed=22)
        net = BlockchainNetwork(msp, policy=EndorsementPolicy(2, 2))
        msp.enroll("peer.org-a", "org-a", roles={"peer"})
        msp.enroll("peer.org-b", "org-b", roles={"peer"})
        net.add_peer(Peer("peer.org-a", "org-a", msp,
                          {"provenance": ProvenanceContract()}))
        net.add_peer(Peer("peer.org-b", "org-b", msp,
                          {"provenance": BrokenContract()}))
        msp.enroll("client", "org-a")
        with pytest.raises(EndorsementError):
            net.submit("client", "provenance", "record_batch",
                       **one_leaf_batch(handle="h", data_hash="aa" * 32,
                                        event="received", actor="c"))


class TestPeerSync:
    def test_late_joining_peer_catches_up(self):
        net = standard_network(seed=11, batch_size=5)
        for i in range(12):
            net.submit("ingestion-service", "provenance", "record_batch",
                       **one_leaf_batch(handle=f"s{i}", data_hash="aa" * 32,
                                        event="received", actor="c"))
        net.flush()
        # A fresh peer from a new org joins after the fact.
        contracts = {"provenance": ProvenanceContract()}
        net.msp.enroll("peer.late-org", "late-org", roles={"peer"})
        late = Peer("peer.late-org", "late-org", net.msp, contracts)
        applied = late.sync_from(net.peers[0], net.policy)
        assert applied == net.peers[0].ledger.height
        assert late.ledger.tip_hash == net.peers[0].ledger.tip_hash
        assert late.query("provenance", "get_history", handle="s3")

    def test_sync_validates_blocks(self):
        import dataclasses
        net = standard_network(seed=12, batch_size=2)
        for i in range(4):
            net.submit("ingestion-service", "provenance", "record_batch",
                       **one_leaf_batch(handle=f"v{i}", data_hash="bb" * 32,
                                        event="received", actor="c"))
        net.flush()
        source = net.peers[0]
        # Tamper with the source's chain; a syncing peer must reject it.
        block = source.ledger.block(0)
        forged_tx = dataclasses.replace(block.transactions[0],
                                        args={"handle": "FORGED"})
        source.ledger._blocks[0] = dataclasses.replace(
            block, transactions=(forged_tx,) + block.transactions[1:])
        contracts = {"provenance": ProvenanceContract()}
        net.msp.enroll("peer.sync-org", "sync-org", roles={"peer"})
        fresh = Peer("peer.sync-org", "sync-org", net.msp, contracts)
        with pytest.raises(LedgerError):
            fresh.sync_from(source, net.policy)

    def test_partial_sync_resumes(self):
        net = standard_network(seed=13, batch_size=2)
        for i in range(4):
            net.submit("ingestion-service", "provenance", "record_batch",
                       **one_leaf_batch(handle=f"p{i}", data_hash="cc" * 32,
                                        event="received", actor="c"))
        net.flush()
        contracts = {"provenance": ProvenanceContract()}
        net.msp.enroll("peer.resume-org", "resume-org", roles={"peer"})
        fresh = Peer("peer.resume-org", "resume-org", net.msp, contracts)
        fresh.sync_from(net.peers[0], net.policy)
        # More activity, then a second incremental sync.
        net.submit("ingestion-service", "provenance", "record_batch",
                   **one_leaf_batch(handle="p-new", data_hash="dd" * 32,
                                    event="received", actor="c"))
        net.flush()
        applied = fresh.sync_from(net.peers[0], net.policy)
        assert applied == 1
        assert fresh.ledger.tip_hash == net.peers[0].ledger.tip_hash


class TestOrderingService:
    def test_cut_holds_at_most_batch_size(self):
        orderer = OrderingService(batch_size=3)
        from repro.blockchain.ledger import GENESIS_HASH, Transaction
        assert orderer.cut_block(0, GENESIS_HASH) is None
        for i in range(4):
            orderer.submit(Transaction(f"t{i}", "cc", "m", {}, "s", 0.0))
        first = orderer.cut_block(0, GENESIS_HASH)
        assert [tx.tx_id for tx in first.transactions] == ["t0", "t1", "t2"]
        second = orderer.cut_block(1, first.block_hash)
        assert [tx.tx_id for tx in second.transactions] == ["t3"]
        assert orderer.cut_block(2, second.block_hash) is None

    def test_invalid_batch_size(self):
        with pytest.raises(LedgerError):
            OrderingService(batch_size=0)

    def test_query_without_peers(self):
        msp = MembershipServiceProvider(seed=7)
        net = BlockchainNetwork(msp)
        with pytest.raises(LedgerError):
            net.query("provenance", "get_history", handle="x")


class TestCopyOnWriteState:
    """Regression tests: the scratch state must shadow the base through a
    tuple probe, not an ``is not None`` check, and read through to it."""

    def _states(self):
        from repro.blockchain.chaincode import CopyOnWriteState, WorldState
        base = WorldState()
        base.put("k", "committed-value")
        base.put("other", 7)
        return base, CopyOnWriteState(base)

    def test_lookup_falls_through_to_base(self):
        from repro.blockchain.chaincode import CopyOnWriteState
        _, scratch = self._states()
        assert scratch.lookup("k") == (True, "committed-value")
        assert scratch.lookup("never-existed") == (False, None)
        # 2PC prepare stacks an overlay on the endorsement overlay.
        assert CopyOnWriteState(scratch).lookup("k") == (
            True, "committed-value")

    def test_simulated_none_write_shadows_base(self):
        base, scratch = self._states()
        scratch.put("k", None)
        assert scratch.get("k") is None
        assert base.get("k") == "committed-value"

    def test_simulated_delete_shadows_base(self):
        base, scratch = self._states()
        assert scratch.delete("k") is True
        assert scratch.get("k") is None
        assert scratch.lookup("k") == (False, None)
        assert base.get("k") == "committed-value"

    def test_delete_of_missing_key_reports_absent(self):
        _, scratch = self._states()
        assert scratch.delete("never-existed") is False

    def test_delete_of_local_write_reports_present(self):
        _, scratch = self._states()
        scratch.put("fresh", None)  # even a stored None counts as present
        assert scratch.delete("fresh") is True

    def test_put_after_delete_restores_visibility(self):
        _, scratch = self._states()
        scratch.delete("k")
        scratch.put("k", "resurrected")
        assert scratch.get("k") == "resurrected"

    def test_keys_with_prefix_excludes_deleted(self):
        base, scratch = self._states()
        scratch.put("k2", 1)
        scratch.delete("k")
        assert scratch.keys_with_prefix("k") == ["k2"]
        assert base.keys_with_prefix("k") == ["k"]


class TestBatchVerifiedCommit:
    def test_batch_and_per_signature_commit_agree_on_tampered_block(
            self, reference_validate):
        """A forged signature in a block invalidates exactly that tx, as
        the per-signature reference validation says it must
        (screening falls back per-signature)."""
        import dataclasses

        net = standard_network(seed=31, batch_size=4)
        for i in range(4):
            net.submit("ingestion-service", "provenance",
                       "record_batch",
                       **one_leaf_batch(handle=f"bv{i}", data_hash="aa" * 32,
                                        event="received", actor="c"))
        # Tamper with one endorsement of one pending transaction.
        victim = net.orderer._pending[2]
        first = victim.endorsements[0]
        bad = bytes([first.signature[0] ^ 0xFF]) + first.signature[1:]
        net.orderer._pending[2] = dataclasses.replace(
            victim, endorsements=(first._replace(signature=bad),)
            + victim.endorsements[1:])
        reference = [reference_validate(net.peers[0], tx, net.policy)
                     for tx in net.orderer._pending]
        assert reference == [True, True, False, True]
        net.flush()
        committed = [bool(net.query("provenance", "get_history",
                                    handle=f"bv{i}")) for i in range(4)]
        assert committed == reference
        assert net.peers_converged()


class TestVisitSignature:
    """A visited peer signs the Merkle root of what it endorsed, once."""

    @staticmethod
    def _requests(n, prefix="visit"):
        return [("provenance", "record_batch",
                 one_leaf_batch(handle=f"{prefix}-{i}", data_hash="aa" * 32,
                                event="received", actor="c"))
                for i in range(n)]

    @staticmethod
    def _commit_agrees_with_reference(net, reference_validate):
        """Flush, and return per pending tx whether it committed, after
        checking that this is what the per-endorsement reference says."""
        pending = list(net.orderer._pending)
        reference = [[reference_validate(peer, tx, net.policy)
                      for peer in net.peers] for tx in pending]
        assert all(len(set(verdicts)) == 1 for verdicts in reference)
        net.flush()
        committed = [bool(net.query("provenance", "get_history",
                                    handle=tx.args["events"][0]["handle"]))
                     for tx in pending]
        assert committed == [verdicts[0] for verdicts in reference]
        assert net.peers_converged()
        return committed

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_one_private_op_per_endorsing_peer(self, monkeypatch, k):
        net = standard_network(seed=3)
        signing_keys = []
        private_op = RsaPrivateKey.private_op

        def counted(key, value, use_crt=True):
            signing_keys.append(key)
            return private_op(key, value, use_crt)

        monkeypatch.setattr(RsaPrivateKey, "private_op", counted)
        txs = net.submit_batch("ingestion-service", self._requests(k))
        assert len(signing_keys) == net.policy.min_endorsements
        assert len(set(signing_keys)) == net.policy.min_endorsements
        for tx in txs:
            assert [e.signature for e in tx.endorsements] == [
                e.signature for e in txs[0].endorsements]
        net.flush()
        assert len(net.peers[0].ledger.transactions()) == k
        assert net.peers_converged()

    @pytest.mark.parametrize("alteration", ["sibling", "side", "shorter"])
    def test_an_altered_path_fails_like_a_forged_signature(
            self, reference_validate, alteration):
        net = standard_network(seed=31, batch_size=8)
        net.submit_batch("ingestion-service", self._requests(4, "path"))
        victim = net.orderer._pending[2]
        first = victim.endorsements[0]
        (sibling, is_left), *rest = first.path
        path = {"sibling": ((bytes([sibling[0] ^ 1]) + sibling[1:],
                             is_left), *rest),
                "side": ((sibling, not is_left), *rest),
                "shorter": first.path[:-1]}[alteration]
        net.orderer._pending[2] = victim.with_endorsements(
            (first._replace(path=path),) + victim.endorsements[1:])
        assert self._commit_agrees_with_reference(
            net, reference_validate) == [True, True, False, True]

    def test_an_endorsement_moved_outside_its_visit_fails(
            self, reference_validate):
        net = standard_network(seed=31, batch_size=8)
        # Three batches of two: the first and third visit the same two
        # peers (the rotation moves two places per batch of two).
        for batch in range(3):
            net.submit_batch("ingestion-service",
                             self._requests(2, f"moved-{batch}"))
        pending = net.orderer._pending
        moved = pending[0].endorsements[0]
        target = pending[4]
        assert target.endorsements[0].member_id == moved.member_id
        pending[4] = target.with_endorsements(
            (moved,) + target.endorsements[1:])
        assert self._commit_agrees_with_reference(
            net, reference_validate) == [True, True, True, True, False, True]


class TestEarlyStopEndorsement:
    """The client asks peers in rotated order and stops at the policy."""

    @staticmethod
    def _submit(net, handle):
        return net.submit("ingestion-service", "provenance", "record_batch",
                          **one_leaf_batch(handle=handle, data_hash="aa" * 32,
                                           event="received", actor="c"))

    @staticmethod
    def _requests(n):
        return [("provenance", "record_batch",
                 one_leaf_batch(handle=f"batch-{i}", data_hash="aa" * 32,
                                event="received", actor="c"))
                for i in range(n)]

    @staticmethod
    def _orgs(net, tx):
        return [net.msp.identity(member_id).organization
                for member_id, _, _ in tx.endorsements]

    def test_quorum_of_two_from_two_organizations(self):
        net = standard_network(seed=3, batch_size=4)
        txs = [self._submit(net, f"single-{i}") for i in range(3)]
        txs += net.submit_batch("ingestion-service", self._requests(5))
        for tx in txs:
            orgs = self._orgs(net, tx)
            assert len(orgs) == 2 and len(set(orgs)) == 2
        net.flush()
        assert net.peers_converged()
        assert len(net.peers[0].ledger.transactions()) == 8

    def test_rotation_spreads_endorsements_evenly(self):
        net = standard_network(seed=3)
        counts = Counter()
        for i in range(4):
            counts.update(self._orgs(net, self._submit(net, f"rot-{i}")))
        assert counts == {org: 2 for org in ORGANIZATIONS}

    def test_crashed_peer_is_asked_then_skipped(self):
        net = standard_network(seed=3)
        plan = FaultPlan(seed=1, clock=net.clock)
        down = net.endorsing_peers()[0]  # first in line for tx 1
        plan.crash_node(down.peer_id, start_s=0.0, end_s=1_000.0)
        for peer in net.peers:
            peer.fault_plan = plan
        tx = self._submit(net, "crash")
        orgs = self._orgs(net, tx)
        assert len(orgs) == 2 and len(set(orgs)) == 2
        assert down.organization not in orgs
        metrics = net.monitoring.metrics
        assert metrics.counter(
            f"blockchain.endorsement_failures.{down.peer_id}") == 1
        assert metrics.counter("blockchain.endorsement_failures") == 1

    def test_chaincode_rejection_asks_every_peer(self):
        net = standard_network(seed=4)
        with pytest.raises(EndorsementError):
            net.submit("ingestion-service", "provenance", "nonexistent",
                       foo=1)
        metrics = net.monitoring.metrics
        assert metrics.counter("blockchain.endorsement_failures") == 4
        for peer in net.endorsing_peers():
            assert metrics.counter(
                f"blockchain.endorsement_failures.{peer.peer_id}") == 1
        assert net.orderer.pending_count == 0

    def test_full_policy_still_collects_every_peer(self):
        net = standard_network(seed=3, policy=EndorsementPolicy(4, 4))
        txs = [self._submit(net, "all-four")]
        txs += net.submit_batch("ingestion-service", self._requests(3))
        for tx in txs:
            assert sorted(self._orgs(net, tx)) == sorted(ORGANIZATIONS)

    def test_batch_costs_two_trips(self):
        net = standard_network(seed=3)
        net.submit_batch("ingestion-service", self._requests(6))
        assert net.clock.now == 2 * net.ENDORSE_LATENCY


class TestSingleSubmitIsABatchOfOne:
    """``submit`` runs the one endorsement loop, so a single proposal
    pays a trip for every peer it visits, a down one included."""

    @staticmethod
    def _crashed(policy=None):
        net = standard_network(seed=3, policy=policy)
        plan = FaultPlan(seed=1, clock=net.clock)
        plan.crash_node("peer.sender-org", start_s=0.0, end_s=1_000.0)
        for peer in net.peers:
            peer.fault_plan = plan
        return net

    def test_a_down_peer_costs_its_trip(self):
        net = self._crashed()
        # peer.sender-org is first in the first transaction's rotation.
        assert net.endorsing_peers()[0].member_id == "peer.sender-org"
        tx = net.submit("ingestion-service", "provenance", "record_batch",
                        **one_leaf_batch(handle="h", data_hash="aa" * 32,
                                         event="received", actor="c"))
        assert net.clock.now == 3 * net.ENDORSE_LATENCY
        assert [net.msp.enrolment(member).organization
                for member, _, _ in tx.endorsements] == [
            "provider-org", "data-protection-org"]

    def test_an_unmeetable_policy_still_raises(self):
        net = self._crashed(policy=EndorsementPolicy(4, 4))
        with pytest.raises(EndorsementError):
            net.submit("ingestion-service", "provenance", "record_batch",
                       **one_leaf_batch(handle="h", data_hash="aa" * 32,
                                        event="received", actor="c"))
        assert net.orderer.pending_count == 0


class TestCommitTimeCounting:
    """Commit-time validation counts each member once, and only members
    enrolled with the ``peer`` role."""

    @staticmethod
    def _applied_anywhere(net, handle):
        return [peer.peer_id for peer in net.peers
                if peer.query("provenance", "get_history", handle=handle)]

    def test_repeated_endorser_counts_once(self, reference_validate):
        msp = MembershipServiceProvider(seed=21)
        net = BlockchainNetwork(msp, policy=EndorsementPolicy(3, 2),
                                batch_size=1)
        contracts = {"provenance": ProvenanceContract()}
        for org in ("org-a", "org-b", "org-c"):
            msp.enroll(f"peer.{org}", org, roles={"peer"})
            net.add_peer(Peer(f"peer.{org}", org, msp, contracts))
        msp.enroll("client", "org-a")
        tx = net.submit("client", "provenance", "record_batch",
                        **one_leaf_batch(handle="dup", data_hash="aa" * 32,
                                         event="received", actor="c"))
        first, second = tx.endorsements[0], tx.endorsements[1]
        stuffed = tx.with_endorsements([first, first, second])
        net.orderer._pending[-1] = stuffed
        assert not any(reference_validate(peer, stuffed, net.policy)
                       for peer in net.peers)
        net.flush()
        assert self._applied_anywhere(net, "dup") == []

    def test_client_and_auditor_signatures_do_not_count(
            self, reference_validate):
        net = standard_network(seed=6, batch_size=1)
        tx = net.submit("ingestion-service", "provenance", "record_batch",
                        **one_leaf_batch(handle="non-peer",
                                         data_hash="aa" * 32, event="received",
                                         actor="c"))
        root = root_from_path(tx.payload(), ())
        forged = tx.with_endorsements(
            [Endorsement(member_id, net.msp.sign_as(member_id, root), ())
             for member_id in ("ingestion-service", "auditor")])
        net.orderer._pending[-1] = forged
        assert not any(reference_validate(peer, forged, net.policy)
                       for peer in net.peers)
        net.flush()
        assert self._applied_anywhere(net, "non-peer") == []


class TestDegradedSync:
    def _degraded_world(self):
        """A 4/4-policy network that commits one tx under a 2/2 degraded
        quorum while one peer is crashed and another is out of the
        network entirely (it will late-join)."""
        from repro.cloudsim.faults import FaultPlan
        net = standard_network(seed=41, batch_size=1,
                               policy=EndorsementPolicy(4, 4))
        net.degraded_policy = EndorsementPolicy(2, 2)
        lagging = net.peers.pop()  # misses all blocks until it syncs
        plan = FaultPlan(seed=1, clock=net.clock)
        plan.crash_node(net.peers[2].peer_id, start_s=0.0, end_s=1_000.0)
        for peer in net.peers:
            peer.fault_plan = plan
        net.submit("ingestion-service", "provenance", "record_batch",
                   **one_leaf_batch(handle="deg-sync", data_hash="ab" * 32,
                                    event="received", actor="c"))
        net.flush()
        assert net.monitoring.metrics.counter("blockchain.degraded_commits") == 1
        return net, lagging

    def test_degraded_metadata_survives_flush(self):
        net, _ = self._degraded_world()
        assert net.degraded_tx_ids  # committed, but still visible for sync

    def test_sync_without_metadata_diverges(self):
        """The failure mode sync_peer exists to prevent: full-policy
        re-validation skips the degraded tx and world state forks."""
        net, lagging = self._degraded_world()
        lagging.sync_from(net.peers[0], net.policy)
        net.add_peer(lagging)
        assert lagging.ledger.tip_hash == net.peers[0].ledger.tip_hash
        assert not net.peers_converged()

    def test_sync_peer_threads_degraded_metadata(self):
        net, lagging = self._degraded_world()
        applied = net.sync_peer(lagging)
        net.add_peer(lagging)
        assert applied == net.peers[0].ledger.height
        assert net.peers_converged()
        assert lagging.query("provenance", "get_history",
                             handle="deg-sync")
