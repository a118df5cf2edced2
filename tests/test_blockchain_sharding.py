"""Tests for the sharded write path: routing, pipelining, cross-shard 2PC."""

import dataclasses

import pytest

from repro.blockchain import (
    CrossShardCoordinator,
    EndorsementPolicy,
    Peer,
    ProvenanceContract,
    ShardedBlockchainNetwork,
    ShardRouter,
    build_block,
    pipeline_makespan,
)
from repro.blockchain import identity
from repro.blockchain.network import ORGANIZATIONS
from repro.cloudsim.clock import SimClock
from repro.cloudsim.faults import FaultPlan
from repro.cloudsim.tracing import Tracer
from repro.core.errors import LedgerError
from tests.conftest import endorsement_verifies, one_leaf_batch


def _prov_request(i):
    return ("provenance", "record_batch",
            one_leaf_batch(handle=f"h-{i}", data_hash=f"{i:04x}",
                           event="received", actor="ingestion-service"))


def _keyed_requests(n, n_keys=20):
    return [(f"patient-{i % n_keys:04d}", _prov_request(i))
            for i in range(n)]


class TestShardRouter:
    def test_deterministic(self):
        a = ShardRouter(8, seed=3)
        b = ShardRouter(8, seed=3)
        keys = [f"patient-{i}" for i in range(200)]
        assert [a.shard_for(k) for k in keys] == [b.shard_for(k) for k in keys]

    def test_seed_changes_placement(self):
        keys = [f"patient-{i}" for i in range(200)]
        a = ShardRouter(8, seed=0)
        b = ShardRouter(8, seed=1)
        assert [a.shard_for(k) for k in keys] != [b.shard_for(k) for k in keys]

    def test_every_shard_gets_keys(self):
        router = ShardRouter(8, seed=0)
        groups = router.partition(f"patient-{i}" for i in range(2000))
        assert set(groups) == set(range(8))
        # No shard should be grossly over-loaded with virtual replicas on.
        assert max(len(v) for v in groups.values()) < 3 * 2000 / 8

    def test_resharding_moves_a_minority_of_keys(self):
        keys = [f"patient-{i}" for i in range(2000)]
        before = ShardRouter(8, seed=0)
        after = ShardRouter(9, seed=0)
        moved = sum(1 for k in keys
                    if before.shard_for(k) != after.shard_for(k))
        # Consistent hashing: ~1/9 of keys move; modulo hashing would
        # move ~8/9 of them.
        assert moved < len(keys) * 0.35

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            ShardRouter(0)


class TestPipelineMakespan:
    def test_single_round_is_serial(self):
        assert pipeline_makespan([(3.0, 2.0)]) == pytest.approx(5.0)

    def test_two_rounds_overlap(self):
        # endorse_done = 3, 6; commit_done = 5, max(6,5)+2 = 8 < serial 10.
        assert pipeline_makespan([(3.0, 2.0), (3.0, 2.0)]) == pytest.approx(8.0)

    def test_commit_bound_rounds(self):
        # Commit dominates: endorse hides entirely behind the commit chain
        # after the first round.
        rounds = [(1.0, 4.0)] * 3
        assert pipeline_makespan(rounds) == pytest.approx(1.0 + 12.0)

    def test_never_worse_than_serial_never_better_than_stage_sum(self):
        rounds = [(2.0, 1.0), (0.5, 3.0), (1.5, 1.5)]
        serial = sum(e + c for e, c in rounds)
        endorse = sum(e for e, _ in rounds)
        commit = sum(c for _, c in rounds)
        span = pipeline_makespan(rounds)
        assert span <= serial
        assert span >= max(endorse, commit)


class TestShardedIngest:
    def test_ingest_commits_and_converges(self):
        net = ShardedBlockchainNetwork(4, seed=0, batch_size=8)
        report = net.ingest("ingestion-service", _keyed_requests(40),
                            round_size=8)
        assert report.transactions == 40
        assert net.peers_converged()
        # Every event is queryable from the shard owning its key.
        history = net.query("patient-0000", "provenance", "get_history",
                            handle="h-0")
        assert history and history[0]["event"] == "received"

    def test_clock_advances_by_slowest_shard_makespan(self):
        clock = SimClock()
        net = ShardedBlockchainNetwork(4, seed=0, batch_size=8, clock=clock)
        report = net.ingest("ingestion-service", _keyed_requests(40),
                            round_size=8)
        worst = max(r.makespan_s for r in report.shard_reports.values())
        assert clock.now == pytest.approx(report.started_s + worst)
        assert report.elapsed_s == pytest.approx(worst)

    def test_pipelining_beats_serial_per_shard(self):
        net = ShardedBlockchainNetwork(2, seed=0, batch_size=4)
        report = net.ingest("ingestion-service", _keyed_requests(48),
                            round_size=4)
        for shard_report in report.shard_reports.values():
            if shard_report.rounds > 1:
                assert shard_report.makespan_s < shard_report.serial_s
                assert shard_report.overlap_fraction > 0
        assert any(r.rounds > 1 for r in report.shard_reports.values())

    def test_more_shards_cut_elapsed_time(self):
        reqs = _keyed_requests(96, n_keys=96)
        single = ShardedBlockchainNetwork(1, seed=0, batch_size=8).ingest(
            "ingestion-service", reqs, round_size=8)
        sharded = ShardedBlockchainNetwork(8, seed=0, batch_size=8).ingest(
            "ingestion-service", reqs, round_size=8)
        assert sharded.elapsed_s < single.elapsed_s / 3

    def test_unpipelined_ingest_charges_serial_cost(self):
        reqs = _keyed_requests(32)
        piped = ShardedBlockchainNetwork(2, seed=0, batch_size=4).ingest(
            "ingestion-service", reqs, round_size=4, pipelined=True)
        serial = ShardedBlockchainNetwork(2, seed=0, batch_size=4).ingest(
            "ingestion-service", reqs, round_size=4, pipelined=False)
        assert piped.elapsed_s < serial.elapsed_s
        worst_serial = max(r.serial_s for r in serial.shard_reports.values())
        assert serial.elapsed_s == pytest.approx(worst_serial)

    def test_per_shard_pending_gauges_published(self):
        net = ShardedBlockchainNetwork(4, seed=0, batch_size=8)
        report = net.ingest("ingestion-service", _keyed_requests(40),
                            round_size=8)
        for name in report.shard_reports:
            gauge = net.monitoring.metrics.gauge(f"blockchain.{name}.pending")
            assert gauge == 0  # everything flushed by the end of ingest

    def test_routing_is_sticky_per_key(self):
        net = ShardedBlockchainNetwork(4, seed=0)
        channel = net.channel_for("patient-0007")
        for _ in range(3):
            assert net.channel_for("patient-0007") is channel

    def test_single_tx_submit_routes_by_key(self):
        net = ShardedBlockchainNetwork(4, seed=0)
        net.submit("ingestion-service", "patient-0001", "provenance",
                   "record_batch",
                   **one_leaf_batch(handle="solo", data_hash="ff",
                                    event="received", actor="a"))
        net.flush_all()
        owner = net.channel_for("patient-0001")
        assert owner.peers[0].ledger.height == 1
        assert sum(c.peers[0].ledger.height for c in net.channels) == 1


class TestIngestRoundSize:
    @pytest.mark.parametrize("round_size", [0, -1])
    def test_round_size_below_one_rejected_before_submitting(self,
                                                             round_size):
        # Regression: round_size=-1 made every shard's round loop empty,
        # so nothing committed while the report counted every request.
        net = ShardedBlockchainNetwork(4, seed=0)
        with pytest.raises(LedgerError):
            net.ingest("ingestion-service", _keyed_requests(6),
                       round_size=round_size)
        for channel in net.channels:
            assert channel.peers[0].ledger.height == 0
            assert channel.orderer.pending_count == 0
        assert net.clock.now == 0.0

    def test_no_round_size_means_one_round_per_shard(self):
        net = ShardedBlockchainNetwork(4, seed=0)
        report = net.ingest("ingestion-service", _keyed_requests(12))
        assert {r.rounds for r in report.shard_reports.values()} == {1}
        assert sum(c.peers[0].ledger.transaction_count
                   for c in net.channels) == 12


class TestConsortiumIdentity:
    PEER_MEMBERS = [f"peer.{org}" for org in ORGANIZATIONS]

    @pytest.mark.parametrize("n_shards", [1, 4, 8])
    def test_every_shard_shares_one_six_member_msp(self, n_shards,
                                                   monkeypatch):
        keygens = []
        real = identity.generate_keypair

        def counting(*args, **kwargs):
            keygens.append(kwargs.get("seed"))
            return real(*args, **kwargs)

        monkeypatch.setattr(identity, "generate_keypair", counting)
        net = ShardedBlockchainNetwork(n_shards, seed=0)
        assert keygens == []  # each key waits for its member's first use
        assert all(channel.msp is net.msp for channel in net.channels)
        members = {member.member_id
                   for role in ("peer", "client", "auditor")
                   for member in net.msp.members_with_role(role)}
        assert members == {*self.PEER_MEMBERS, "ingestion-service",
                           "auditor"}
        for shard, channel in enumerate(net.channels):
            name = net.shard_name(shard)
            assert [p.member_id for p in channel.peers] == self.PEER_MEMBERS
            assert [p.peer_id for p in channel.peers] == [
                f"{name}.{member}" for member in self.PEER_MEMBERS]
        net.ingest("ingestion-service", _keyed_requests(16), round_size=4)
        signers = {member_id for channel in net.channels
                   for tx in channel.peers[0].ledger.transactions()
                   for member_id, _, _ in tx.endorsements}
        assert signers and signers <= set(self.PEER_MEMBERS)
        for member_id in (*self.PEER_MEMBERS, "ingestion-service",
                          "auditor"):
            assert net.msp.verify(member_id, b"signed",
                                  net.msp.sign_as(member_id, b"signed"))
        assert len(keygens) <= 6

    def test_shard_transaction_does_not_replay_on_another_shard(
            self, reference_validate):
        net = ShardedBlockchainNetwork(2, seed=0)
        source, target = net.channels
        tx = source.invoke("ingestion-service", "provenance", "record_batch",
                           **one_leaf_batch(handle="h-replay", data_hash="ab",
                                            event="received", actor="a"))
        assert source.peers[0].ledger.find_transaction(tx.tx_id) == tx
        assert tx.channel == "shard-00"
        # The shards share keys, so the shard-00 endorsements verify as
        # they stand; only the peers' channel check keeps them off
        # shard-01.
        assert all(endorsement_verifies(net.msp, tx, endorsement)
                   for endorsement in tx.endorsements)
        # Payloads cover the channel: rewriting it changes the root each
        # endorsement's path leads to, so no signature holds on it.
        forged = dataclasses.replace(tx, channel="shard-01")
        assert not any(endorsement_verifies(net.msp, forged, endorsement)
                       for endorsement in forged.endorsements)
        for replayed in (tx, forged):
            for peer in target.peers:
                assert not reference_validate(peer, replayed, target.policy)
                block = build_block(peer.ledger.height, peer.ledger.tip_hash,
                                    net.clock.now, [replayed])
                assert peer.commit_block(block, target.policy) == 0
        assert target.query("provenance", "get_history",
                            handle="h-replay") == []
        # Nor does a shard-01 peer endorse a shard-00 proposal.
        with pytest.raises(LedgerError):
            target.peers[0].endorse(tx.with_endorsements(()))
        # Shard-01 still commits its own traffic, on the same tx id.
        own = target.invoke("ingestion-service", "provenance",
                            "record_batch",
                            **one_leaf_batch(handle="h-own", data_hash="cd",
                                             event="received", actor="a"))
        assert own.tx_id == tx.tx_id
        assert target.query("provenance", "get_history", handle="h-own")
        assert target.peers_converged()


    def test_shard_endorsement_does_not_replay_on_another_shard(
            self, reference_validate):
        net = ShardedBlockchainNetwork(2, seed=0)
        source, target = net.channels

        def request(handle):
            return ("provenance", "record_batch",
                    one_leaf_batch(handle=handle, data_hash="ab",
                                   event="received", actor="a"))

        (mine,) = source.submit_batch("ingestion-service",
                                      [request("h-source")])
        theirs = target.submit_batch("ingestion-service",
                                     [request("h-target"), request("h-own")])
        moved = mine.endorsements[0]
        assert theirs[0].endorsements[0].member_id == moved.member_id
        assert endorsement_verifies(net.msp, mine, moved)
        target.orderer._pending[0] = theirs[0].with_endorsements(
            (moved,) + theirs[0].endorsements[1:])
        verdicts = [[reference_validate(peer, tx, target.policy)
                     for tx in target.orderer._pending]
                    for peer in target.peers]
        assert verdicts == [[False, True]] * len(target.peers)
        target.flush()
        assert [bool(target.query("provenance", "get_history", handle=h))
                for h in ("h-target", "h-own")] == [False, True]
        assert target.peers_converged()

    def test_peer_of_another_channel_refused(self):
        # A late joiner built without the shard's name would append the
        # shard's blocks yet apply none of their transactions.
        net = ShardedBlockchainNetwork(2, seed=0)
        shard = net.channels[0]
        shard.invoke("ingestion-service", "provenance", "record_batch",
                     **one_leaf_batch(handle="h-join", data_hash="ab",
                                      event="received", actor="a"))
        contracts = {"provenance": ProvenanceContract()}
        for channel in (None, "shard-01"):
            joiner = Peer("peer.audit-org", "audit-org", net.msp, contracts,
                          channel=channel)
            with pytest.raises(LedgerError):
                shard.add_peer(joiner)
            with pytest.raises(LedgerError):
                shard.sync_peer(joiner)
            assert joiner.ledger.height == 0
        assert len(shard.peers) == len(ORGANIZATIONS)
        joiner = Peer("peer.audit-org", "audit-org", net.msp, contracts,
                      channel="shard-00")
        assert shard.sync_peer(joiner) == 1
        shard.add_peer(joiner)
        assert joiner.query("provenance", "get_history", handle="h-join")
        assert shard.peers_converged()


class TestShardedTraceAttribution:
    def test_sharded_ingest_attribution_sums_to_100(self):
        clock = SimClock()
        net = ShardedBlockchainNetwork(4, seed=0, batch_size=8, clock=clock)
        tracer = Tracer(clock)
        report = net.ingest("ingestion-service", _keyed_requests(40),
                            round_size=8)
        root = tracer.get_trace("t-00000001")
        assert root.name == "blockchain.sharded_ingest"
        assert root.duration_s == pytest.approx(report.elapsed_s)
        path = tracer.critical_path("t-00000001")
        assert sum(path.layer_percentages().values()) == pytest.approx(100.0)
        # Channel-level spans carry their shard tag.
        tagged = [s for s in root.walk()
                  if s.attributes.get("shard") is not None]
        assert tagged
        assert {s.attributes["shard"] for s in tagged} <= set(
            report.shard_reports)

    def test_tracing_does_not_change_simulated_time(self):
        untraced = ShardedBlockchainNetwork(4, seed=0, batch_size=8)
        plain = untraced.ingest("ingestion-service", _keyed_requests(40),
                                round_size=8)
        clock = SimClock()
        traced_net = ShardedBlockchainNetwork(4, seed=0, batch_size=8,
                                              clock=clock)
        Tracer(clock)
        traced = traced_net.ingest("ingestion-service", _keyed_requests(40),
                                   round_size=8)
        assert traced.elapsed_s == pytest.approx(plain.elapsed_s)


def _two_shard_keys(net):
    """Two routing keys living on different shards."""
    first_key = "patient-0000"
    first = net.router.shard_for(first_key)
    for i in range(1, 500):
        key = f"patient-{i:04d}"
        if net.router.shard_for(key) != first:
            return first_key, key
    raise AssertionError("could not find keys on two shards")


def _consent_op(key, ref):
    return (key, "consent", "grant",
            {"patient_ref": ref, "group_id": "study-1", "granted_at": 1.0})


def _crash_shard_peers(net, shard, plan, n=3, **window):
    """Crash ``n`` of the shard's four peers so the 2/2 policy is unmeetable."""
    channel = net.channels[shard]
    for peer in channel.peers[:n]:
        plan.crash_node(peer.peer_id, **window)
    for peer in channel.peers:
        peer.fault_plan = plan


class TestCrossShardCommit:
    def test_happy_path_commits_on_every_participant(self):
        net = ShardedBlockchainNetwork(4, seed=0)
        coordinator = CrossShardCoordinator(net)
        key_a, key_b = _two_shard_keys(net)
        txn = coordinator.submit("ingestion-service", [
            _consent_op(key_a, "p-a"), _consent_op(key_b, "p-b")])
        assert txn.state == "committed"
        statuses = coordinator.ledger_status(txn.txn_id)
        assert len(statuses) == 2
        assert set(statuses.values()) == {"committed"}
        # The staged operations were applied through the delegates.
        assert net.query(key_a, "consent", "is_active",
                         patient_ref="p-a", group_id="study-1")
        assert net.query(key_b, "consent", "is_active",
                         patient_ref="p-b", group_id="study-1")
        assert net.peers_converged()

    def test_malformed_request_aborts_at_prepare_not_wedged_at_commit(self):
        # Prepare simulates the staged requests on a scratch overlay, so
        # a request that cannot apply (wrong kwarg name here) votes no
        # at prepare and the coordinator aborts everywhere -- instead of
        # preparing fine and then failing every commit retry forever.
        net = ShardedBlockchainNetwork(4, seed=0)
        coordinator = CrossShardCoordinator(net)
        key_a, key_b = _two_shard_keys(net)
        txn = coordinator.submit("ingestion-service", [
            _consent_op(key_a, "p-a"),
            (key_b, "consent", "grant",
             {"patient_id": "p-b", "group_id": "study-1"})])
        assert txn.state == "aborted"
        assert coordinator.outstanding() == []
        assert set(coordinator.ledger_status(txn.txn_id).values()) == {
            "aborted"}
        # The healthy operation was not applied either: all-or-nothing.
        assert not net.query(key_a, "consent", "is_active",
                             patient_ref="p-a", group_id="study-1")
        # The scratch overlay never leaked simulated writes.
        assert not net.query(key_b, "consent", "is_active",
                             patient_ref="p-b", group_id="study-1")

    def test_prepare_reads_committed_state(self):
        # Revoking needs the committed grant: prepare-time simulation
        # must read through to the peer's state, or both shards vote no
        # ("no active consent to revoke") and the transaction aborts.
        net = ShardedBlockchainNetwork(2, seed=0)
        coordinator = CrossShardCoordinator(net)
        key_a, key_b = _two_shard_keys(net)
        for key, ref in ((key_a, "p-a"), (key_b, "p-b")):
            _, chaincode, method, args = _consent_op(key, ref)
            net.submit("ingestion-service", key, chaincode, method, **args)
        net.flush_all()
        txn = coordinator.submit("ingestion-service", [
            (key, "consent", "revoke",
             {"patient_ref": ref, "group_id": "study-1", "revoked_at": 2.0})
            for key, ref in ((key_a, "p-a"), (key_b, "p-b"))])
        assert txn.state == "committed"
        assert net.monitoring.metrics.counter(
            "blockchain.endorsement_failures") == 0
        for key, ref in ((key_a, "p-a"), (key_b, "p-b")):
            assert not net.query(key, "consent", "is_active",
                                 patient_ref=ref, group_id="study-1")
        assert net.peers_converged()

    def test_prepare_simulation_does_not_mutate_state(self):
        # A successful prepare stages requests without applying them.
        net = ShardedBlockchainNetwork(2, seed=0)
        coordinator = CrossShardCoordinator(net)
        key_a, key_b = _two_shard_keys(net)
        txn = coordinator.submit("ingestion-service", [
            _consent_op(key_a, "p-a"), _consent_op(key_b, "p-b")])
        assert txn.state == "committed"
        # Grant applied exactly once (commit), not twice (prepare+commit):
        # the consent chain has a single grant entry.
        chain = net.query(key_a, "consent", "history", patient_ref="p-a",
                          group_id="study-1")
        grants = [entry for entry in chain if entry["action"] == "grant"]
        assert len(grants) == 1

    def test_failed_prepare_aborts_everywhere(self):
        clock = SimClock()
        net = ShardedBlockchainNetwork(4, seed=0, clock=clock)
        coordinator = CrossShardCoordinator(net)
        key_a, key_b = _two_shard_keys(net)
        shard_b = net.router.shard_for(key_b)
        plan = FaultPlan(seed=1, clock=clock)
        _crash_shard_peers(net, shard_b, plan, start_s=0.0, end_s=5_000.0)
        txn = coordinator.submit("ingestion-service", [
            _consent_op(key_a, "p-a"), _consent_op(key_b, "p-b")])
        # Shard B could not prepare -> global abort. Its own abort
        # tombstone cannot land while its peers are down.
        assert txn.state == "aborting"
        assert coordinator.outstanding() == [txn.txn_id]
        statuses = coordinator.ledger_status(txn.txn_id)
        assert statuses[net.shard_name(net.router.shard_for(key_a))] == "aborted"
        # Nothing was applied on the healthy shard.
        assert not net.query(key_a, "consent", "is_active",
                             patient_ref="p-a", group_id="study-1")
        # Recovery after the crash window lands the tombstone on shard B.
        clock.advance(10_000.0)
        assert coordinator.recover() == 1
        assert txn.state == "aborted"
        assert set(coordinator.ledger_status(txn.txn_id).values()) == {
            "aborted"}
        assert not net.query(key_b, "consent", "is_active",
                             patient_ref="p-b", group_id="study-1")

    def test_crash_between_prepare_and_commit_recovers_atomically(self):
        clock = SimClock()
        net = ShardedBlockchainNetwork(4, seed=0, clock=clock)
        coordinator = CrossShardCoordinator(net)
        key_a, key_b = _two_shard_keys(net)
        # Measure, on an identical dry-run transaction, when the prepare
        # round ends — the sim is deterministic, so the second txn hits
        # the same offsets.
        probe = coordinator.submit("ingestion-service", [
            _consent_op(key_a, "probe-a"), _consent_op(key_b, "probe-b")])
        assert probe.state == "committed"
        per_invoke = (clock.now - 0.0) / 4  # prepare x2 + commit x2
        window_start = clock.now + 2 * per_invoke
        # Both shards prepare, then every peer everywhere crashes before
        # the commit decision can be endorsed.
        plan = FaultPlan(seed=1, clock=clock)
        for shard in (net.router.shard_for(key_a),
                      net.router.shard_for(key_b)):
            _crash_shard_peers(net, shard, plan, n=4,
                               start_s=window_start,
                               end_s=window_start + 1.0)
        txn = coordinator.submit("ingestion-service", [
            _consent_op(key_a, "p-a"), _consent_op(key_b, "p-b")])
        # Decision was commit (both prepared) but no ledger has it yet.
        assert txn.state == "committing"
        assert set(coordinator.ledger_status(txn.txn_id).values()) == {
            "prepared"}
        # Nothing is applied while the decision is outstanding.
        assert not net.query(key_a, "consent", "is_active",
                             patient_ref="p-a", group_id="study-1")
        # Crash window passes; recovery re-drives the decided commit.
        clock.advance(2.0)
        assert coordinator.recover() == 1
        assert txn.state == "committed"
        assert set(coordinator.ledger_status(txn.txn_id).values()) == {
            "committed"}
        assert net.query(key_a, "consent", "is_active",
                         patient_ref="p-a", group_id="study-1")
        assert net.query(key_b, "consent", "is_active",
                         patient_ref="p-b", group_id="study-1")
        assert net.peers_converged()

    def test_recover_is_idempotent(self):
        net = ShardedBlockchainNetwork(2, seed=0)
        coordinator = CrossShardCoordinator(net)
        key_a, key_b = _two_shard_keys(net)
        txn = coordinator.submit("ingestion-service", [
            _consent_op(key_a, "p-a"), _consent_op(key_b, "p-b")])
        assert txn.state == "committed"
        assert coordinator.recover() == 0
        assert coordinator.outstanding() == []

    def test_empty_operations_rejected(self):
        net = ShardedBlockchainNetwork(2, seed=0)
        coordinator = CrossShardCoordinator(net)
        from repro.core.errors import LedgerError
        with pytest.raises(LedgerError):
            coordinator.submit("ingestion-service", [])

    def test_single_shard_transaction_still_works(self):
        net = ShardedBlockchainNetwork(4, seed=0)
        coordinator = CrossShardCoordinator(net)
        txn = coordinator.submit("ingestion-service", [
            _consent_op("patient-0000", "p-a")])
        assert txn.state == "committed"
        assert len(txn.participants) == 1


class TestDegradedShardedChannels:
    def test_shard_channel_degrades_with_audit_mark(self):
        clock = SimClock()
        net = ShardedBlockchainNetwork(
            2, seed=0, clock=clock,
            policy=EndorsementPolicy(4, 4),
            degraded_policy=EndorsementPolicy(2, 2))
        plan = FaultPlan(seed=1, clock=clock)
        shard = net.router.shard_for("patient-0000")
        _crash_shard_peers(net, shard, plan, n=2, start_s=0.0)
        net.submit("ingestion-service", "patient-0000", "provenance",
                   "record_batch",
                   **one_leaf_batch(handle="h-deg", data_hash="ab",
                                    event="received", actor="a"))
        net.flush_all()
        channel = net.channels[shard]
        assert channel.degraded_tx_ids
        assert net.monitoring.metrics.counter(
            "blockchain.degraded_commits") >= 1
        assert channel.peers_converged()


class TestPendingGaugeFreshness:
    """Regressions: ``blockchain.<shard>.pending`` must never go stale."""

    def _gauge(self, net, shard):
        return net.monitoring.metrics.gauge(
            f"blockchain.{net.shard_name(shard)}.pending")

    def test_submit_keeps_gauge_equal_to_orderer_queue(self):
        # Regression: submit() enqueued on the shard orderer without
        # touching the gauge, so it read whatever the last bulk ingest
        # left behind.
        net = ShardedBlockchainNetwork(4, seed=0, batch_size=100)
        key = "patient-0001"
        shard = net.router.shard_for(key)
        for i in range(3):
            net.submit("ingestion-service", key, "provenance",
                       "record_batch",
                       **one_leaf_batch(handle=f"h-{i}", data_hash="aa",
                                        event="received", actor="a"))
            assert self._gauge(net, shard) == \
                net.channels[shard].orderer.pending_count == i + 1

    def test_flush_all_drains_gauges_to_zero(self):
        net = ShardedBlockchainNetwork(4, seed=0, batch_size=100)
        for i in range(8):
            net.submit("ingestion-service", f"patient-{i:04d}",
                       "provenance", "record_batch",
                       **one_leaf_batch(handle=f"h-{i}", data_hash="aa",
                                        event="received", actor="a"))
        net.flush_all()
        for shard in range(net.n_shards):
            assert self._gauge(net, shard) == 0
            assert net.channels[shard].orderer.pending_count == 0

    def test_drain_outside_the_network_reads_zero(self):
        # Regression: a cross-shard commit writes through the channel's
        # own invoke, which drains the orderer without the network
        # refreshing its gauge, so the gauge kept reading 1.
        net = ShardedBlockchainNetwork(2, seed=0, batch_size=100)
        key = "patient-0001"
        shard = net.router.shard_for(key)
        net.submit("ingestion-service", key, "provenance", "record_batch",
                   **one_leaf_batch(handle="h-0", data_hash="aa",
                                    event="received", actor="a"))
        assert self._gauge(net, shard) == 1
        txn = CrossShardCoordinator(net).submit(
            "ingestion-service", [_consent_op(key, "p-a")])
        assert txn.state == "committed"
        assert net.channels[shard].orderer.pending_count == 0
        assert self._gauge(net, shard) == 0

    def test_aborted_ingest_leaves_true_residue_not_stale_snapshot(self):
        # Regression: an ingest that died mid-run (here: round 2's batch
        # cannot meet the endorsement policy because its chaincode is
        # not installed) left round 1's mid-round snapshot on the gauge
        # forever, even though round 1 had already flushed to 0.
        from repro.core.errors import EndorsementError
        net = ShardedBlockchainNetwork(2, seed=0, batch_size=8)
        key = "patient-0001"
        shard = net.router.shard_for(key)
        good = [(key, _prov_request(i)) for i in range(4)]
        bad = [(key, ("not-installed", "boom", {}))]
        with pytest.raises(EndorsementError):
            net.ingest("ingestion-service", good + bad, round_size=4)
        assert net.channels[shard].orderer.pending_count == 0
        assert self._gauge(net, shard) == 0   # was 4 before the fix
