"""Golden write path: one fixed write sequence, pinned ledger digests.

The sequence runs through the three ways the platform builds a write
path: the reference channel from ``standard_network``, a two-shard
``ShardedBlockchainNetwork`` fed by a ``ShardedIngestionFrontend`` (plus
one cross-shard commit), and one ``HealthCloudPlatform`` ingestion round.

Every peer of every channel must end on the recorded chain tip and
running transaction root.  Transaction payloads do not cover their
endorsements, so the signatures on each ledger are pinned by a digest of
their own: it changes with any peer id, MSP seed or enrolment order.

A change to any constant here is a change to simulated output, and
belongs in a commit that re-baselines the benchmarks.  The seeds are ones
other tests enrol too, so the in-process keygen memo absorbs the cost.
"""

import hashlib

from repro import HealthCloudPlatform
from repro.blockchain import (
    CrossShardCoordinator,
    ShardedBlockchainNetwork,
    standard_network,
)
from repro.fhir.resources import Bundle, Observation, Patient
from repro.ingestion import ShardedIngestionFrontend, encrypt_bundle_for_upload

# channel -> (tip_hash, running_tx_root, endorsement digest)
GOLDEN = {
    "standard": (
        "aa9feaa8f3baf3ec3bdfa6295dbdc90432322b925a75cc20228ff91f5436bb10",
        "e16674e856d25c51cae00329fb645255f919cda9d4bd67db09ab764a27ef985d",
        "a18c90044a02822762c6bdfc84c3239d23de55e5da145bd8f57a6bd0f92f11f6"),
    "shard-00": (
        "e7843af305404d61850009061e96e1ece14567fcb54052f607e127df8464e821",
        "c4d123c183b7e5f274c84b26c39741287f03ba2f9befc2260f5c161dd3ed8094",
        "f3dc266a7229463615da04525163a548c9c69877bc411068083538a54bcb5d08"),
    "shard-01": (
        "e7bea5df33f744794fb6ba15d8b9619a5bc0901efd022fdd3f37514ad0dc3810",
        "8ae39fb80bc913753e3426ba63eea1c612b77b8b167a79160de7b5a84076b3b9",
        "0d3999223805169a196660cafe8707c5a531a8d5a2a54c6e79c8b2abb869e791"),
    "platform": (
        "33b2f0972ea25fdfc7f30eec48e5b5e8bffc82d2be7a4dfbde8f13c0923858e0",
        "4195419fc258c8af0aa3fd824168a369e0e1f7a7a3e6c16d42a98f5bb3cf75d1",
        "31a7f0eae9ae52ee3be6d9fe6a7dc801ad5d00113713cc7c8ddc15f63bab7d11"),
}


def _signatures_digest(ledger) -> str:
    digest = hashlib.sha256()
    for tx in ledger.transactions():
        for member_id, signature in tx.endorsements:
            digest.update(member_id.encode() + b"\0" + signature)
    return digest.hexdigest()


def _assert_golden(name, channel):
    tip, root, signatures = GOLDEN[name]
    for peer in channel.peers:
        assert peer.ledger.tip_hash == tip, peer.peer_id
        assert peer.ledger.running_tx_root == root, peer.peer_id
        assert _signatures_digest(peer.ledger) == signatures, peer.peer_id


def _event(i):
    return {"handle": f"golden-{i}", "data_hash": f"{i:064x}",
            "event": "received", "actor": "golden-client",
            "metadata": {"i": i}}


def test_standard_network_golden():
    net = standard_network(seed=8, batch_size=4)
    for i in range(3):
        net.submit("ingestion-service", "provenance", "record_event",
                   **_event(i))
    net.submit_batch("ingestion-service", [
        ("provenance", "record_event", _event(3)),
        ("consent", "grant", {"patient_ref": "p-1", "group_id": "g",
                              "granted_at": 1.0}),
        ("privacy", "record_level", {"record_id": "r-1", "sender": "s",
                                     "degree": 0.9, "passed": True})])
    net.flush()
    net.invoke("ingestion-service", "consent", "revoke", patient_ref="p-1",
               group_id="g", revoked_at=2.0)
    assert net.peers_converged()
    _assert_golden("standard", net)


def test_sharded_frontend_golden():
    net = ShardedBlockchainNetwork(2, seed=0)
    frontend = ShardedIngestionFrontend(net, events_per_batch=4)
    for i in range(10):
        frontend.record_event(f"patient-{i:04d}", **_event(i))
    frontend.flush()
    keys = {}
    for i in range(40):
        keys.setdefault(net.router.shard_for(f"patient-{i:04d}"),
                        f"patient-{i:04d}")
    txn = CrossShardCoordinator(net).submit("ingestion-service", [
        (key, "consent", "grant",
         {"patient_ref": key, "group_id": "g", "granted_at": 3.0})
        for key in keys.values()])
    assert txn.state == "committed"
    assert net.peers_converged()
    for shard, channel in enumerate(net.channels):
        _assert_golden(net.shard_name(shard), channel)


def test_platform_ingestion_golden():
    platform = HealthCloudPlatform(seed=29)
    context = platform.register_tenant("golden")
    group = platform.rbac.create_group(context.tenant.tenant_id, "study")
    registration = platform.ingestion.register_client("client-1")
    for i in range(3):
        pid = f"pt-{i}"
        platform.consent.grant(pid, group.group_id)
        bundle = Bundle(id=f"b-{i}")
        bundle.add(Patient(id=pid, name={"family": "Doe"},
                           birthDate="1980-03-12", gender="female"))
        bundle.add(Observation(id=f"{pid}-obs", code={"text": "HbA1c"},
                               subject=f"Patient/{pid}",
                               valueQuantity={"value": 7.0, "unit": "%"}))
        platform.ingestion.upload(
            "client-1", encrypt_bundle_for_upload(bundle, registration),
            group.group_id)
    assert platform.run_ingestion() == 3
    assert platform.blockchain.peers_converged()
    _assert_golden("platform", platform.blockchain)
