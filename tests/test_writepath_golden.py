"""Golden write path: one fixed write sequence, pinned ledger digests.

The sequence runs through the three ways the platform builds a write
path: the reference channel from ``standard_network``, a two-shard
``ShardedBlockchainNetwork`` fed by a ``ShardedIngestionFrontend`` (plus
one cross-shard commit), and one ``HealthCloudPlatform`` ingestion round.

Every peer of every channel must end on the recorded chain tip and
running transaction root.  Transaction payloads do not cover their
endorsements, so the signatures on each ledger are pinned by a digest of
their own: it changes with any signing member id, MSP seed or enrolment
order.

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
        "b246e417faf4504f16b77b148a57de9ce1f892c4dc86120f2a54fe332a207635",
        "5764ecaa868827442c542ef7cc38a6f2287ef1b800c75b85bdd1afa3181f7fd7",
        "046abecab78b767c248080ee34c48ef3aef8c93124b062ba4d68cebd701dfd9b"),
    "shard-00": (
        "d11ac884ac4ef0a4e2dc53e50bca6099f8d44859f18a673063dabfb6737fb06e",
        "ee0dffbfc7842b27ce9783646ec569c891964666b4855dddf155e72fab9ad6e2",
        "6c0266cbbe8ec5b735de8c3d1fa9da95d569233e07cd8ccfdc8e364a1c78411f"),
    "shard-01": (
        "0e47ad2867632c9567e1c6658ec10115b879c4d33d135fd6f977926d9e7d79ec",
        "0aa68dc414e7588b24cab6ba85b80ac0d969ca2345bc3af16818c4890a4c4a69",
        "a3c1eb6d2403c0e5756f5ebe06bb5569864bb7c57bae5dd35d247323cea42b19"),
    "platform": (
        "221618de53454bed990c6186b4e7633b9553c1676574ab9c5dfe128b448cbf39",
        "4195419fc258c8af0aa3fd824168a369e0e1f7a7a3e6c16d42a98f5bb3cf75d1",
        "bceeec5ec518b8ff54343536d74ba698a3eed4a765d69d1f6284424241199d57"),
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
