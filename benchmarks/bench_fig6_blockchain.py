"""E5 (Fig. 6): blockchain provenance vs. a centralized database.

The HCLS blockchain network buys tamper-evidence, decentralized trust,
and an auditor view; the paper's criticised baseline is a centralized
provenance DB.  We measure write throughput and audit-query cost for
both, and verify the qualitative difference: tampering is detected on
the ledger and silently succeeds in the DB.  Expected shape: the ledger
costs a large constant factor per write (endorsement signatures dominate)
but is the only side with integrity guarantees.
"""

import pytest

from repro.blockchain import (
    AuditorView,
    CentralizedProvenanceDb,
    ProvenanceBatch,
    standard_network,
)

from conftest import show

N_EVENTS = 60


def _submit_event(network, batch_id, **event):
    """Endorse one provenance event: a one-leaf ``record_batch``."""
    batch = ProvenanceBatch()
    batch.append(**event)
    chaincode, method, args = batch.request(batch_id)
    network.submit("ingestion-service", chaincode, method, **args)


@pytest.mark.benchmark(group="fig6-blockchain")
def test_fig6_ledger_writes(benchmark):
    """Endorse + order + commit N provenance events."""
    counter = [0]

    def run():
        counter[0] += 1
        network = standard_network(seed=counter[0], batch_size=10)
        for i in range(N_EVENTS):
            _submit_event(network, f"e5-{i}", handle=f"h{i}",
                          data_hash=f"{i % 97:02x}" * 32, event="received",
                          actor="bench")
        network.flush()
        return network

    network = benchmark.pedantic(run, rounds=2, iterations=1)
    assert network.peers_converged()
    assert len(network.peers[0].ledger.transactions()) == N_EVENTS


@pytest.mark.benchmark(group="fig6-blockchain")
def test_fig6_centralized_db_writes(benchmark):
    """Same N events into the mutable baseline."""

    def run():
        db = CentralizedProvenanceDb()
        for i in range(N_EVENTS):
            db.record_event(f"h{i}", f"{i % 97:02x}" * 32, "received",
                            "bench")
        return db

    db = benchmark(run)
    assert db.transaction_count() == N_EVENTS


@pytest.mark.benchmark(group="fig6-blockchain")
def test_fig6_audit_query(benchmark):
    """Auditor view search over a populated ledger."""
    network = standard_network(seed=42, batch_size=10)
    for i in range(N_EVENTS):
        _submit_event(network, f"e5-{i}", handle=f"h{i % 7}",
                      data_hash="aa" * 32, event="received",
                      actor=f"client-{i % 3}")
    network.flush()
    view = AuditorView(network)

    findings = benchmark(view.search, chaincode="provenance",
                         submitter="ingestion-service")
    assert len(findings) == N_EVENTS


@pytest.mark.benchmark(group="fig6-blockchain")
def test_fig6_tamper_evidence(benchmark):
    """The qualitative gap: ledger detects, DB cannot."""
    import dataclasses

    from repro.core.errors import LedgerError

    def run():
        network = standard_network(seed=77, batch_size=5)
        for i in range(10):
            _submit_event(network, f"e5-{i}", handle=f"h{i}",
                          data_hash="aa" * 32, event="received", actor="c")
        network.flush()
        view = AuditorView(network)
        assert view.verify_integrity()

        def detects(peer, transactions):
            """Whether the audit catches an admin-level tamper: ``peer``'s
            stored block 0 holding ``transactions``.  The block is put
            back afterwards."""
            ledger = peer.ledger
            block = ledger.block(0)
            ledger._blocks[0] = dataclasses.replace(
                block, transactions=transactions)
            try:
                view.verify_integrity()
                return False
            except LedgerError:
                return True
            finally:
                ledger._blocks[0] = block

        txs = network.peers[0].ledger.block(0).transactions
        forged = dataclasses.replace(txs[0], args={"handle": "FORGED"})
        detected = detects(network.peers[0], (forged,) + txs[1:])
        repeat_detected = detects(network.peers[1], txs + txs[-1:])

        db = CentralizedProvenanceDb()
        db.record_event("h0", "aa" * 32, "received", "c")
        db.tamper("h0", 0, "FORGED")
        db_detected = not db.verify_integrity()
        return detected, repeat_detected, db_detected

    detected, repeat_detected, db_detected = benchmark.pedantic(
        run, rounds=1, iterations=1)
    assert detected, "ledger must detect tampering"
    assert repeat_detected, "ledger must detect a repeated transaction"
    assert not db_detected, "the centralized baseline has no tamper-evidence"
    show("E5: tamper-evidence", [
        f"ledger detects retroactive edit: {detected}",
        f"ledger detects a repeated transaction: {repeat_detected}",
        f"centralized DB detects it: {db_detected}",
        "expected shape: ledger write >> DB write (endorsement RSA), "
        "only ledger is tamper-evident",
    ])
