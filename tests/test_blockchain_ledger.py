"""Tests for ledger structures: transactions, blocks, chain verification."""

import dataclasses

import pytest

from repro.blockchain.ledger import (
    GENESIS_HASH,
    Ledger,
    Transaction,
    build_block,
)
from repro.core.errors import LedgerError
from tests.conftest import one_leaf_batch


def make_tx(i: int) -> Transaction:
    return Transaction(tx_id=f"tx-{i}", chaincode="provenance",
                       method="record_batch",
                       args=one_leaf_batch(f"batch-{i}", handle=f"h{i}",
                                           data_hash=f"{i:064x}",
                                           event="received", actor="svc"),
                       submitter="svc", timestamp=float(i))


class TestBlocks:
    def test_build_block(self):
        block = build_block(0, GENESIS_HASH, 1.0, [make_tx(1), make_tx(2)])
        assert block.height == 0
        assert len(block.transactions) == 2

    def test_empty_block_rejected(self):
        with pytest.raises(LedgerError):
            build_block(0, GENESIS_HASH, 1.0, [])

    def test_payload_canonical(self):
        assert make_tx(1).payload() == make_tx(1).payload()
        assert make_tx(1).payload() != make_tx(2).payload()


class TestLedger:
    def _chain(self, blocks=3, per_block=2):
        ledger = Ledger()
        counter = 0
        for _ in range(blocks):
            txs = []
            for _ in range(per_block):
                counter += 1
                txs.append(make_tx(counter))
            block = build_block(ledger.height, ledger.tip_hash,
                                float(counter), txs)
            ledger.append(block)
        return ledger

    def test_append_and_verify(self):
        ledger = self._chain()
        assert ledger.height == 3
        assert ledger.verify()

    def test_wrong_height_rejected(self):
        ledger = self._chain(1)
        block = build_block(5, ledger.tip_hash, 9.0, [make_tx(99)])
        with pytest.raises(LedgerError):
            ledger.append(block)

    def test_wrong_link_rejected(self):
        ledger = self._chain(1)
        block = build_block(1, "ff" * 32, 9.0, [make_tx(99)])
        with pytest.raises(LedgerError):
            ledger.append(block)

    def test_bad_merkle_root_rejected(self):
        ledger = self._chain(1)
        good = build_block(1, ledger.tip_hash, 9.0, [make_tx(99)])
        bad = dataclasses.replace(good, merkle_root="00" * 32)
        with pytest.raises(LedgerError):
            ledger.append(bad)

    def test_tampered_transaction_detected(self):
        ledger = self._chain()
        block = ledger.block(1)
        tampered_tx = dataclasses.replace(
            block.transactions[0],
            args={"handle": "FORGED", "event": "received"})
        tampered_block = dataclasses.replace(
            block, transactions=(tampered_tx,) + block.transactions[1:])
        ledger._blocks[1] = tampered_block
        with pytest.raises(LedgerError):
            ledger.verify()

    def test_removed_block_detected(self):
        ledger = self._chain()
        del ledger._blocks[1]
        with pytest.raises(LedgerError):
            ledger.verify()

    def test_find_transaction(self):
        ledger = self._chain()
        assert ledger.find_transaction("tx-3") is not None
        assert ledger.find_transaction("tx-999") is None

    def test_transactions_flattened(self):
        ledger = self._chain(blocks=2, per_block=3)
        assert len(ledger.transactions()) == 6

    def test_block_out_of_range(self):
        with pytest.raises(LedgerError):
            self._chain(1).block(9)
