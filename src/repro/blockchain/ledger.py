"""Hash-linked ledger structures (Section IV, Fig. 6).

Blocks commit an ordered batch of transactions under a Merkle root and
link to the previous block's hash, so any retroactive modification is
detectable by re-walking the chain — the tamper-evidence property the
paper's audit requirements rest on.  PHI never goes on chain: transactions
carry a "handle/reference to the encrypted data record, hash of the data,
information about the event/transaction, and meta-data."
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..core.errors import LedgerError
from ..crypto.merkle import IncrementalMerkleTree, MerkleTree


@dataclass(frozen=True)
class Transaction:
    """One ledger transaction: a chaincode invocation plus endorsements.

    ``channel`` names a shard, and the payload covers it: shards share
    the consortium's keys, so this keeps a signature made for one shard
    from verifying on another.  An unnamed channel's payload omits it."""

    tx_id: str
    chaincode: str
    method: str
    args: Dict[str, Any]
    submitter: str
    timestamp: float
    endorsements: Tuple[Tuple[str, bytes], ...] = ()  # (member_id, signature)
    channel: Optional[str] = None

    def payload(self) -> bytes:
        """Canonical bytes that endorsers sign and blocks commit."""
        body = {"tx": self.tx_id, "cc": self.chaincode, "method": self.method,
                "args": self.args, "submitter": self.submitter,
                "ts": self.timestamp}
        if self.channel is not None:
            body["channel"] = self.channel
        return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()

    def with_endorsements(
            self, endorsements: Iterable[Tuple[str, bytes]]) -> "Transaction":
        return replace(self, args=dict(self.args),
                       endorsements=tuple(endorsements))


@dataclass(frozen=True)
class Block:
    """A batch of transactions sealed under a Merkle root + chain link."""

    height: int
    prev_hash: str
    merkle_root: str
    timestamp: float
    transactions: Tuple[Transaction, ...]
    block_hash: str

    @staticmethod
    def compute_hash(height: int, prev_hash: str, merkle_root: str,
                     timestamp: float) -> str:
        payload = json.dumps([height, prev_hash, merkle_root, timestamp],
                             separators=(",", ":")).encode()
        return hashlib.sha256(payload).hexdigest()


GENESIS_HASH = "0" * 64


def _check_block(block: Block, height: int, prev_hash: str) -> List[bytes]:
    """Raise :class:`LedgerError` unless ``block`` sits at ``height``
    after ``prev_hash`` and its Merkle root and hash recompute; returns
    its transaction payloads."""
    if block.height != height or block.prev_hash != prev_hash:
        raise LedgerError(f"chain linkage broken at height {height}")
    payloads = [tx.payload() for tx in block.transactions]
    if MerkleTree(payloads).root.hex() != block.merkle_root:
        raise LedgerError(f"Merkle root mismatch at height {height}")
    if Block.compute_hash(block.height, block.prev_hash, block.merkle_root,
                          block.timestamp) != block.block_hash:
        raise LedgerError(f"block hash mismatch at height {height}")
    return payloads


def build_block(height: int, prev_hash: str, timestamp: float,
                transactions: List[Transaction]) -> Block:
    """Seal a batch of transactions into a block."""
    if not transactions:
        raise LedgerError("cannot build an empty block")
    tree = MerkleTree([tx.payload() for tx in transactions])
    merkle_root = tree.root.hex()
    block_hash = Block.compute_hash(height, prev_hash, merkle_root, timestamp)
    return Block(height, prev_hash, merkle_root, timestamp,
                 tuple(transactions), block_hash)


class Ledger:
    """An append-only chain of blocks with full verification."""

    def __init__(self) -> None:
        self._blocks: List[Block] = []
        # Running Merkle tree over every committed transaction payload,
        # extended incrementally at append — a chain-wide commitment
        # (certificate-transparency style) that high-rate ingestion can
        # grow in O(log n) per transaction instead of rebuilding.
        self._running = IncrementalMerkleTree()

    @property
    def height(self) -> int:
        return len(self._blocks)

    @property
    def tip_hash(self) -> str:
        return self._blocks[-1].block_hash if self._blocks else GENESIS_HASH

    @property
    def running_tx_root(self) -> Optional[str]:
        """Incremental Merkle root over all committed transaction
        payloads, in commit order; ``None`` while the chain is empty."""
        if self._running.leaf_count == 0:
            return None
        return self._running.root_hex

    @property
    def transaction_count(self) -> int:
        return self._running.leaf_count

    def append(self, block: Block) -> None:
        """Append after validating linkage, height, and Merkle root."""
        payloads = _check_block(block, self.height, self.tip_hash)
        self._blocks.append(block)
        self._running.extend(payloads)

    def block(self, height: int) -> Block:
        try:
            return self._blocks[height]
        except IndexError:
            raise LedgerError(f"no block at height {height}") from None

    def blocks(self) -> List[Block]:
        return list(self._blocks)

    def transactions(self) -> List[Transaction]:
        return [tx for block in self._blocks for tx in block.transactions]

    def find_transaction(self, tx_id: str) -> Optional[Transaction]:
        tx_and_height = self.transaction_location(tx_id)
        return tx_and_height[0] if tx_and_height else None

    def transaction_location(self, tx_id: str
                             ) -> Optional[Tuple[Transaction, int]]:
        """A transaction together with the height of its block.

        Auditors verifying Merkle-batched provenance need the committed
        transaction (for its endorsed batch root) and where on the chain
        it sits.
        """
        for block in self._blocks:
            for tx in block.transactions:
                if tx.tx_id == tx_id:
                    return tx, block.height
        return None

    def verify(self) -> bool:
        """Re-walk the whole chain; raises LedgerError on any tamper."""
        prev = GENESIS_HASH
        for height, block in enumerate(self._blocks):
            _check_block(block, height, prev)
            prev = block.block_hash
        return True
