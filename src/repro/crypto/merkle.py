"""Merkle hash trees with membership proofs.

Used two ways in the platform: (i) as the baseline integrity scheme the
paper says *leaks* structural information when records are shared in parts
(Section IV-B1), against which the leakage-free redactable scheme is
compared; (ii) inside the blockchain package to commit a block's
transaction set.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..core.errors import IntegrityError

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def _leaf_hash(data: bytes) -> bytes:
    return hashlib.sha256(_LEAF_PREFIX + data).digest()


def _node_hash(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(_NODE_PREFIX + left + right).digest()


@dataclass(frozen=True)
class MerkleProof:
    """Authentication path for one leaf: (sibling_hash, sibling_is_left)."""

    leaf_index: int
    path: Tuple[Tuple[bytes, bool], ...]


class MerkleTree:
    """Binary Merkle tree over a sequence of byte-string leaves."""

    def __init__(self, leaves: Sequence[bytes]) -> None:
        if not leaves:
            raise ValueError("Merkle tree needs at least one leaf")
        self._leaves = [bytes(leaf) for leaf in leaves]
        self._levels: List[List[bytes]] = [[_leaf_hash(l) for l in self._leaves]]
        while len(self._levels[-1]) > 1:
            current = self._levels[-1]
            next_level = []
            for i in range(0, len(current), 2):
                left = current[i]
                right = current[i + 1] if i + 1 < len(current) else current[i]
                next_level.append(_node_hash(left, right))
            self._levels.append(next_level)

    @property
    def root(self) -> bytes:
        return self._levels[-1][0]

    @property
    def root_hex(self) -> str:
        return self.root.hex()

    @property
    def leaf_count(self) -> int:
        return len(self._leaves)

    def proofs(self) -> List[MerkleProof]:
        """Authentication paths for every leaf, sharing the built levels.

        Batch submitters (e.g. Merkle-batched provenance transactions) need
        a proof per event; generating them in one pass over the cached
        levels avoids rebuilding per-leaf state.
        """
        return [self.proof(i) for i in range(len(self._leaves))]

    def proof(self, index: int) -> MerkleProof:
        """Authentication path for leaf ``index``."""
        if not 0 <= index < len(self._leaves):
            raise IndexError(f"leaf index {index} out of range")
        path: List[Tuple[bytes, bool]] = []
        i = index
        for level in self._levels[:-1]:
            sibling = i ^ 1
            if sibling >= len(level):
                sibling = i  # odd node duplicated
            path.append((level[sibling], sibling < i))
            i //= 2
        return MerkleProof(index, tuple(path))


class IncrementalMerkleTree:
    """Append-only Merkle tree whose root matches :class:`MerkleTree`.

    Keeps one *peak* per power of two of the leaf count (a Merkle
    mountain range): ``append`` merges carry peaks like binary addition,
    O(log n) amortized, and ``root`` folds the peaks lowest-to-highest,
    self-pairing odd nodes at every level exactly as :class:`MerkleTree`
    does — so for any leaf sequence the incremental root equals
    ``MerkleTree(leaves).root``.  High-rate writers (consecutive
    ingestion flushes, the ledger's running transaction root) extend a
    running tree instead of rebuilding the whole tree per flush.
    """

    __slots__ = ("_peaks", "_count")

    def __init__(self, leaves: Sequence[bytes] = ()) -> None:
        # (height, node_hash) pairs, strictly descending height.
        self._peaks: List[Tuple[int, bytes]] = []
        self._count = 0
        for leaf in leaves:
            self.append(leaf)

    @property
    def leaf_count(self) -> int:
        return self._count

    def append(self, leaf: bytes) -> int:
        """Absorb one leaf; returns its index."""
        node = _leaf_hash(bytes(leaf))
        height = 0
        while self._peaks and self._peaks[-1][0] == height:
            _, sibling = self._peaks.pop()
            node = _node_hash(sibling, node)
            height += 1
        self._peaks.append((height, node))
        self._count += 1
        return self._count - 1

    def extend(self, leaves: Sequence[bytes]) -> int:
        """Absorb many leaves; returns the new leaf count."""
        for leaf in leaves:
            self.append(leaf)
        return self._count

    @property
    def root(self) -> bytes:
        """Fold the peaks into the :class:`MerkleTree`-equivalent root.

        The lowest peak is raised by self-pairing until it reaches the
        next peak's height (the duplicate-the-odd-node rule applied once
        per level), then combined; repeated up to the highest peak.
        """
        if not self._peaks:
            raise ValueError("Merkle tree needs at least one leaf")
        height, node = self._peaks[-1]
        for peak_height, peak in reversed(self._peaks[:-1]):
            while height < peak_height:
                node = _node_hash(node, node)
                height += 1
            node = _node_hash(peak, node)
            height = peak_height + 1
        return node

    @property
    def root_hex(self) -> str:
        return self.root.hex()


def root_from_path(leaf_data: bytes,
                   path: Sequence[Tuple[bytes, bool]]) -> bytes:
    """The root that ``leaf_data`` hashes up to along an authentication
    ``path`` of ``(sibling_hash, sibling_is_left)`` steps."""
    current = _leaf_hash(leaf_data)
    for sibling, sibling_is_left in path:
        if sibling_is_left:
            current = _node_hash(sibling, current)
        else:
            current = _node_hash(current, sibling)
    return current


def verify_proof(root: bytes, leaf_data: bytes, proof: MerkleProof) -> bool:
    """Check a membership proof against a trusted root."""
    return root_from_path(leaf_data, proof.path) == root


def require_proof(root: bytes, leaf_data: bytes, proof: MerkleProof) -> None:
    """Raise IntegrityError when a proof does not verify."""
    if not verify_proof(root, leaf_data, proof):
        raise IntegrityError("Merkle membership proof failed")
