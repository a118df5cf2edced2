"""Merkle hash trees with membership proofs.

Used two ways in the platform: (i) as the baseline integrity scheme the
paper says *leaks* structural information when records are shared in parts
(Section IV-B1), against which the leakage-free redactable scheme is
compared; (ii) inside the blockchain package, for every root it commits
to: a block's transaction set, a provenance batch's events, the payloads
a peer signs on one visit, and the ledger's running root.
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
    """Append-only Merkle tree in the shape of RFC 9162 §2.1.1.

    A tree of n > 1 leaves splits at the largest power of two below n,
    and no node is paired with itself, so a leaf list and the same list
    with its last leaf repeated have different roots.  ``_levels[k]``
    holds the hash of each complete subtree of 2**k leaves, left to
    right (about two hashes per leaf); the last entry of each level of
    odd length is a *peak*, one per set bit of the leaf count.
    """

    __slots__ = ("_levels",)

    def __init__(self, leaves: Sequence[bytes] = ()) -> None:
        self._levels: List[List[bytes]] = [[]]
        self.extend(leaves)

    @property
    def leaf_count(self) -> int:
        return len(self._levels[0])

    def append(self, leaf: bytes) -> int:
        """Hash one leaf plus the subtrees it completes; returns its
        index."""
        levels = self._levels
        level = levels[0]
        level.append(_leaf_hash(bytes(leaf)))
        height = 0
        while len(level) % 2 == 0:
            height += 1
            if height == len(levels):
                levels.append([])
            levels[height].append(_node_hash(level[-2], level[-1]))
            level = levels[height]
        return len(levels[0]) - 1

    def extend(self, leaves: Sequence[bytes]) -> int:
        """Absorb many leaves; returns the new leaf count."""
        for leaf in leaves:
            self.append(leaf)
        return self.leaf_count

    def _fold_peaks(self) -> Tuple[List[bytes], List[bytes]]:
        """The complete subtrees the leaves split into, largest first,
        and ``folds[j]``, the root over ``peaks[j:]`` folded smallest
        first (``folds[0]`` is the tree's root)."""
        peaks = [level[-1] for level in reversed(self._levels)
                 if len(level) % 2]
        folds = peaks[-1:]
        for peak in reversed(peaks[:-1]):
            folds.insert(0, _node_hash(peak, folds[0]))
        return peaks, folds

    @property
    def root(self) -> bytes:
        if not self._levels[0]:
            raise ValueError("an empty Merkle tree has no root")
        return self._fold_peaks()[1][0]

    @property
    def root_hex(self) -> str:
        return self.root.hex()

    def proofs(self) -> List[MerkleProof]:
        """Authentication paths for every leaf, folding the peaks once
        (a visit signature hands one to each transaction it covers)."""
        peaks, folds = self._fold_peaks()
        return [self._proof(i, peaks, folds) for i in range(self.leaf_count)]

    def proof(self, index: int) -> MerkleProof:
        """Authentication path for leaf ``index``: the siblings inside
        its peak, then the fold of the smaller peaks, then each larger
        peak."""
        if not 0 <= index < self.leaf_count:
            raise IndexError(f"leaf index {index} out of range")
        return self._proof(index, *self._fold_peaks())

    def _proof(self, index: int, peaks: List[bytes],
               folds: List[bytes]) -> MerkleProof:
        # The leaf's peak has the height of the highest bit in which
        # ``index`` differs from the leaf count; the count's set bits
        # above it are the larger peaks.
        levels = self._levels
        count = len(levels[0])
        height = (count ^ index).bit_length() - 1
        larger = bin(count >> (height + 1)).count("1")
        path = [(levels[level][(index >> level) ^ 1],
                 bool((index >> level) & 1)) for level in range(height)]
        if larger + 1 < len(peaks):
            path.append((folds[larger + 1], False))
        path += [(peak, True) for peak in reversed(peaks[:larger])]
        return MerkleProof(index, tuple(path))


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
