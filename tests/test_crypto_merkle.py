"""Tests for Merkle trees and proofs."""

import pytest

from repro.core.errors import IntegrityError
from repro.crypto.merkle import MerkleTree, require_proof, verify_proof
from tests.conftest import rfc9162_root

# Certificate Transparency's test vectors: the leaves, and the root over
# the first n of them, n = 1..8.
CT_LEAVES = [bytes.fromhex(h) for h in (
    "", "00", "10", "2021", "3031", "40414243", "5051525354555657",
    "606162636465666768696a6b6c6d6e6f")]
CT_ROOTS = [
    "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    "fac54203e7cc696cf0dfcb42c92a1d9dbaf70ad9e621f4bd8d98662f00e3c125",
    "aeb6bcfe274b70a14fb067a5e5578264db0fa9b51af5e0ba159158f329e06e77",
    "d37ee418976dd95753c1c73862b9398fa2a2cf9b4ff0fdfe8b30cd95209614b7",
    "4e3bbb1f7b478dcfe71fb631631519a3bca12c9aefca1612bfce4c13a86264d4",
    "76e67dadbcdf1e10e1b74ddc608abd2f98dfb16fbce75277b5232a127f2087ef",
    "ddb89be403809e325750d3d263cd78929c2942b7942a34b77e122c9594a74c8c",
    "5dc9da79a70659a9ad559cb701ded9a2ab9d823aad2f4960cfe370eff4604328",
]


class TestMerkleTree:
    def test_single_leaf(self):
        tree = MerkleTree([b"only"])
        assert verify_proof(tree.root, b"only", tree.proof(0))

    def test_empty_rejected(self):
        """An empty tree is legal (a ledger and a batch start empty), but
        has no root and no proofs."""
        tree = MerkleTree([])
        assert tree.leaf_count == 0
        with pytest.raises(ValueError):
            tree.root
        with pytest.raises(IndexError):
            tree.proof(0)

    @pytest.mark.parametrize("n", range(1, len(CT_ROOTS) + 1))
    def test_certificate_transparency_roots(self, n):
        assert MerkleTree(CT_LEAVES[:n]).root_hex == CT_ROOTS[n - 1]
        assert rfc9162_root(CT_LEAVES[:n]).hex() == CT_ROOTS[n - 1]

    def test_all_proofs_verify(self):
        leaves = [f"leaf-{i}".encode() for i in range(7)]  # odd count
        tree = MerkleTree(leaves)
        for i, leaf in enumerate(leaves):
            assert verify_proof(tree.root, leaf, tree.proof(i))

    def test_power_of_two_leaves(self):
        leaves = [f"leaf-{i}".encode() for i in range(8)]
        tree = MerkleTree(leaves)
        for i, leaf in enumerate(leaves):
            assert verify_proof(tree.root, leaf, tree.proof(i))

    def test_wrong_leaf_fails(self):
        leaves = [b"a", b"b", b"c"]
        tree = MerkleTree(leaves)
        assert not verify_proof(tree.root, b"x", tree.proof(0))

    def test_wrong_position_fails(self):
        leaves = [b"a", b"b", b"c", b"d"]
        tree = MerkleTree(leaves)
        assert not verify_proof(tree.root, b"b", tree.proof(0))

    def test_root_changes_with_content(self):
        assert MerkleTree([b"a", b"b"]).root != MerkleTree([b"a", b"c"]).root

    def test_root_changes_with_order(self):
        assert MerkleTree([b"a", b"b"]).root != MerkleTree([b"b", b"a"]).root

    def test_leaf_node_domain_separation(self):
        # A single leaf's hash must not equal an inner node of its content.
        t1 = MerkleTree([b"a", b"b"])
        t2 = MerkleTree([t1.root])
        assert t1.root != t2.root

    def test_index_out_of_range(self):
        tree = MerkleTree([b"a"])
        with pytest.raises(IndexError):
            tree.proof(1)

    def test_require_proof_raises(self):
        tree = MerkleTree([b"a", b"b"])
        with pytest.raises(IntegrityError):
            require_proof(tree.root, b"z", tree.proof(0))

    def test_leaf_count(self):
        assert MerkleTree([b"a", b"b", b"c"]).leaf_count == 3


class TestIncrementalMerkleTree:
    """A MerkleTree grown leaf by leaf with append and extend."""

    def test_matches_batch_tree_for_all_small_sizes(self):
        leaves = [f"leaf-{i}".encode() for i in range(100)]
        tree = MerkleTree()
        for n, leaf in enumerate(leaves, start=1):
            tree.append(leaf)
            assert tree.root == MerkleTree(leaves[:n]).root, n
            assert tree.root == rfc9162_root(leaves[:n]), n
            assert tree.leaf_count == n

    def test_extend_matches_append(self):
        leaves = [f"leaf-{i}".encode() for i in range(17)]
        by_extend = MerkleTree(leaves[:5])
        by_extend.extend(leaves[5:])
        by_append = MerkleTree()
        for leaf in leaves:
            by_append.append(leaf)
        assert by_extend.root == by_append.root == MerkleTree(leaves).root

    def test_append_returns_leaf_index(self):
        tree = MerkleTree()
        assert tree.append(b"a") == 0
        assert tree.append(b"b") == 1

    def test_empty_tree_has_no_root(self):
        with pytest.raises(ValueError):
            MerkleTree().root

    def test_root_hex_matches_batch(self):
        leaves = [b"x", b"y", b"z"]
        tree = MerkleTree()
        tree.extend(leaves)
        assert tree.root_hex == MerkleTree(leaves).root.hex()
