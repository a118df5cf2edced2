"""Property-based tests for the crypto substrate (hypothesis)."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.crypto.merkle import MerkleTree, verify_proof
from repro.crypto.redactable import (
    RedactableSigner,
    deterministic_rng,
    redact,
    verify_share,
)
from repro.crypto.rsa import generate_keypair, rsa_decrypt, rsa_encrypt, rsa_sign
from repro.crypto.symmetric import Ciphertext, SharedKeyCipher, generate_key
from tests.conftest import rfc9162_root

KEYPAIR = generate_keypair(bits=768, seed=4242)
# Every modulus size the repo actually uses (conftest fixtures: 512/1024;
# this module: 768) — the CRT fast path must agree at all of them.
CRT_KEYPAIRS = [generate_keypair(bits=bits, seed=7000 + bits)
                for bits in (512, 768, 1024)]
_NO_DEADLINE = settings(deadline=None,
                        suppress_health_check=[HealthCheck.too_slow])


class TestAeadProperties:
    @given(plaintext=st.binary(max_size=4096),
           associated=st.binary(max_size=64),
           key_seed=st.integers(0, 1000))
    @_NO_DEADLINE
    def test_roundtrip(self, plaintext, associated, key_seed):
        cipher = SharedKeyCipher(generate_key(key_seed))
        assert cipher.decrypt(cipher.encrypt(plaintext, associated),
                              associated) == plaintext

    @given(plaintext=st.binary(min_size=1, max_size=1024),
           flip_index=st.integers(0, 10_000))
    @_NO_DEADLINE
    def test_any_bitflip_detected(self, plaintext, flip_index):
        from repro.core.errors import IntegrityError
        cipher = SharedKeyCipher(generate_key(1))
        ciphertext = cipher.encrypt(plaintext)
        raw = bytearray(ciphertext.to_bytes())
        raw[flip_index % len(raw)] ^= 0x01
        with pytest.raises(IntegrityError):
            cipher.decrypt(Ciphertext.from_bytes(bytes(raw)))

    @given(plaintext=st.binary(max_size=512))
    @_NO_DEADLINE
    def test_serialization_stable(self, plaintext):
        cipher = SharedKeyCipher(generate_key(2))
        ciphertext = cipher.encrypt(plaintext)
        assert Ciphertext.from_bytes(ciphertext.to_bytes()).to_bytes() == \
            ciphertext.to_bytes()


_KEY_1024 = CRT_KEYPAIRS[2]


class TestCrtRsaProperties:
    """The CRT fast path must be indistinguishable from schoolbook RSA."""

    @given(value=st.integers(min_value=0, max_value=2**1024),
           key_index=st.integers(0, len(CRT_KEYPAIRS) - 1))
    @example(value=0, key_index=2)
    @example(value=1, key_index=2)
    @example(value=_KEY_1024.n - 1, key_index=2)
    @example(value=_KEY_1024.p * 3, key_index=2)
    @example(value=_KEY_1024.q * 5, key_index=2)
    @example(value=_KEY_1024.r * 7, key_index=2)
    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.too_slow])
    def test_private_op_matches_schoolbook(self, value, key_index):
        # Every value in [0, n), a multiple of each prime included: the
        # residue the CRT takes modulo that prime is 0.
        keypair = CRT_KEYPAIRS[key_index]
        value %= keypair.n
        assert keypair.private_op(value) == pow(value, keypair.d, keypair.n)

    @given(message=st.binary(min_size=1, max_size=48),
           key_index=st.integers(0, len(CRT_KEYPAIRS) - 1))
    @settings(deadline=None, max_examples=25,
              suppress_health_check=[HealthCheck.too_slow])
    def test_decrypt_agrees_and_roundtrips(self, message, key_index):
        keypair = CRT_KEYPAIRS[key_index]
        ciphertext = rsa_encrypt(keypair.public_key(), message)
        fast = rsa_decrypt(keypair, ciphertext, use_crt=True)
        slow = rsa_decrypt(keypair, ciphertext, use_crt=False)
        assert fast == slow == message

    @given(message=st.binary(min_size=1, max_size=256),
           key_index=st.integers(0, len(CRT_KEYPAIRS) - 1))
    @settings(deadline=None, max_examples=25,
              suppress_health_check=[HealthCheck.too_slow])
    def test_signatures_identical(self, message, key_index):
        keypair = CRT_KEYPAIRS[key_index]
        assert rsa_sign(keypair, message, use_crt=True) == \
            rsa_sign(keypair, message, use_crt=False)


class TestMerkleProperties:
    @given(leaves=st.lists(st.binary(max_size=16), min_size=1, max_size=100))
    @_NO_DEADLINE
    def test_append_roots_match_reference(self, leaves):
        tree = MerkleTree()
        for n, leaf in enumerate(leaves, start=1):
            tree.append(leaf)
            assert tree.root == rfc9162_root(leaves[:n]), n
            assert tree.root == MerkleTree(leaves[:n]).root, n

    @given(leaves=st.lists(st.binary(max_size=64), min_size=1, max_size=100))
    @_NO_DEADLINE
    def test_every_leaf_provable(self, leaves):
        tree = MerkleTree(leaves)
        for i, leaf in enumerate(leaves):
            assert verify_proof(tree.root, leaf, tree.proof(i))
            assert not verify_proof(tree.root, leaf + b"!", tree.proof(i))

    @given(leaves=st.lists(st.binary(max_size=32), min_size=1, max_size=100))
    @example(leaves=[b"a", b"b", b"c"])
    @_NO_DEADLINE
    def test_repeated_last_leaf_changes_root(self, leaves):
        assert (MerkleTree(leaves).root
                != MerkleTree(leaves + leaves[-1:]).root)

    @given(leaves=st.lists(st.binary(max_size=32), min_size=2, max_size=20,
                           unique=True),
           index=st.integers(0, 1000))
    @_NO_DEADLINE
    def test_proof_not_transferable(self, leaves, index):
        tree = MerkleTree(leaves)
        i = index % len(leaves)
        j = (i + 1) % len(leaves)
        # Leaf j's data cannot verify with leaf i's proof.
        assert not verify_proof(tree.root, leaves[j], tree.proof(i))


class TestRedactableProperties:
    @given(fields=st.lists(st.binary(min_size=1, max_size=32),
                           min_size=1, max_size=12),
           disclosure_seed=st.integers(0, 2**16),
           rng_seed=st.integers(0, 2**16))
    @settings(deadline=None, max_examples=25,
              suppress_health_check=[HealthCheck.too_slow])
    def test_any_subset_verifies(self, fields, disclosure_seed, rng_seed):
        import random
        signer = RedactableSigner(KEYPAIR, rng=deterministic_rng(rng_seed))
        record = signer.sign(fields)
        rng = random.Random(disclosure_seed)
        subset = [i for i in range(len(fields)) if rng.random() < 0.5]
        share = redact(record, subset)
        assert verify_share(KEYPAIR.public_key(), share)
        assert set(share.disclosed) == set(subset)

    @given(fields=st.lists(st.binary(min_size=1, max_size=16),
                           min_size=2, max_size=8),
           rng_seed=st.integers(0, 2**16))
    @settings(deadline=None, max_examples=25,
              suppress_health_check=[HealthCheck.too_slow])
    def test_hidden_field_bytes_never_in_share(self, fields, rng_seed):
        signer = RedactableSigner(KEYPAIR, rng=deterministic_rng(rng_seed))
        record = signer.sign(fields)
        share = redact(record, [0])  # hide everything but field 0
        serialized = b"".join(share.commitments) + b"".join(
            share.order_tokens) + share.signature
        for hidden in fields[1:]:
            if len(hidden) >= 8 and hidden not in fields[0]:
                assert hidden not in serialized
