"""Tests for the shared-key AEAD and HMAC helpers."""

import hashlib
import hmac
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import IntegrityError
from repro.crypto.symmetric import (
    Ciphertext,
    SharedKeyCipher,
    _keystream,
    compute_hmac,
    generate_key,
    hkdf_expand,
    verify_hmac,
)


def _reference_keystream(key, nonce, length):
    """The block-at-a-time HMAC-CTR keystream: block i is HMAC(key,
    nonce || i), one pair of SHA-256 states copied per block, as RFC
    2104 defines HMAC for a key of at most one hash block."""
    padded = key.ljust(64, b"\0")
    inner = hashlib.sha256(bytes(byte ^ 0x36 for byte in padded))
    inner.update(nonce)
    outer = hashlib.sha256(bytes(byte ^ 0x5C for byte in padded))
    blocks = []
    for counter in range((length + 31) // 32):
        block = inner.copy()
        block.update(struct.pack(">q", counter))
        keyed = outer.copy()
        keyed.update(block.digest())
        blocks.append(keyed.digest())
    return b"".join(blocks)[:length]


class TestKeys:
    def test_seeded_keys_deterministic(self):
        assert generate_key(7) == generate_key(7)
        assert generate_key(7) != generate_key(8)

    def test_unseeded_keys_random(self):
        assert generate_key() != generate_key()

    def test_hkdf_lengths(self):
        key = generate_key(1)
        assert len(hkdf_expand(key, b"a", 16)) == 16
        assert len(hkdf_expand(key, b"a", 100)) == 100

    def test_hkdf_info_separation(self):
        key = generate_key(1)
        assert hkdf_expand(key, b"enc") != hkdf_expand(key, b"mac")


class TestAead:
    def test_roundtrip(self):
        cipher = SharedKeyCipher(generate_key(1))
        ciphertext = cipher.encrypt(b"protected health information")
        assert cipher.decrypt(ciphertext) == b"protected health information"

    def test_empty_plaintext(self):
        cipher = SharedKeyCipher(generate_key(1))
        assert cipher.decrypt(cipher.encrypt(b"")) == b""

    def test_large_plaintext(self):
        cipher = SharedKeyCipher(generate_key(2))
        data = bytes(range(256)) * 4096  # 1 MiB
        assert cipher.decrypt(cipher.encrypt(data)) == data

    def test_ciphertext_differs_from_plaintext(self):
        cipher = SharedKeyCipher(generate_key(1))
        assert cipher.encrypt(b"hello" * 10).body != b"hello" * 10

    def test_nonces_unique_per_message(self):
        cipher = SharedKeyCipher(generate_key(1))
        c1 = cipher.encrypt(b"same")
        c2 = cipher.encrypt(b"same")
        assert c1.nonce != c2.nonce
        assert c1.body != c2.body

    def test_tamper_detected(self):
        cipher = SharedKeyCipher(generate_key(1))
        ciphertext = cipher.encrypt(b"attack at dawn")
        flipped = bytes([ciphertext.body[0] ^ 1]) + ciphertext.body[1:]
        tampered = Ciphertext(ciphertext.nonce, flipped, ciphertext.tag)
        with pytest.raises(IntegrityError):
            cipher.decrypt(tampered)

    def test_wrong_key_rejected(self):
        good = SharedKeyCipher(generate_key(1))
        evil = SharedKeyCipher(generate_key(2))
        with pytest.raises(IntegrityError):
            evil.decrypt(good.encrypt(b"secret"))

    def test_associated_data_bound(self):
        cipher = SharedKeyCipher(generate_key(1))
        ciphertext = cipher.encrypt(b"payload", associated_data=b"record-1")
        assert cipher.decrypt(ciphertext, b"record-1") == b"payload"
        with pytest.raises(IntegrityError):
            cipher.decrypt(ciphertext, b"record-2")

    def test_serialization_roundtrip(self):
        cipher = SharedKeyCipher(generate_key(3))
        ciphertext = cipher.encrypt(b"data")
        restored = Ciphertext.from_bytes(ciphertext.to_bytes())
        assert cipher.decrypt(restored) == b"data"

    def test_short_blob_rejected(self):
        with pytest.raises(IntegrityError):
            Ciphertext.from_bytes(b"short")

    def test_bad_key_length(self):
        with pytest.raises(ValueError):
            SharedKeyCipher(b"short")


class TestHmac:
    def test_verify_roundtrip(self):
        key = generate_key(4)
        tag = compute_hmac(key, b"graph data")
        assert verify_hmac(key, b"graph data", tag)

    def test_verify_rejects_changes(self):
        key = generate_key(4)
        tag = compute_hmac(key, b"graph data")
        assert not verify_hmac(key, b"graph datum", tag)
        assert not verify_hmac(generate_key(5), b"graph data", tag)


class TestKeystreamAlignment:
    def test_xor_length_mismatch_raises(self):
        # A short keystream used to silently truncate the data via zip();
        # that corrupts ciphertexts undetectably, so it must be an error.
        from repro.crypto.symmetric import _xor
        with pytest.raises(IntegrityError, match="keystream length"):
            _xor(b"twelve bytes", b"short")
        with pytest.raises(IntegrityError, match="keystream length"):
            _xor(b"short", b"a much longer keystream")

    def test_xor_equal_lengths_round_trips(self):
        from repro.crypto.symmetric import _xor
        data, stream = b"payload-bytes", b"keystream-byt"
        assert _xor(_xor(data, stream), stream) == data

    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 4096])
    def test_keystream_blocks_are_hmac_of_nonce_and_counter(self, length):
        from repro.crypto.symmetric import _keystream
        key, nonce = generate_key(21), bytes(range(16))
        expected = b"".join(
            hmac.new(key, nonce + struct.pack(">q", i),
                     hashlib.sha256).digest()
            for i in range((length + 31) // 32))[:length]
        assert _keystream(key, nonce, length) == expected

    def test_keystream_refuses_a_key_longer_than_the_hash_block(self):
        """Such a key would have to be hashed first to be HMAC."""
        from repro.crypto.symmetric import _keystream
        key = bytes(range(64))
        assert _keystream(key, b"n", 32) == hmac.new(
            key, b"n" + struct.pack(">q", 0), hashlib.sha256).digest()
        with pytest.raises(ValueError, match="at most 64 bytes"):
            _keystream(key + b"x", b"n", 32)


class TestKnownAnswers:
    """Fixed outputs of the HMAC-CTR keystream and the AEAD.

    Recorded from the block-at-a-time construction (one ``hmac.new`` per
    32-byte block, bytewise XOR); any faster rewrite must reproduce them.
    """

    def test_keystream_vector(self):
        from repro.crypto.symmetric import _keystream
        assert _keystream(generate_key(13), bytes(16), 40).hex() == (
            "a34725bbe09526e6aea43f297bb12159000990ebc5c18516b64c5691947bd45b"
            "aa872bdbae518401")

    def test_short_message_vector(self):
        cipher = SharedKeyCipher(generate_key(5))
        assert cipher.encrypt(b"hello clinic").to_bytes().hex() == (
            "df5f0baa3ff1eb020000000000000001be178ce17bf1c716fd3bea06"
            "590573c8fe8755e47b02ae4172afbd92ce7c9e2c89cececfe5910832"
            "22ba6ea1")

    @pytest.mark.parametrize("length, digest", [
        (0, "51109713a0d75263c531ae81126324df95408a1263488522d18ca12af0e7139e"),
        (1, "b04a0cc002dfd1dac764bd64bdd6abe9131337f575bf225baab94a386053f688"),
        (31, "4c50223834815be89c068e03ad00f12080f3fb45f1b5e759cdf64a14c6151839"),
        (32, "ca619edc660a6b43b2d2b353da306be13bcf44a757067827faa34417c4124cbe"),
        (33, "046b394c1936fc282840ab773bd3822c0308c9bbdbb62f3f7dbac76618fe106c"),
        (4600,
         "856aeb4474bc13e51982ebaec91e5b6424399fb7e18e775de67fb01b0c437dde"),
    ])
    def test_ciphertext_vectors(self, length, digest):
        """Lengths around the 32-byte block; 4600 bytes is about one
        ingest bundle."""
        cipher = SharedKeyCipher(generate_key(13))
        plaintext = (bytes(range(256)) * (length // 256 + 1))[:length]
        ciphertext = cipher.encrypt(plaintext, b"ad").to_bytes()
        assert hashlib.sha256(ciphertext).hexdigest() == digest
        assert cipher.decrypt(Ciphertext.from_bytes(ciphertext),
                              b"ad") == plaintext


class TestKeystreamAgainstReference:
    """The one-shot keystream equals the block loop it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(key=st.binary(max_size=64), nonce=st.binary(max_size=24),
           length=st.integers(0, 12_345))
    def test_matches_the_block_loop(self, key, nonce, length):
        assert _keystream(key, nonce, length) == _reference_keystream(
            key, nonce, length)

    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 63, 64, 65,
                                        1_500, 4_096, 12_345])
    def test_matches_at_block_boundaries(self, length):
        key, nonce = generate_key(34), bytes(range(16))
        assert _keystream(key, nonce, length) == _reference_keystream(
            key, nonce, length)

    def test_refuses_a_length_the_block_counter_cannot_reach(self):
        key, nonce = generate_key(34), bytes(16)
        for length in (-1, (32 << 32) + 1):
            with pytest.raises(ValueError, match="keystream length"):
                _keystream(key, nonce, length)
