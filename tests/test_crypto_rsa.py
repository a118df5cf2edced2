"""Tests for the from-scratch RSA and hybrid envelope encryption."""

import builtins
import math

import pytest

from repro.blockchain.network import ORGANIZATIONS, consortium_msp
from repro.core.errors import IntegrityError
from repro.crypto import rsa
from repro.crypto.rsa import (
    _DeterministicRand,
    _is_probable_prime,
    generate_keypair,
    hybrid_decrypt,
    hybrid_encrypt,
    rsa_decrypt,
    rsa_encrypt,
    rsa_sign,
    rsa_verify,
    rsa_verify_batch,
)


class TestPrimality:
    def test_known_primes(self):
        for p in (2, 3, 101, 7919, 104729):
            assert _is_probable_prime(p)

    def test_known_composites(self):
        for n in (0, 1, 4, 100, 7917, 561, 41041):  # incl. Carmichaels
            assert not _is_probable_prime(n)


class TestKeygen:
    def test_seeded_deterministic(self):
        k1 = generate_keypair(bits=512, seed=1)
        k2 = generate_keypair(bits=512, seed=1)
        assert k1.n == k2.n and k1.d == k2.d

    def test_different_seeds_different_keys(self):
        assert (generate_keypair(bits=512, seed=1).n
                != generate_keypair(bits=512, seed=2).n)

    def test_modulus_size(self):
        key = generate_keypair(bits=512, seed=3)
        assert key.n.bit_length() >= 512

    def test_key_identity(self):
        key = generate_keypair(bits=512, seed=4)
        message = 0x1234567890ABCDEF
        assert pow(pow(message, key.e, key.n), key.d, key.n) == message

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            generate_keypair(bits=128)

    def test_odd_size_rejected(self):
        # Three primes of bits - 2*(bits//3), bits//3 and bits//3 bits
        # could reach an odd size; it is refused only because no caller
        # needs one.
        with pytest.raises(ValueError):
            generate_keypair(bits=257, seed=1)
        with pytest.raises(ValueError):
            generate_keypair(bits=1025)

    def test_unseeded_key_signs_and_verifies(self):
        key = generate_keypair(bits=512)
        assert key.n.bit_length() == 512
        assert all(_is_probable_prime(f) for f in (key.p, key.q, key.r))
        signature = rsa_sign(key, b"unseeded")
        assert rsa_verify(key.public_key(), b"unseeded", signature)

    def test_fingerprint_stable(self):
        key = generate_keypair(bits=512, seed=5).public_key()
        assert key.fingerprint() == key.fingerprint()
        assert len(key.fingerprint()) == 24


def _oracle_random_prime(bits, rand):
    while True:
        candidate = rand.getrandbits(bits) | (3 << (bits - 2)) | 1
        if _is_probable_prime(candidate, randbelow=rand.randbelow):
            return candidate


def _oracle_keypair(bits, seed):
    """The search without sieve or deferred rounds, as ``(n, e, d, p, q, r)``.

    The three primes are drawn in order, and every candidate runs its
    Miller-Rabin rounds as soon as it is drawn, so this is the reference
    the faster search must match key for key.
    """
    rand = _DeterministicRand(seed)
    e = 65537
    while True:
        p = _oracle_random_prime(bits - 2 * (bits // 3), rand)
        q = _oracle_random_prime(bits // 3, rand)
        r = _oracle_random_prime(bits // 3, rand)
        if len({p, q, r}) < 3:
            continue
        phi = (p - 1) * (q - 1) * (r - 1)
        if math.gcd(phi, e) != 1:
            continue
        n = p * q * r
        if n.bit_length() != bits:
            continue
        d = pow(e, -1, phi)
        return (n, e, d, p, q, r)


def _key_tuple(key):
    return (key.n, key.e, key.d, key.p, key.q, key.r)


class TestSearchOracle:
    @pytest.mark.parametrize("bits", [256, 384, 512])
    def test_matches_plain_search(self, bits):
        for seed in range(150):
            # The unmemoized search: 450 keys would evict the memoized
            # ones the rest of the suite shares.
            key = rsa._generate_keypair(bits, seed)
            assert _key_tuple(key) == _oracle_keypair(bits, seed), seed
            assert all(_is_probable_prime(f) for f in (key.p, key.q, key.r))

    def test_matches_plain_search_on_msp_seeds(self):
        # consortium_msp(seed=1), which every channel of a seed-1 network
        # shares, enrols the four peer members, the ingestion service and
        # the auditor; the n-th enrolment draws its key from
        # msp_seed * 65537 + n.
        msp_seed = 1
        msp = consortium_msp(seed=msp_seed)
        members = ([f"peer.{org}" for org in ORGANIZATIONS]
                   + ["ingestion-service", "auditor"])
        for counter, member_id in enumerate(members, start=1):
            key = generate_keypair(bits=1024,
                                   seed=msp_seed * 65_537 + counter)
            assert msp.identity(member_id).public_key == key.public_key()
            assert _key_tuple(key) == \
                _oracle_keypair(1024, msp_seed * 65_537 + counter)
            assert all(_is_probable_prime(f) for f in (key.p, key.q, key.r))


class TestThreePrimeKeys:
    @pytest.mark.parametrize("bits", [256, 512, 1024])
    def test_structure(self, bits):
        sizes = (bits - 2 * (bits // 3), bits // 3, bits // 3)
        for seed in range(5):
            key = generate_keypair(bits=bits, seed=8100 + seed)
            factors = (key.p, key.q, key.r)
            assert key.n == key.p * key.q * key.r
            assert key.n.bit_length() == bits
            assert len(set(factors)) == 3
            for factor, size in zip(factors, sizes):
                assert factor.bit_length() == size
                assert factor >> (size - 2) == 0b11
                assert _is_probable_prime(factor)
            lam = math.lcm(key.p - 1, key.q - 1, key.r - 1)
            assert key.e * key.d % lam == 1

    @pytest.mark.parametrize("bits", [512, 1024])
    def test_private_op_runs_three_third_size_pows(self, monkeypatch, bits):
        key = generate_keypair(bits=bits, seed=8100)
        value = int.from_bytes(b"three primes" * 12, "big") % key.n
        moduli = []

        def spy(base, exponent, modulus=None):
            moduli.append(modulus)
            return builtins.pow(base, exponent, modulus)

        monkeypatch.setattr(rsa, "pow", spy, raising=False)
        assert key.private_op(value) == builtins.pow(value, key.d, key.n)
        assert len(moduli) == 3
        assert all(m.bit_length() <= bits // 3 + 2 for m in moduli)


class _ScriptedRand:
    """Hands out scripted draws first, then those of a seeded stream."""

    def __init__(self, seed, bits, below):
        self._rest = _DeterministicRand(seed)
        self._bits = list(bits)
        self._below = list(below)

    def getrandbits(self, k):
        return self._bits.pop(0) if self._bits else self._rest.getrandbits(k)

    def randbelow(self, n):
        return self._below.pop(0) if self._below else self._rest.randbelow(n)


class TestDeferredRounds:
    # FACTOR is 3 mod 4 and both FACTOR and 2 * FACTOR - 1 are prime, so
    # their product is a strong pseudoprime to about a quarter of all
    # bases; both factors lie above the sieve's 16381.  The product is an
    # 86-bit number with its top two bits set, a candidate for the first
    # prime of a 256-bit key.
    FACTOR = 0x4E6238506A3

    def test_composite_passing_round_one_is_never_returned(self,
                                                            monkeypatch):
        small, large = self.FACTOR, 2 * self.FACTOR - 1
        composite = small * large
        assert composite.bit_length() == 86 and composite >> 84 == 0b11
        assert _is_probable_prime(small) and _is_probable_prime(large)
        assert math.gcd(composite, rsa._SIEVE_PRODUCT) == 1
        liar = next(a for a in range(2, 100)
                    if rsa._passes_miller_rabin(composite, (a,)))
        # The first candidate of a 256-bit search is the composite, and
        # its round-1 base is a strong liar.
        scripted = _ScriptedRand(seed=0, bits=[composite], below=[liar - 2])
        monkeypatch.setattr(rsa, "_DeterministicRand", lambda seed: scripted)
        witnessed = []
        passes = rsa._passes_miller_rabin

        def spy(n, bases):
            verdict = passes(n, bases)
            if not verdict:
                witnessed.append(n)
            return verdict

        monkeypatch.setattr(rsa, "_passes_miller_rabin", spy)
        key = rsa._generate_keypair(256, 0)
        # It passed round 1 and the triple checks, then a deferred round
        # found a witness.
        assert composite in witnessed
        factors = {key.p, key.q, key.r}
        assert not {composite, small, large} & (factors | {key.n})
        assert all(_is_probable_prime(f) for f in factors)


class TestEncryption:
    def test_roundtrip(self, small_rsa_keypair):
        public = small_rsa_keypair.public_key()
        ciphertext = rsa_encrypt(public, b"short secret")
        assert rsa_decrypt(small_rsa_keypair, ciphertext) == b"short secret"

    def test_randomized_padding(self, small_rsa_keypair):
        public = small_rsa_keypair.public_key()
        assert rsa_encrypt(public, b"m") != rsa_encrypt(public, b"m")

    def test_message_too_long(self, small_rsa_keypair):
        public = small_rsa_keypair.public_key()
        with pytest.raises(ValueError):
            rsa_encrypt(public, b"x" * 200)

    def test_wrong_length_ciphertext(self, small_rsa_keypair):
        with pytest.raises(IntegrityError):
            rsa_decrypt(small_rsa_keypair, b"abc")


class TestSignatures:
    def test_sign_verify(self, small_rsa_keypair):
        signature = rsa_sign(small_rsa_keypair, b"the message")
        assert rsa_verify(small_rsa_keypair.public_key(), b"the message",
                          signature)

    def test_verify_rejects_other_message(self, small_rsa_keypair):
        signature = rsa_sign(small_rsa_keypair, b"the message")
        assert not rsa_verify(small_rsa_keypair.public_key(),
                              b"another message", signature)

    def test_verify_rejects_other_key(self, small_rsa_keypair):
        other = generate_keypair(bits=512, seed=77)
        signature = rsa_sign(small_rsa_keypair, b"m")
        assert not rsa_verify(other.public_key(), b"m", signature)

    def test_verify_rejects_garbage(self, small_rsa_keypair):
        assert not rsa_verify(small_rsa_keypair.public_key(), b"m", b"junk")


class TestHybrid:
    def test_bulk_roundtrip(self, rsa_keypair):
        data = b"phi-record " * 10_000
        envelope = hybrid_encrypt(rsa_keypair.public_key(), data)
        assert hybrid_decrypt(rsa_keypair, envelope) == data

    def test_associated_data(self, rsa_keypair):
        envelope = hybrid_encrypt(rsa_keypair.public_key(), b"d", b"ctx")
        assert hybrid_decrypt(rsa_keypair, envelope, b"ctx") == b"d"
        with pytest.raises(IntegrityError):
            hybrid_decrypt(rsa_keypair, envelope, b"other")

    def test_wrong_private_key(self, rsa_keypair):
        other = generate_keypair(bits=1024, seed=31337)
        envelope = hybrid_encrypt(rsa_keypair.public_key(), b"data")
        with pytest.raises(IntegrityError):
            hybrid_decrypt(other, envelope)

    def test_envelope_overhead_is_bounded(self, rsa_keypair):
        data = b"x" * 100_000
        envelope = hybrid_encrypt(rsa_keypair.public_key(), data)
        assert len(envelope) < len(data) + 1024


class TestBatchVerification:
    def _signed_pairs(self, key, n):
        messages = [f"payload-{i}".encode() for i in range(n)]
        return [(m, rsa_sign(key, m)) for m in messages]

    def test_all_valid_batch(self, small_rsa_keypair):
        pairs = self._signed_pairs(small_rsa_keypair, 8)
        assert rsa_verify_batch(small_rsa_keypair.public_key(), pairs) == [
            True] * 8

    def test_culprit_identified(self, small_rsa_keypair):
        pairs = self._signed_pairs(small_rsa_keypair, 6)
        bad = bytearray(pairs[3][1])
        bad[0] ^= 0x55
        pairs[3] = (pairs[3][0], bytes(bad))
        verdicts = rsa_verify_batch(small_rsa_keypair.public_key(), pairs)
        assert verdicts == [True, True, True, False, True, True]

    def test_matches_per_signature_verify(self, small_rsa_keypair):
        public = small_rsa_keypair.public_key()
        pairs = self._signed_pairs(small_rsa_keypair, 5)
        pairs[1] = (pairs[1][0], pairs[2][1])  # signature over wrong message
        assert rsa_verify_batch(public, pairs) == [
            rsa_verify(public, m, s) for m, s in pairs]

    def test_duplicate_messages_fall_back_safely(self, small_rsa_keypair):
        # Screening soundness needs distinct messages; duplicates must
        # route to the per-signature path and still verify correctly.
        public = small_rsa_keypair.public_key()
        message = b"same-payload"
        sig = rsa_sign(small_rsa_keypair, message)
        pairs = [(message, sig), (message, sig),
                 (b"other", rsa_sign(small_rsa_keypair, b"other"))]
        assert rsa_verify_batch(public, pairs) == [True, True, True]

    def test_wrong_length_signature_rejected(self, small_rsa_keypair):
        public = small_rsa_keypair.public_key()
        pairs = self._signed_pairs(small_rsa_keypair, 3)
        pairs[0] = (pairs[0][0], pairs[0][1] + b"\x00")
        verdicts = rsa_verify_batch(public, pairs)
        assert verdicts == [False, True, True]

    def test_empty_and_single(self, small_rsa_keypair):
        public = small_rsa_keypair.public_key()
        assert rsa_verify_batch(public, []) == []
        message = b"solo"
        sig = rsa_sign(small_rsa_keypair, message)
        assert rsa_verify_batch(public, [(message, sig)]) == [True]
        assert rsa_verify_batch(public, [(b"not-solo", sig)]) == [False]

    def test_wrong_key_all_rejected(self, small_rsa_keypair):
        other = generate_keypair(bits=512, seed=31337)
        pairs = self._signed_pairs(small_rsa_keypair, 4)
        assert rsa_verify_batch(other.public_key(), pairs) == [False] * 4
