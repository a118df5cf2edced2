"""From-scratch RSA, used as the public-key comparator for E6/E7.

The paper (Section IV-B1) argues "public key encryption is too expensive to
maintain the scalability of the system" and therefore encrypts bulk data
with a shared key.  To *measure* that claim rather than assert it, this
module implements real RSA — Miller–Rabin key generation, PKCS#1-v1.5-style
padding, raw encrypt/decrypt/sign/verify, and the hybrid (envelope) mode
the platform actually uses for client upload keys.

Not a security-audited implementation; it is a faithful cost model whose
asymptotics (modexp-dominated) match production RSA.
"""

from __future__ import annotations

import hashlib
import math
import secrets
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.errors import IntegrityError
from .symmetric import Ciphertext, SharedKeyCipher, generate_key

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]
_MR_ROUNDS = 24


def _sieve_product(low: int, high: int) -> int:
    """Product of the primes in ``[low, high]`` (sieve of Eratosthenes)."""
    flags = bytearray([1]) * (high + 1)
    flags[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(high) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, high + 1, i)))
    return math.prod(i for i in range(low, high + 1) if flags[i])


# One gcd against this ~23 kbit product rejects a prime candidate with a
# factor in 101..16381 for ~50 us, where a Miller-Rabin round costs one
# full-size ``pow`` (~1 ms for a 512-bit candidate).
_SIEVE_PRODUCT = _sieve_product(101, 16381)


def _passes_miller_rabin(n: int, bases: Iterable[int]) -> bool:
    """Run one Miller-Rabin round per base on odd ``n``; False on a witness.

    ``bases`` is consumed lazily, so a generator that draws each base from
    a random source draws no base after the first witness.
    """
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_probable_prime(n: int, rounds: int = _MR_ROUNDS,
                       randbelow=secrets.randbelow) -> bool:
    """Miller–Rabin primality test."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    return _passes_miller_rabin(n, (2 + randbelow(n - 3)
                                    for _ in range(rounds)))


class _DeterministicRand:
    """Deterministic random source for seeded (test) key generation."""

    def __init__(self, seed: int) -> None:
        self._state = hashlib.sha256(f"rsa-seed:{seed}".encode()).digest()

    def randbelow(self, n: int) -> int:
        self._state = hashlib.sha256(self._state).digest()
        return int.from_bytes(self._state + hashlib.sha256(self._state + b"x").digest(),
                              "big") % n

    def getrandbits(self, k: int) -> int:
        nbytes = (k + 7) // 8 + 8
        out = b""
        while len(out) < nbytes:
            self._state = hashlib.sha256(self._state).digest()
            out += self._state
        return int.from_bytes(out[:nbytes], "big") >> (nbytes * 8 - k)


def _prime_candidate(bits: int, rand) -> Tuple[int, List[int]]:
    """The next ``bits``-bit candidate that passes Miller–Rabin round 1.

    Takes from ``rand`` what ``_is_probable_prime`` would take for the
    same candidates, as long as no composite passes a round: nothing for
    one that trial division rejects, one base for one that the sieve or
    round 1 rejects, and all 24 bases for the one returned.  The sieve (a
    gcd with the primes 101..16381) only skips round 1's ``pow``, after
    the base is drawn.  The bases of rounds 2..24 come back unused, for
    the caller to run once the candidate's pair makes a key.
    """
    while True:
        n = rand.getrandbits(bits) | (1 << (bits - 1)) | 1
        if any(n % p == 0 for p in _SMALL_PRIMES):
            continue
        first = 2 + rand.randbelow(n - 3)
        if (math.gcd(n, _SIEVE_PRODUCT) == 1
                and _passes_miller_rabin(n, (first,))):
            return n, [2 + rand.randbelow(n - 3)
                       for _ in range(_MR_ROUNDS - 1)]


@dataclass(frozen=True)
class RsaPublicKey:
    """(n, e) pair."""

    n: int
    e: int

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def fingerprint(self) -> str:
        """Stable identifier for key registries and attestation allow-lists."""
        raw = self.n.to_bytes(self.byte_length, "big") + self.e.to_bytes(8, "big")
        return hashlib.sha256(raw).hexdigest()[:24]


@dataclass(frozen=True)
class RsaPrivateKey:
    """(n, e, d) triple plus the CRT parameters derived from p/q.

    ``d_p``/``d_q``/``q_inv`` are precomputed once at construction so every
    private-key operation (decrypt, sign) can run two half-size modular
    exponentiations and a Garner recombination instead of one full-size
    exponentiation — the classic ~3-4x CRT speedup.  The schoolbook path is
    kept (``use_crt=False``) as the measured baseline.
    """

    n: int
    e: int
    d: int
    p: int
    q: int
    d_p: int = 0
    d_q: int = 0
    q_inv: int = 0

    def __post_init__(self) -> None:
        if self.p and self.q and not (self.d_p and self.d_q and self.q_inv):
            object.__setattr__(self, "d_p", self.d % (self.p - 1))
            object.__setattr__(self, "d_q", self.d % (self.q - 1))
            object.__setattr__(self, "q_inv", pow(self.q, -1, self.p))

    def public_key(self) -> RsaPublicKey:
        return RsaPublicKey(self.n, self.e)

    def private_op(self, value: int, use_crt: bool = True) -> int:
        """Compute ``value ** d mod n``.

        With ``use_crt`` (the default) the exponentiation is split over the
        prime factors and recombined with Garner's formula; the schoolbook
        ``pow(value, d, n)`` remains available for equivalence tests and
        before/after benchmarks.
        """
        if not use_crt or not self.q_inv:
            return pow(value, self.d, self.n)
        m_p = pow(value % self.p, self.d_p, self.p)
        m_q = pow(value % self.q, self.d_q, self.q)
        h = (self.q_inv * (m_p - m_q)) % self.p
        return m_q + h * self.q


class _SecretsRand:
    randbelow = staticmethod(secrets.randbelow)
    getrandbits = staticmethod(lambda k: secrets.randbits(k))


def generate_keypair(bits: int = 1024, seed: Optional[int] = None) -> RsaPrivateKey:
    """Generate an RSA keypair; ``seed`` makes it deterministic for tests.

    Seeded generation is a pure function of ``(bits, seed)``, so its result
    is memoized: simulations that stand up many platforms with the same
    seed (benchmarks, the test suite) pay the Miller–Rabin search once.
    The returned key is frozen, so sharing the instance is safe.  The
    unseeded (``secrets``) path is never cached.
    """
    if seed is not None:
        return _seeded_keypair(bits, seed)
    return _generate_keypair(bits, None)


@lru_cache(maxsize=512)
def _seeded_keypair(bits: int, seed: int) -> RsaPrivateKey:
    return _generate_keypair(bits, seed)


def _generate_keypair(bits: int, seed: Optional[int]) -> RsaPrivateKey:
    if bits < 256:
        raise ValueError("modulus too small to hold padded payloads")
    if bits % 2:
        raise ValueError("modulus size must be even: each prime has bits // 2")
    rand = _DeterministicRand(seed) if seed is not None else _SecretsRand()
    e = 65537
    while True:
        p, p_bases = _prime_candidate(bits // 2, rand)
        q, q_bases = _prime_candidate(bits // 2, rand)
        if p == q:
            continue
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        n = p * q
        if n.bit_length() < bits:
            continue
        # Rounds 2..24 run only for a pair that makes a key; a witness
        # (a composite that passed round 1) discards the pair.
        if not (_passes_miller_rabin(p, p_bases)
                and _passes_miller_rabin(q, q_bases)):
            continue
        d = pow(e, -1, phi)
        return RsaPrivateKey(n=n, e=e, d=d, p=p, q=q)


def _pad(message: bytes, k: int) -> bytes:
    """PKCS#1-v1.5-shaped randomized padding: 00 02 PS 00 M."""
    if len(message) > k - 11:
        raise ValueError(f"message too long for {k}-byte modulus")
    ps_len = k - 3 - len(message)
    ps = bytes((b % 255) + 1 for b in secrets.token_bytes(ps_len))
    return b"\x00\x02" + ps + b"\x00" + message


def _unpad(padded: bytes) -> bytes:
    if len(padded) < 11 or padded[0:2] != b"\x00\x02":
        raise IntegrityError("RSA padding check failed")
    try:
        sep = padded.index(0, 2)
    except ValueError:
        raise IntegrityError("RSA padding separator missing") from None
    return padded[sep + 1:]


def rsa_encrypt(public: RsaPublicKey, message: bytes) -> bytes:
    """Encrypt a short message directly under RSA."""
    k = public.byte_length
    m = int.from_bytes(_pad(message, k), "big")
    return pow(m, public.e, public.n).to_bytes(k, "big")


def rsa_decrypt(private: RsaPrivateKey, ciphertext: bytes,
                use_crt: bool = True) -> bytes:
    """Decrypt and strip padding."""
    k = (private.n.bit_length() + 7) // 8
    if len(ciphertext) != k:
        raise IntegrityError("ciphertext length does not match modulus")
    c = int.from_bytes(ciphertext, "big")
    m = private.private_op(c, use_crt=use_crt)
    return _unpad(m.to_bytes(k, "big"))


def _encoded_digest(k: int, message: bytes) -> bytes:
    """The deterministic PKCS#1-v1.5 signature encoding of a message."""
    digest = hashlib.sha256(message).digest()
    return b"\x00\x01" + b"\xff" * (k - 3 - len(digest)) + b"\x00" + digest


def rsa_sign(private: RsaPrivateKey, message: bytes,
             use_crt: bool = True) -> bytes:
    """Hash-then-sign signature."""
    k = (private.n.bit_length() + 7) // 8
    padded = _encoded_digest(k, message)
    s = private.private_op(int.from_bytes(padded, "big"), use_crt=use_crt)
    return s.to_bytes(k, "big")


def rsa_verify(public: RsaPublicKey, message: bytes, signature: bytes) -> bool:
    """Verify a hash-then-sign signature."""
    k = public.byte_length
    if len(signature) != k:
        return False
    m = pow(int.from_bytes(signature, "big"), public.e, public.n)
    return m.to_bytes(k, "big") == _encoded_digest(k, message)


def rsa_verify_batch(public: RsaPublicKey,
                     pairs: Sequence[Tuple[bytes, bytes]]) -> List[bool]:
    """Screening-style aggregate verification of same-key signatures.

    Checks ``(prod s_i)^e == prod EM_i (mod n)`` — one public-key
    exponentiation plus 2(k-1) modular multiplications instead of k
    exponentiations (Bellare–Garay–Rabin screening).  When every
    signature in the batch is individually valid the aggregate relation
    always holds; when it fails, the batch falls back to per-signature
    :func:`rsa_verify` so the culprit signatures are identified exactly.

    Screening soundness requires *distinct* messages within a batch (a
    forger who controls two slots of the same message can cancel bogus
    factors); batches with duplicate messages — and signatures of the
    wrong length, which a product would silently absorb — are routed to
    the per-signature path.  Block validation groups endorsements by
    endorsing member, and transaction payloads within a block are unique,
    so the fast path is the common one.

    Returns one verdict per ``(message, signature)`` pair, in order.
    """
    pairs = list(pairs)
    if not pairs:
        return []
    if len(pairs) == 1:
        message, signature = pairs[0]
        return [rsa_verify(public, message, signature)]
    k = public.byte_length
    messages = [message for message, _ in pairs]
    if (len(set(messages)) != len(messages)
            or any(len(signature) != k for _, signature in pairs)):
        return [rsa_verify(public, message, signature)
                for message, signature in pairs]
    sig_product = 1
    encoded_product = 1
    for message, signature in pairs:
        sig_product = (sig_product
                       * int.from_bytes(signature, "big")) % public.n
        encoded_product = (encoded_product * int.from_bytes(
            _encoded_digest(k, message), "big")) % public.n
    if pow(sig_product, public.e, public.n) == encoded_product:
        return [True] * len(pairs)
    return [rsa_verify(public, message, signature)
            for message, signature in pairs]


@dataclass(frozen=True)
class HybridCiphertext:
    """Envelope encryption: RSA-wrapped data key + AEAD body."""

    wrapped_key: bytes
    body: Ciphertext

    def __len__(self) -> int:
        return len(self.wrapped_key) + len(self.body)


class EnvelopeSession:
    """One data key, wrapped once under ``public``, that seals many bodies.

    A one-shot envelope pays an RSA wrap to send and an RSA unwrap to
    open.  A session pays them once: every body it seals carries the same
    wrapped key and takes its cipher's next counter nonce, so no two
    bodies of one session share a nonce.
    """

    def __init__(self, public: RsaPublicKey) -> None:
        data_key = generate_key()
        self.wrapped_key = rsa_encrypt(public, data_key)
        self._cipher = SharedKeyCipher(data_key)
        self.sealed = 0

    def seal(self, plaintext: bytes,
             associated_data: bytes = b"") -> HybridCiphertext:
        self.sealed += 1
        return HybridCiphertext(
            self.wrapped_key, self._cipher.encrypt(plaintext, associated_data))


def hybrid_encrypt(public: RsaPublicKey, plaintext: bytes,
                   associated_data: bytes = b"") -> HybridCiphertext:
    """Encrypt bulk data with a fresh shared key, wrap the key under RSA.

    Clients encrypt to the platform's public certificate, but the bulk
    work is symmetric.  This is a session of one envelope; client uploads
    share an :class:`EnvelopeSession` across bundles.
    """
    return EnvelopeSession(public).seal(plaintext, associated_data)


def hybrid_decrypt(private: RsaPrivateKey, envelope: HybridCiphertext,
                   associated_data: bytes = b"",
                   opened: Optional[Dict[bytes, SharedKeyCipher]] = None
                   ) -> bytes:
    """Unwrap the data key and decrypt the body.

    ``opened`` is a memo the caller owns, from a wrapped key to the
    cipher it unwrapped to.  A hit skips the RSA unwrap.  After a miss,
    the opened session replaces the memo's contents only once the body's
    tag verifies under it, so a bogus wrapping or a tampered body never
    evicts a good session.
    """
    cipher = opened.get(envelope.wrapped_key) if opened is not None else None
    if cipher is not None:
        return cipher.decrypt(envelope.body, associated_data)
    cipher = SharedKeyCipher(rsa_decrypt(private, envelope.wrapped_key))
    plaintext = cipher.decrypt(envelope.body, associated_data)
    if opened is not None:
        opened.clear()
        opened[envelope.wrapped_key] = cipher
    return plaintext
