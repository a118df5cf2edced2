"""Tests for the software TPM: PCRs, quotes, seal/unseal."""

import pytest

from repro.core.errors import AttestationError
from repro.crypto.symmetric import Ciphertext
from repro.trusted.tpm import PCR_COUNT, Quote, Tpm, verify_quote


@pytest.fixture
def tpm():
    return Tpm("tpm:test", seed=1)


MEASUREMENT = "ab" * 32
OTHER = "cd" * 32


class TestPcrs:
    def test_pcrs_start_zero(self, tpm):
        assert tpm.read_pcr(0) == "00" * 32

    def test_extend_changes_pcr(self, tpm):
        before = tpm.read_pcr(0)
        tpm.extend(0, "bios", MEASUREMENT)
        assert tpm.read_pcr(0) != before

    def test_extend_order_matters(self):
        t1, t2 = Tpm("a", seed=1), Tpm("b", seed=1)
        t1.extend(0, "x", MEASUREMENT)
        t1.extend(0, "y", OTHER)
        t2.extend(0, "y", OTHER)
        t2.extend(0, "x", MEASUREMENT)
        assert t1.read_pcr(0) != t2.read_pcr(0)

    def test_same_extends_same_pcr(self):
        t1, t2 = Tpm("a", seed=1), Tpm("b", seed=2)
        t1.extend(3, "x", MEASUREMENT)
        t2.extend(3, "x", MEASUREMENT)
        assert t1.read_pcr(3) == t2.read_pcr(3)

    def test_event_log_records(self, tpm):
        tpm.extend(0, "bios", MEASUREMENT)
        tpm.extend(1, "kernel", OTHER)
        log = tpm.event_log
        assert [e.component for e in log] == ["bios", "kernel"]

    def test_reset_clears(self, tpm):
        tpm.extend(0, "bios", MEASUREMENT)
        tpm.reset()
        assert tpm.read_pcr(0) == "00" * 32
        assert tpm.event_log == []

    def test_index_bounds(self, tpm):
        with pytest.raises(IndexError):
            tpm.read_pcr(PCR_COUNT)
        with pytest.raises(IndexError):
            tpm.extend(-1, "x", MEASUREMENT)


class TestQuotes:
    def test_quote_verifies(self, tpm):
        tpm.extend(0, "bios", MEASUREMENT)
        nonce = b"fresh-nonce-0001"
        quote = tpm.quote(nonce, (0, 1))
        assert verify_quote(tpm.attestation_public_key, quote, nonce)

    def test_replayed_nonce_rejected(self, tpm):
        quote = tpm.quote(b"nonce-a", (0,))
        assert not verify_quote(tpm.attestation_public_key, quote, b"nonce-b")

    def test_forged_pcr_rejected(self, tpm):
        nonce = b"nonce"
        quote = tpm.quote(nonce, (0,))
        forged = Quote(quote.tpm_id, quote.nonce,
                       {0: "ff" * 32}, quote.event_count, quote.signature)
        assert not verify_quote(tpm.attestation_public_key, forged, nonce)

    def test_other_tpm_key_rejected(self, tpm):
        other = Tpm("tpm:other", seed=2)
        nonce = b"nonce"
        quote = tpm.quote(nonce, (0,))
        assert not verify_quote(other.attestation_public_key, quote, nonce)

    def test_quote_covers_selected_pcrs(self, tpm):
        tpm.extend(5, "x", MEASUREMENT)
        quote = tpm.quote(b"n", (0, 5))
        assert set(quote.pcr_values) == {0, 5}


class TestSealedStorage:
    def test_seal_unseal_roundtrip(self, tpm):
        tpm.extend(0, "bios", MEASUREMENT)
        blob = tpm.seal(b"disk encryption key", (0,))
        assert tpm.unseal(blob) == b"disk encryption key"

    def test_unseal_fails_after_pcr_change(self, tpm):
        tpm.extend(0, "bios", MEASUREMENT)
        blob = tpm.seal(b"secret", (0,))
        tpm.extend(0, "rootkit", OTHER)
        with pytest.raises(AttestationError):
            tpm.unseal(blob)

    def test_unrelated_pcr_change_ok(self, tpm):
        tpm.extend(0, "bios", MEASUREMENT)
        blob = tpm.seal(b"secret", (0,))
        tpm.extend(7, "other", OTHER)
        assert tpm.unseal(blob) == b"secret"

    def test_seals_under_one_policy_never_share_a_nonce(self):
        tpm = Tpm("t1", seed=4)
        tpm.extend(0, "bios", MEASUREMENT)
        secrets = [b"disk key one", b"disk key two", b"disk key 3"]
        blobs = [tpm.seal(secret, (0,)) for secret in secrets]
        blobs.append(tpm.seal(b"other policy", (0, 7)))

        def nonce(blob):
            header_len = int.from_bytes(blob[:4], "big")
            return Ciphertext.from_bytes(blob[4 + header_len:]).nonce

        assert len({nonce(blob) for blob in blobs}) == len(blobs)
        assert [tpm.unseal(blob) for blob in blobs] == secrets + [
            b"other policy"]
