"""E2 (Figs. 2-3): cost of the non-functional layers, one at a time.

The functional/non-functional split of Figs. 2-3 implies each security
layer (encryption, provenance ledger, malware scan, de-identification)
is a separable cost on the functional path.  We measure the core of each
layer on a fixed payload and report the per-record price of "weaving"
security in.
"""

import pytest

from repro.blockchain import standard_network
from repro.crypto.rsa import generate_keypair, hybrid_decrypt, hybrid_encrypt
from repro.crypto.symmetric import SharedKeyCipher, generate_key
from repro.fhir import Bundle, BundleValidator, Observation, Patient
from repro.ingestion.malware import MalwareScanner
from repro.privacy.deidentify import Deidentifier

from conftest import show


def _bundle(i=0):
    bundle = Bundle(id=f"b-{i}")
    bundle.add(Patient(id=f"pt-{i}", name={"family": "X"},
                       birthDate="1980-01-01", gender="male"))
    for j in range(5):
        bundle.add(Observation(id=f"pt-{i}-o{j}", code={"text": "HbA1c"},
                               subject=f"Patient/pt-{i}",
                               valueQuantity={"value": 6.0 + j}))
    return bundle


PAYLOAD = _bundle().to_json().encode()


@pytest.mark.benchmark(group="fig2-3-layers")
def test_layer_validation_only(benchmark):
    """Baseline functional path: parse + validate."""
    validator = BundleValidator()

    def run():
        return validator.validate(Bundle.from_json(PAYLOAD.decode()))

    report = benchmark(run)
    assert report.valid


@pytest.mark.benchmark(group="fig2-3-layers")
def test_layer_shared_key_encryption(benchmark):
    """Data-at-rest layer: AEAD encrypt + decrypt."""
    cipher = SharedKeyCipher(generate_key(1))

    def run():
        return cipher.decrypt(cipher.encrypt(PAYLOAD))

    assert benchmark(run) == PAYLOAD


@pytest.mark.benchmark(group="fig2-3-layers")
def test_layer_hybrid_upload_encryption(benchmark):
    """Client-upload layer: RSA-wrapped envelope."""
    keypair = generate_keypair(bits=1024, seed=5)

    def run():
        return hybrid_decrypt(keypair,
                              hybrid_encrypt(keypair.public_key(), PAYLOAD))

    assert benchmark(run) == PAYLOAD


@pytest.mark.benchmark(group="fig2-3-layers")
def test_layer_malware_scan(benchmark):
    """Filtration layer."""
    scanner = MalwareScanner()
    result = benchmark(scanner.scan, PAYLOAD)
    assert result.clean


@pytest.mark.benchmark(group="fig2-3-layers")
def test_layer_deidentification(benchmark):
    """Privacy layer: Safe-Harbor de-identification."""
    deidentifier = Deidentifier(b"bench-secret-0123456789abcdef")
    bundle = _bundle()

    def run():
        clean, mapping = deidentifier.deidentify_bundle(bundle)
        return clean

    clean = benchmark(run)
    assert clean.entries


@pytest.mark.benchmark(group="fig2-3-layers")
def test_layer_provenance_transaction(benchmark):
    """Ledger layer: one endorsed + committed provenance event."""
    network = standard_network(seed=3, batch_size=1)
    counter = [0]

    def run():
        counter[0] += 1
        network.invoke("ingestion-service", "provenance", "record_event",
                       handle=f"h-{counter[0]}", data_hash="ab" * 32,
                       event="received", actor="bench")

    benchmark(run)
    show("E2: provenance layer",
         [f"committed events: {counter[0]}",
         "expected shape: ledger >> crypto >> scan/validate per record"])
