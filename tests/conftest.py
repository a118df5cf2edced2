"""Shared fixtures.

Expensive artifacts (the synthetic universe, similarity matrices, the EMR
cohort, RSA keypairs) are session-scoped so the suite stays fast.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Any, Dict, Optional, Sequence

import pytest

from repro.blockchain import ProvenanceBatch
from repro.analytics.similarity import (
    DiseaseSimilarityBuilder,
    DrugSimilarityBuilder,
)
from repro.crypto.merkle import root_from_path
from repro.crypto.rsa import generate_keypair
from repro.knowledge.synthetic import generate_universe
from repro.workloads.emr import generate_emr_cohort

_BATCH_IDS = itertools.count(1)


def one_leaf_batch(batch_id: Optional[str] = None,
                   **event: Any) -> Dict[str, Any]:
    """``record_batch`` arguments committing the one provenance event
    ``event`` (``handle``, ``data_hash``, ``event``, ``actor`` and an
    optional ``metadata``): the tests' generic ledger write.

    Each call takes a fresh batch id, as a batch id is recorded once per
    channel; a golden sequence pins its own ``batch_id`` so that its
    digests do not depend on which tests ran before it.
    """
    batch = ProvenanceBatch()
    batch.append(**event)
    _, _, args = batch.request(
        batch_id or f"test-batch-{next(_BATCH_IDS):06d}")
    return args


def rfc9162_root(leaves: Sequence[bytes]) -> bytes:
    """RFC 9162 §2.1.1's Merkle Tree Hash, written recursively as the RFC
    states it: the reference the append-only ``MerkleTree`` must match.
    A tree of n > 1 leaves splits at the largest power of two below n."""
    if len(leaves) == 1:
        return hashlib.sha256(b"\x00" + leaves[0]).digest()
    k = 1 << ((len(leaves) - 1).bit_length() - 1)
    return hashlib.sha256(b"\x01" + rfc9162_root(leaves[:k])
                          + rfc9162_root(leaves[k:])).digest()


@pytest.fixture(scope="session")
def rsa_keypair():
    """A deterministic 1024-bit keypair shared across crypto tests."""
    return generate_keypair(bits=1024, seed=12345)


@pytest.fixture(scope="session")
def small_rsa_keypair():
    """A fast 512-bit keypair for tests that only need roundtrips."""
    return generate_keypair(bits=512, seed=999)


@pytest.fixture(scope="session")
def universe():
    """A small synthetic biomedical universe."""
    return generate_universe(n_drugs=80, n_diseases=60, n_genes=100,
                             n_abstracts=200, seed=7)


@pytest.fixture(scope="session")
def drug_similarities(universe):
    return DrugSimilarityBuilder(universe).all_sources()


@pytest.fixture(scope="session")
def disease_similarities(universe):
    return DiseaseSimilarityBuilder(universe).all_sources()


@pytest.fixture(scope="session")
def emr_cohort():
    """A confounded EMR cohort with planted effects."""
    return generate_emr_cohort(n_patients=200, n_drugs=24, n_lowering=4,
                               seed=21)


@pytest.fixture(scope="session")
def clean_emr_cohort():
    """The same cohort shape without confounders."""
    return generate_emr_cohort(n_patients=200, n_drugs=24, n_lowering=4,
                               seed=21, confounders=False)


def endorsement_verifies(msp, tx, endorsement):
    """Whether one endorsement of ``tx`` holds on its own: the visit root
    recomputed from the transaction's payload and the endorsement's
    path, then the member's signature on that root."""
    root = root_from_path(tx.payload(), endorsement.path)
    return msp.verify(endorsement.member_id, root, endorsement.signature)


def _per_signature_validate(peer, tx, policy):
    """Whether ``peer`` admits ``tx`` checking each endorsement alone: the
    reference that ``Peer.commit_block``'s batch screening must agree with."""
    for endorsement in tx.endorsements:
        if not endorsement_verifies(peer._msp, tx, endorsement):
            return False
    return peer._policy_admits(tx, policy)


@pytest.fixture
def reference_validate():
    """Per-signature endorsement validation, ``(peer, tx, policy) -> bool``."""
    return _per_signature_validate


@pytest.fixture
def output_key_reads(monkeypatch):
    """The task id of every ``TaskSpec.output_key`` read, in order."""
    from repro.compute.graph import TaskSpec

    reads = []
    output_key = TaskSpec.output_key.fget

    def counted(spec):
        reads.append(spec.task_id)
        return output_key(spec)

    monkeypatch.setattr(TaskSpec, "output_key", property(counted))
    return reads
