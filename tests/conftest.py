"""Shared fixtures.

Expensive artifacts (the synthetic universe, similarity matrices, the EMR
cohort, RSA keypairs) are session-scoped so the suite stays fast.
"""

from __future__ import annotations

import pytest

from repro.analytics.similarity import (
    DiseaseSimilarityBuilder,
    DrugSimilarityBuilder,
)
from repro.crypto.rsa import generate_keypair
from repro.knowledge.synthetic import generate_universe
from repro.workloads.emr import generate_emr_cohort


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


def _per_signature_validate(peer, tx, policy):
    """Whether ``peer`` admits ``tx`` checking each endorsement alone: the
    reference that ``Peer.commit_block``'s batch screening must agree with."""
    for member_id, signature in tx.endorsements:
        if not peer._msp.verify(member_id, tx.payload(), signature):
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
