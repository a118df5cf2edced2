"""Federated JMF / DELT match their centralized counterparts.

The acceptance bound is rtol 1e-2; in practice JMF is bit-identical
(integer counts aggregate exactly in fixed point, and the factorization
is a deterministic seeded fit at the coordinator) and DELT agrees to
within the ``2^-24`` fixed-point quantization.
"""

import numpy as np
import pytest

from repro.analytics.delt import DeltModel
from repro.analytics.jmf import JointMatrixFactorization
from repro.analytics.similarity import (
    DiseaseSimilarityBuilder,
    DrugSimilarityBuilder,
)
from repro.blockchain import ShardedBlockchainNetwork
from repro.cloudsim.clock import SimClock
from repro.compute.scheduler import standard_scheduler
from repro.federation import (
    DeltStudyConfig,
    FederatedStudyService,
    JmfStudyConfig,
    build_institutions,
    consented_union,
)
from repro.knowledge.synthetic import generate_universe
from repro.workloads.emr import generate_emr_cohort

GROUP = "grp-fed-analytics"


@pytest.fixture(scope="module")
def small_universe():
    return generate_universe(n_drugs=16, n_diseases=12, n_genes=30,
                             n_abstracts=60, seed=3)


def run_study(service, analysis, participants, threshold=None):
    threshold = threshold if threshold is not None else len(participants)
    opened = service.propose(
        tenant_id="tenant-lab", researcher="user-researcher",
        analysis=analysis, group_id=GROUP, participants=participants,
        threshold=threshold)
    study_id = opened["study_id"]
    for name in participants[:threshold]:
        service.approve(study_id, name)
    service.run(study_id)
    return service.result_object(study_id)


def build_service(institutions, seed=9, jmf_config=None, delt_config=None):
    clock = institutions[0].clock
    network = ShardedBlockchainNetwork(1, seed=seed, clock=clock)
    scheduler = standard_scheduler(clock=clock)
    return FederatedStudyService(
        clock=clock, network=network, scheduler=scheduler,
        institutions=institutions, seed=seed,
        jmf_config=jmf_config, delt_config=delt_config)


class TestFederatedJmf:
    @pytest.mark.parametrize("n_institutions", [2, 4])
    def test_matches_centralized_bitwise(self, small_universe,
                                         n_institutions):
        universe = small_universe
        clock = SimClock()
        patient_ids = [f"pt-{i:03d}" for i in range(40)]
        institutions = build_institutions(
            n_institutions, clock, GROUP,
            patients=(), association_matrix=universe.association_matrix,
            seed=17, consent_rate=0.85)
        # build_institutions partitions PatientSeries; for JMF-only
        # studies the evidence is attached directly instead.
        from repro.federation.cohorts import synthesize_evidence
        for index, institution in enumerate(institutions):
            local_ids = patient_ids[index::n_institutions]
            institution._evidence = synthesize_evidence(
                universe.association_matrix, local_ids, seed=17 + index)
            for pid in local_ids:
                institution.grant_consent(pid, GROUP)

        drug_sims = DrugSimilarityBuilder(universe).all_sources()
        disease_sims = DiseaseSimilarityBuilder(universe).all_sources()
        config = JmfStudyConfig(
            n_drugs=len(universe.drugs), n_diseases=len(universe.diseases),
            drug_similarities=drug_sims, disease_similarities=disease_sims,
            jmf_kwargs={"rank": 4, "max_iterations": 40, "seed": 5})
        service = build_service(institutions, jmf_config=config)
        participants = [inst.name for inst in institutions]
        federated = run_study(service, "jmf", participants)

        # Centralized fit over the pooled consented evidence.
        counts = np.zeros((len(universe.drugs), len(universe.diseases)))
        for institution in institutions:
            counts += institution.jmf_counts(
                GROUP, len(universe.drugs),
                len(universe.diseases)).reshape(counts.shape)
        associations = (counts >= 1.0).astype(float)
        centralized = JointMatrixFactorization(
            rank=4, max_iterations=40, seed=5).fit(
                associations, drug_sims, disease_sims)

        np.testing.assert_array_equal(federated.scores(),
                                      centralized.scores())
        assert federated.drug_source_weights == \
            centralized.drug_source_weights


class TestFederatedDelt:
    @pytest.mark.parametrize("n_institutions", [2, 3])
    def test_matches_centralized_within_rtol(self, n_institutions):
        clock = SimClock()
        cohort = generate_emr_cohort(n_patients=45, n_drugs=10,
                                     n_lowering=3, seed=11)
        institutions = build_institutions(
            n_institutions, clock, GROUP, patients=cohort.patients,
            seed=11, consent_rate=0.9)
        config = DeltStudyConfig(n_drugs=10, ridge=1.0, max_iterations=6)
        service = build_service(institutions, delt_config=config)
        participants = [inst.name for inst in institutions]
        federated = run_study(service, "delt", participants)

        pooled_patients, _ = consented_union(institutions, GROUP)
        assert 0 < len(pooled_patients) < len(cohort.patients)
        centralized = DeltModel(n_drugs=10, ridge=1.0,
                                max_iterations=6).fit(pooled_patients)

        np.testing.assert_allclose(federated.effects, centralized.effects,
                                   rtol=1e-2, atol=1e-6)
        # Far tighter than the acceptance bound in practice.
        np.testing.assert_allclose(federated.effects, centralized.effects,
                                   rtol=1e-5, atol=1e-7)
        assert len(federated.objective_history) == \
            len(centralized.objective_history)
        np.testing.assert_allclose(federated.objective_history,
                                   centralized.objective_history, rtol=1e-5)

    def test_consent_respected_in_aggregates(self):
        """Revoking one patient's consent changes exactly their contribution."""
        clock = SimClock()
        cohort = generate_emr_cohort(n_patients=20, n_drugs=6,
                                     n_lowering=2, seed=13)
        institutions = build_institutions(2, clock, GROUP,
                                          patients=cohort.patients, seed=13)
        beta = np.zeros(6)
        before = sum(len(i.consented_patients(GROUP)) for i in institutions)
        partial_before = institutions[0].delt_partials(GROUP, beta)

        victim = institutions[0].consented_patients(GROUP)[0]
        institutions[0].consent.revoke_all_for_patient(victim)
        after = sum(len(i.consented_patients(GROUP)) for i in institutions)
        partial_after = institutions[0].delt_partials(GROUP, beta)

        assert after == before - 1
        assert not np.array_equal(partial_before, partial_after)
