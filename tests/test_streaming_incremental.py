"""Tests for the O(delta) incremental operators and the builder cache."""

import numpy as np
import pytest

from repro.analytics.similarity import (DiseaseSimilarityBuilder,
                                        DrugSimilarityBuilder)
from repro.compute import standard_scheduler
from repro.knowledge.synthetic import generate_universe
from repro.streaming import (IncrementalSimilarityEngine, RunningBaselines,
                             RunningMoments)


@pytest.fixture
def universe():
    return generate_universe(n_drugs=12, n_diseases=8, seed=7)


@pytest.fixture
def engine(universe):
    return IncrementalSimilarityEngine(DrugSimilarityBuilder(universe),
                                       DiseaseSimilarityBuilder(universe))


def _reference(engine, universe):
    """A from-scratch rebuild over the same (mutated) knowledge bases."""
    drugs = DrugSimilarityBuilder(universe, pubchem=engine.drugs.pubchem,
                                  drugbank=engine.drugs.drugbank,
                                  sider=engine.drugs.sider)
    drugs._drug_ids = list(engine.drugs.drug_ids)
    diseases = DiseaseSimilarityBuilder(universe,
                                        disgenet=engine.diseases.disgenet)
    diseases._disease_ids = list(engine.diseases.disease_ids)
    return {**drugs.all_sources(), **diseases.all_sources()}


class TestRunningMoments:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        values = rng.normal(7.0, 1.5, size=200)
        moments = RunningMoments()
        for value in values:
            moments.update(float(value))
        assert moments.mean == pytest.approx(np.mean(values), abs=1e-9)
        assert moments.variance == pytest.approx(np.var(values), abs=1e-9)
        assert moments.sample_variance == pytest.approx(
            np.var(values, ddof=1), abs=1e-9)

    def test_empty_and_single(self):
        moments = RunningMoments()
        assert moments.variance == 0.0
        moments.update(4.0)
        assert (moments.mean, moments.variance,
                moments.sample_variance) == (4.0, 0.0, 0.0)


class TestRunningBaselines:
    def test_per_patient_and_cohort(self):
        baselines = RunningBaselines()
        for value in (6.0, 7.0, 8.0):
            baselines.observe("alice", value)
        baselines.observe("bob", 9.0)
        assert baselines.patient("alice").mean == pytest.approx(7.0)
        assert baselines.cohort.mean == pytest.approx(7.5)
        assert baselines.patient_ids == ["alice", "bob"]
        with pytest.raises(KeyError):
            baselines.patient("carol")

    def test_top_active_tracks_heavy_hitters(self):
        baselines = RunningBaselines()
        for _ in range(5):
            baselines.observe("alice", 7.0)
        baselines.observe("bob", 7.0)
        assert baselines.top_active(1) == [("alice", 5.0)]
        assert baselines.describe()["sketch_exact"]


class TestRowUpdates:
    def test_drug_fingerprint_update_equivalent(self, engine, universe):
        drug_id = engine.drugs.drug_ids[3]
        fingerprint = np.array(engine.drugs.pubchem.fingerprint(drug_id))
        fingerprint[:8] = 1 - fingerprint[:8]
        spent = engine.update_drug(drug_id, fingerprint=fingerprint)
        assert spent == len(engine.drugs.drug_ids) - 1
        reference = _reference(engine, universe)
        assert np.array_equal(engine.matrices["chemical"],
                              reference["chemical"])

    def test_drug_sets_update_equivalent(self, engine, universe):
        drug_id = engine.drugs.drug_ids[0]
        engine.update_drug(drug_id, targets={"T001", "T002"},
                           side_effects={"SE001"})
        reference = _reference(engine, universe)
        assert np.array_equal(engine.matrices["target"], reference["target"])
        assert np.array_equal(engine.matrices["side_effect"],
                              reference["side_effect"])

    def test_disease_phenotype_update_equivalent(self, engine, universe):
        """Adaptive bandwidth: one row shifts the whole kernel, and the
        incrementally maintained distance matrix reproduces it exactly."""
        disease_id = engine.diseases.disease_ids[2]
        phenotype = np.array(
            engine.diseases.disgenet.phenotype(disease_id)) + 0.3
        spent = engine.update_disease(disease_id, phenotype=phenotype)
        assert spent == len(engine.diseases.disease_ids) - 1
        reference = _reference(engine, universe)
        assert np.allclose(engine.matrices["phenotype"],
                           reference["phenotype"], atol=1e-9)

    def test_disease_ontology_and_genes_equivalent(self, engine, universe):
        disease_id = engine.diseases.disease_ids[5]
        engine.update_disease(disease_id,
                              ontology_path=("root", "x", "y"),
                              genes={"G0001", "G0002"})
        reference = _reference(engine, universe)
        assert np.allclose(engine.matrices["ontology"],
                           reference["ontology"], atol=1e-9)
        assert np.array_equal(engine.matrices["disease_gene"],
                              reference["disease_gene"])

    def test_gene_reverse_index_stays_honest(self, engine):
        disgenet = engine.diseases.disgenet
        disease_id = engine.diseases.disease_ids[0]
        old_genes = set(disgenet.genes_for_disease(disease_id))
        engine.update_disease(disease_id, genes={"G9999"})
        assert disgenet.diseases_for_gene("G9999") == {disease_id}
        for gene in old_genes:
            assert disease_id not in disgenet.diseases_for_gene(gene)


class TestInserts:
    def test_add_drug_grows_all_matrices(self, engine, universe):
        n = len(engine.drugs.drug_ids)
        rng = np.random.default_rng(1)
        engine.add_drug("DRUG-NEW",
                        fingerprint=rng.integers(0, 2, 128),
                        targets={"T001"}, side_effects={"SE001", "SE002"})
        assert len(engine.drugs.drug_ids) == n + 1
        reference = _reference(engine, universe)
        for source in ("chemical", "target", "side_effect"):
            assert engine.matrices[source].shape == (n + 1, n + 1)
            assert np.array_equal(engine.matrices[source],
                                  reference[source]), source

    def test_add_disease_grows_all_matrices(self, engine, universe):
        n = len(engine.diseases.disease_ids)
        dim = universe.diseases[0].phenotype.size
        engine.add_disease("DIS-NEW",
                           phenotype=np.full(dim, 0.25),
                           ontology_path=("root", "new"),
                           genes={"G0007"})
        assert len(engine.diseases.disease_ids) == n + 1
        reference = _reference(engine, universe)
        for source in ("phenotype", "ontology", "disease_gene"):
            assert engine.matrices[source].shape == (n + 1, n + 1)
            assert np.allclose(engine.matrices[source], reference[source],
                               atol=1e-9), source

    def test_duplicate_insert_rejected(self, engine):
        existing = engine.drugs.drug_ids[0]
        with pytest.raises(ValueError):
            engine.drugs.add_drug_id(existing)

    def test_rejected_add_drug_writes_nothing(self, engine, universe):
        """A duplicate id is rejected before the knowledge bases change,
        so the matrices and primed caches still equal a rebuild."""
        existing = engine.drugs.drug_ids[0]
        fingerprint = np.array(engine.drugs.pubchem.fingerprint(existing))
        targets = engine.drugs.drugbank.targets(existing)
        effects = engine.drugs.sider.side_effects(existing)
        with pytest.raises(ValueError):
            engine.add_drug(existing, fingerprint=1 - fingerprint,
                            targets={"T-REJECTED"},
                            side_effects={"SE-REJECTED"})
        assert np.array_equal(engine.drugs.pubchem.fingerprint(existing),
                              fingerprint)
        assert engine.drugs.drugbank.targets(existing) == targets
        assert engine.drugs.sider.side_effects(existing) == effects
        reference = _reference(engine, universe)
        for source in ("chemical", "target", "side_effect"):
            assert np.array_equal(engine.matrices[source],
                                  reference[source]), source
            assert engine.drugs.all_sources()[source] is (
                engine.matrices[source])

    def test_rejected_add_disease_writes_nothing(self, engine, universe):
        disgenet = engine.diseases.disgenet
        existing = engine.diseases.disease_ids[0]
        phenotype = np.array(disgenet.phenotype(existing))
        path = disgenet.ontology_path(existing)
        genes = disgenet.genes_for_disease(existing)
        with pytest.raises(ValueError):
            engine.add_disease(existing, phenotype=phenotype + 1.0,
                               ontology_path=("root", "rejected"),
                               genes={"G-REJECTED"})
        assert np.array_equal(disgenet.phenotype(existing), phenotype)
        assert disgenet.ontology_path(existing) == path
        assert disgenet.genes_for_disease(existing) == genes
        assert disgenet.diseases_for_gene("G-REJECTED") == set()
        reference = _reference(engine, universe)
        for source in ("phenotype", "ontology", "disease_gene"):
            assert np.array_equal(engine.matrices[source],
                                  reference[source]), source
            assert engine.diseases.all_sources()[source] is (
                engine.matrices[source])


class TestBuilderCache:
    def test_one_build_per_dirty_epoch(self, universe):
        """The regression the satellite fix demands: repeated accessor
        calls cost one build until invalidated, then exactly one more."""
        builder = DrugSimilarityBuilder(universe)
        for _ in range(4):
            builder.chemical()
        assert builder.build_counts == {"chemical": 1}
        builder.invalidate("chemical")
        builder.chemical()
        builder.chemical()
        assert builder.build_counts == {"chemical": 1 + 1}

    def test_cached_accessors_return_same_object(self, universe):
        builder = DiseaseSimilarityBuilder(universe)
        assert builder.phenotype() is builder.phenotype()

    def test_invalidate_all(self, universe):
        builder = DrugSimilarityBuilder(universe)
        builder.all_sources()
        builder.invalidate()
        builder.all_sources()
        assert builder.build_counts == {"chemical": 2, "target": 2,
                                        "side_effect": 2}

    def test_prime_installs_without_counting_a_build(self, universe):
        builder = DrugSimilarityBuilder(universe)
        matrix = np.eye(len(builder.drug_ids))
        builder.prime("chemical", matrix)
        assert builder.chemical() is matrix
        assert builder.build_counts == {}

    def test_engine_updates_never_trigger_rebuilds(self, engine):
        """After construction, incremental updates keep the caches primed:
        accessors must not pay another full build."""
        baseline = dict(engine.drugs.build_counts)
        drug_id = engine.drugs.drug_ids[1]
        engine.update_drug(drug_id, targets={"T003"})
        engine.drugs.target()
        engine.drugs.chemical()
        assert engine.drugs.build_counts == baseline


class TestDirtySetRefresh:
    def test_refresh_submits_only_dirty_rows(self, engine):
        scheduler = standard_scheduler()
        drug_id = engine.drugs.drug_ids[2]
        disease_id = engine.diseases.disease_ids[1]
        engine.update_drug(drug_id, targets={"T009"})
        engine.update_disease(disease_id, genes={"G0001"})
        assert engine.dirty_drugs == {drug_id}
        assert engine.dirty_diseases == {disease_id}
        job = engine.refresh_job(scheduler)
        scheduler.run(job.job_id)
        assert job.state.value == "succeeded"
        # one row task per dirty entity + the fan-in summary
        assert len(job.graph.tasks) == 3
        assert f"row-{drug_id}" in job.graph.tasks
        assert engine.dirty_drugs == set() and engine.dirty_diseases == set()
        row = scheduler.result(job.job_id, f"row.{drug_id}")
        assert len(row) == len(engine.drugs.drug_ids)

    def test_refresh_with_nothing_dirty_is_none(self, engine):
        scheduler = standard_scheduler()
        assert engine.refresh_job(scheduler) is None

    def test_epoch_advances_per_refresh(self, engine):
        scheduler = standard_scheduler()
        for i in range(2):
            engine.update_drug(engine.drugs.drug_ids[i], targets={"T1"})
            engine.refresh_job(scheduler)
        assert engine.epoch == 2
