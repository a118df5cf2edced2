"""Property tests: incremental operators == full recompute.

The correctness backstop for the O(delta) fast path: after *any*
interleaving of feature updates and entity inserts, every incrementally
maintained matrix must match a from-scratch builder rebuild over the
same knowledge bases (bit for bit for the Tanimoto/Jaccard sources,
within 1e-9 otherwise), and the Welford baselines must match a full
numpy re-fit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.similarity import (DiseaseSimilarityBuilder,
                                        DrugSimilarityBuilder)
from repro.knowledge.synthetic import generate_universe
from repro.streaming import IncrementalSimilarityEngine, RunningMoments
from repro.streaming.incremental import BIT_SOURCES

UNIVERSE = generate_universe(n_drugs=8, n_diseases=6, seed=11)
FP_BITS = UNIVERSE.drugs[0].fingerprint.size
PHENO_DIM = UNIVERSE.diseases[0].phenotype.size


def _fresh_engine():
    return IncrementalSimilarityEngine(DrugSimilarityBuilder(UNIVERSE),
                                       DiseaseSimilarityBuilder(UNIVERSE))


def _rebuild(engine):
    drugs = DrugSimilarityBuilder(UNIVERSE, pubchem=engine.drugs.pubchem,
                                  drugbank=engine.drugs.drugbank,
                                  sider=engine.drugs.sider)
    drugs._drug_ids = list(engine.drugs.drug_ids)
    diseases = DiseaseSimilarityBuilder(UNIVERSE,
                                        disgenet=engine.diseases.disgenet)
    diseases._disease_ids = list(engine.diseases.disease_ids)
    return {**drugs.all_sources(), **diseases.all_sources()}


# One operation = (kind, entity-slot, payload seed).  Entity slots index
# into the current id list modulo its length, so sequences stay valid as
# inserts grow the universe.
_OPERATION = st.tuples(
    st.sampled_from(["fingerprint", "targets", "side_effects", "phenotype",
                     "ontology", "genes", "insert_drug", "insert_disease"]),
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=2 ** 16))


def _apply(engine, op, counter):
    kind, slot, payload_seed = op
    rng = np.random.default_rng(payload_seed)
    if kind == "insert_drug":
        engine.add_drug(f"NEW-D-{counter}",
                        fingerprint=rng.integers(0, 2, FP_BITS),
                        targets={f"T{rng.integers(60):03d}"},
                        side_effects={f"SE{rng.integers(90):03d}"})
        return
    if kind == "insert_disease":
        engine.add_disease(f"NEW-Z-{counter}",
                           phenotype=rng.normal(size=PHENO_DIM),
                           ontology_path=("root", f"n{payload_seed % 7}"),
                           genes={f"G{rng.integers(200):04d}"})
        return
    if kind in ("fingerprint", "targets", "side_effects"):
        ids = engine.drugs.drug_ids
        drug_id = ids[slot % len(ids)]
        if kind == "fingerprint":
            engine.update_drug(drug_id,
                               fingerprint=rng.integers(0, 2, FP_BITS))
        elif kind == "targets":
            engine.update_drug(drug_id, targets={
                f"T{rng.integers(60):03d}" for _ in range(3)})
        else:
            engine.update_drug(drug_id, side_effects={
                f"SE{rng.integers(90):03d}" for _ in range(3)})
        return
    ids = engine.diseases.disease_ids
    disease_id = ids[slot % len(ids)]
    if kind == "phenotype":
        engine.update_disease(disease_id,
                              phenotype=rng.normal(size=PHENO_DIM))
    elif kind == "ontology":
        engine.update_disease(
            disease_id,
            ontology_path=tuple(f"n{i}" for i in
                                range(1 + payload_seed % 4)))
    else:
        engine.update_disease(disease_id, genes={
            f"G{rng.integers(200):04d}" for _ in range(2)})


class TestSimilarityEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(_OPERATION, min_size=1, max_size=12))
    def test_any_interleaving_matches_full_rebuild(self, operations):
        engine = _fresh_engine()
        for counter, op in enumerate(operations):
            _apply(engine, op, counter)
        reference = _rebuild(engine)
        for source, matrix in engine.matrices.items():
            if source in BIT_SOURCES:
                assert np.array_equal(matrix, reference[source]), source
            else:
                assert np.allclose(matrix, reference[source],
                                   atol=1e-9), source

    @settings(max_examples=25, deadline=None)
    @given(st.lists(_OPERATION, min_size=1, max_size=10))
    def test_incremental_cost_is_linear_not_quadratic(self, operations):
        """Every operation pays at most (sources x (n-1)) pair evals —
        never the full n(n-1)/2 rebuild."""
        engine = _fresh_engine()
        for counter, op in enumerate(operations):
            before = engine.pair_evals
            _apply(engine, op, counter)
            spent = engine.pair_evals - before
            n = max(len(engine.drugs.drug_ids),
                    len(engine.diseases.disease_ids))
            assert spent <= 3 * (n - 1)


class TestBaselineEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=3.0, max_value=15.0,
                              allow_nan=False), min_size=1, max_size=60))
    def test_welford_matches_full_refit(self, values):
        moments = RunningMoments()
        for value in values:
            moments.update(value)
        assert abs(moments.mean - float(np.mean(values))) <= 1e-9
        assert abs(moments.variance - float(np.var(values))) <= 1e-9
