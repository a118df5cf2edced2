"""Property tests: the bit-matrix kernel == the scalar reference, bit for bit.

:class:`BitMatrix` computes every Tanimoto and Jaccard matrix, in the
builders' full builds and in the streaming engine's row patches.  Its
counts are exact and ``inter / union`` is correctly rounded, so each
entry must equal ``_pairwise(..., tanimoto|jaccard)`` byte for byte
(``tobytes()``), not merely to within a tolerance.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analytics.similarity import (BitMatrix, DiseaseSimilarityBuilder,
                                        DrugSimilarityBuilder, _pairwise,
                                        jaccard, tanimoto)
from repro.knowledge.synthetic import generate_universe
from repro.streaming import IncrementalSimilarityEngine

WIDTH = 10
# Values other than 0 and 1 count as set bits, as tanimoto's astype(bool).
FINGERPRINT = st.lists(st.sampled_from([0, 0, 1, 2, -1]), min_size=WIDTH,
                       max_size=WIDTH).map(np.array)
# A small alphabet makes overlaps (and empty sets) common.
TERMS = st.sets(st.sampled_from("abcdefgh"), max_size=5)
# Terms no build ever saw, for row patches that must grow the vocabulary.
LATE_TERMS = st.sets(st.sampled_from("abcdefghUVWXYZ"), max_size=6)
ZERO = np.zeros(WIDTH, dtype=int)


def _same(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _check(bits: BitMatrix, features, fn) -> None:
    """Full build and every row against the scalar reference."""
    reference = _pairwise(features, fn)
    assert _same(bits.matrix(), reference)
    for i in range(len(features)):
        assert _same(bits.row(i), reference[i]), i


class TestFullBuild:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(FINGERPRINT, max_size=8))
    @example([ZERO, ZERO, ZERO])
    @example([ZERO, np.full(WIDTH, 2), np.full(WIDTH, -1)])
    @example([])
    def test_fingerprints(self, prints):
        _check(BitMatrix.of_fingerprints(prints), prints, tanimoto)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(TERMS, max_size=8))
    @example([set(), set(), {"a"}])
    @example([])
    def test_sets(self, sets):
        _check(BitMatrix.of_sets(sets), sets, jaccard)


class TestRowPatches:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(FINGERPRINT, min_size=1, max_size=6),
           st.lists(st.tuples(st.integers(0, 7), FINGERPRINT), max_size=8))
    def test_fingerprint_updates_and_appends(self, prints, edits):
        bits = BitMatrix.of_fingerprints(prints)
        prints = list(prints)
        for slot, fingerprint in edits:
            if slot >= len(prints):        # out-of-range slots append
                assert bits.append(fingerprint) == len(prints)
                prints.append(fingerprint)
                index = len(prints) - 1
            else:
                bits.set_row(slot, fingerprint)
                prints[slot] = fingerprint
                index = slot
            assert _same(bits.row(index), _pairwise(prints, tanimoto)[index])
        _check(bits, prints, tanimoto)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(TERMS, max_size=6),
           st.lists(st.tuples(st.integers(0, 7), LATE_TERMS), max_size=8))
    @example([set()], [(0, set()), (1, {"Z"}), (0, {"Z"})])
    def test_set_updates_and_appends_with_unseen_terms(self, sets, edits):
        bits = BitMatrix.of_sets(sets)
        sets = list(sets)
        for slot, terms in edits:
            if slot >= len(sets):
                assert bits.append(terms) == len(sets)
                sets.append(terms)
                index = len(sets) - 1
            else:
                bits.set_row(slot, terms)
                sets[slot] = terms
                index = slot
            assert _same(bits.row(index), _pairwise(sets, jaccard)[index])
        _check(bits, sets, jaccard)


UNIVERSE = generate_universe(n_drugs=6, n_diseases=5, seed=23)
FP_BITS = UNIVERSE.drugs[0].fingerprint.size
PHENO_DIM = UNIVERSE.diseases[0].phenotype.size


def _scalar_reference(engine):
    """The four Tanimoto/Jaccard matrices, one scalar call per pair."""
    drugs, diseases = engine.drugs, engine.diseases
    ids, disease_ids = drugs.drug_ids, diseases.disease_ids
    return {
        "chemical": _pairwise([drugs.pubchem.fingerprint(d) for d in ids],
                              tanimoto),
        "target": _pairwise([drugs.drugbank.targets(d) for d in ids],
                            jaccard),
        "side_effect": _pairwise([drugs.sider.side_effects(d) for d in ids],
                                 jaccard),
        "disease_gene": _pairwise(
            [diseases.disgenet.genes_for_disease(d) for d in disease_ids],
            jaccard),
    }


class TestEngineAgainstScalar:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["add_drug", "add_disease",
                                               "update_drug",
                                               "update_disease"]),
                              st.integers(0, 63), st.integers(0, 2 ** 16)),
                    min_size=1, max_size=10))
    def test_grown_and_patched_matrices_equal_scalar(self, operations):
        """Inserts grow every matrix; updates bring terms the universe
        never had (``T…``, ``SE…``, ``G…``) and all-zero fingerprints."""
        engine = IncrementalSimilarityEngine(
            DrugSimilarityBuilder(UNIVERSE), DiseaseSimilarityBuilder(UNIVERSE))
        for counter, (kind, slot, seed) in enumerate(operations):
            rng = np.random.default_rng(seed)
            fingerprint = rng.integers(-1, 3, FP_BITS) * (seed % 5 != 0)
            terms = {f"T{rng.integers(6):03d}" for _ in range(seed % 3)}
            effects = {f"SE{rng.integers(6):03d}" for _ in range(seed % 4)}
            genes = {f"G{rng.integers(6):04d}" for _ in range(seed % 3)}
            if kind == "add_drug":
                engine.add_drug(f"NEW-D-{counter}", fingerprint=fingerprint,
                                targets=terms, side_effects=effects)
            elif kind == "add_disease":
                engine.add_disease(f"NEW-Z-{counter}",
                                   phenotype=rng.normal(size=PHENO_DIM),
                                   ontology_path=("root",), genes=genes)
            elif kind == "update_drug":
                ids = engine.drugs.drug_ids
                engine.update_drug(ids[slot % len(ids)],
                                   fingerprint=fingerprint, targets=terms,
                                   side_effects=effects)
            else:
                ids = engine.diseases.disease_ids
                engine.update_disease(ids[slot % len(ids)], genes=genes)
        for source, reference in _scalar_reference(engine).items():
            assert _same(engine.matrices[source], reference), source
