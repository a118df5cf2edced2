"""Drug and disease similarity computation (Section V-A).

"Drug similarities can be calculated by multiple methods such as
similarity in chemical structure, drug targets, and side effects.  We have
used the PubChem database to determine similarities in chemical structures
... DrugBank ... to determine similarity in drug targets ... SIDER ... to
determine similarity in side effects."

Disease similarities mirror the paper's three sources: phenotype,
ontology, and disease genes.  Builders assemble full similarity matrices
from the knowledge bases, which JMF consumes.

Every Tanimoto and Jaccard matrix (chemical, target, side effect, disease
gene) comes from one bit-matrix kernel, :class:`BitMatrix`, which both
the builders' full builds and the streaming row patches use.  The scalar
:func:`tanimoto` and :func:`jaccard` are the reference it is tested
against, entry for entry and bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from ..knowledge.bases import DisGeNetLike, DrugBankLike, PubChemLike, SiderLike
from ..knowledge.synthetic import BioUniverse


def tanimoto(a: np.ndarray, b: np.ndarray) -> float:
    """Tanimoto coefficient between two binary fingerprints (the scalar
    reference for :class:`BitMatrix`)."""
    a_bits = a.astype(bool)
    b_bits = b.astype(bool)
    union = np.logical_or(a_bits, b_bits).sum()
    if union == 0:
        return 0.0
    return float(np.logical_and(a_bits, b_bits).sum() / union)


def jaccard(a: Set, b: Set) -> float:
    """Jaccard index between two sets (the scalar reference for
    :class:`BitMatrix`)."""
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity between two vectors."""
    norm = np.linalg.norm(a) * np.linalg.norm(b)
    if norm == 0:
        return 0.0
    return float(np.dot(a, b) / norm)


def gaussian_similarity(a: np.ndarray, b: np.ndarray,
                        gamma: float = 0.5) -> float:
    """RBF similarity for continuous profiles (phenotypes)."""
    distance = float(np.linalg.norm(a - b))
    scale = max(1.0, np.sqrt(a.size))
    return float(np.exp(-gamma * (distance / scale) ** 2))


def ontology_path_similarity(a: Sequence[str], b: Sequence[str]) -> float:
    """Shared-prefix similarity over ontology paths (Wu-Palmer flavoured)."""
    if not a or not b:
        return 0.0
    shared = 0
    for x, y in zip(a, b):
        if x != y:
            break
        shared += 1
    return 2.0 * shared / (len(a) + len(b))


def _pairwise(items: Sequence, fn) -> np.ndarray:
    """Symmetric similarity matrix with unit diagonal, one call per pair.

    Builds the ontology matrix; for Tanimoto and Jaccard it is the
    reference :class:`BitMatrix` is tested against.
    """
    n = len(items)
    matrix = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            value = fn(items[i], items[j])
            matrix[i, j] = matrix[j, i] = value
    return matrix


def _ratio(inter: np.ndarray, union: np.ndarray) -> np.ndarray:
    """``inter / union``, and 0.0 where the union is empty, as the scalar
    :func:`tanimoto` and :func:`jaccard` return for two empty inputs."""
    return np.divide(inter, union, out=np.zeros_like(inter),
                     where=union > 0)


class BitMatrix:
    """The Tanimoto/Jaccard kernel: one row of bits per entity.

    A fingerprint becomes the row ``fp != 0``, the bits :func:`tanimoto`
    keeps after ``astype(bool)``.  A set becomes a row over a vocabulary
    that gives each term its own column; a term not seen before gets a
    new column.  Bits are stored as 0.0/1.0 in float64 so the counts run
    through BLAS: each count is a sum of 0/1 products no larger than the
    row width, which float64 holds exactly in any summation order.  The
    value ``inter / union`` of two exact counts is the same correctly
    rounded quotient the scalar functions compute, so every entry equals
    theirs bit for bit.
    """

    def __init__(self, bits: np.ndarray,
                 vocabulary: Optional[Dict] = None) -> None:
        self.bits = bits
        self._vocabulary = vocabulary
        self._counts = bits.sum(axis=1)

    @classmethod
    def of_fingerprints(cls, prints: Sequence[np.ndarray]) -> "BitMatrix":
        rows = [np.asarray(p) != 0 for p in prints]
        return cls(np.array(rows, dtype=float) if rows else np.zeros((0, 0)))

    @classmethod
    def of_sets(cls, sets: Sequence[Set]) -> "BitMatrix":
        vocabulary: Dict = {}
        for terms in sets:
            for term in terms:
                vocabulary.setdefault(term, len(vocabulary))
        bits = np.zeros((len(sets), len(vocabulary)))
        for i, terms in enumerate(sets):
            bits[i, [vocabulary[t] for t in terms]] = 1.0
        return cls(bits, vocabulary)

    def __len__(self) -> int:
        return self.bits.shape[0]

    def _encode(self, features) -> np.ndarray:
        """The row for ``features``; terms not seen before first get a
        vocabulary entry and a zero column each."""
        if self._vocabulary is None:
            return (np.asarray(features) != 0).astype(float)
        vocabulary = self._vocabulary
        for term in features:
            vocabulary.setdefault(term, len(vocabulary))
        new_columns = len(vocabulary) - self.bits.shape[1]
        if new_columns:
            self.bits = np.hstack([self.bits,
                                   np.zeros((len(self), new_columns))])
        row = np.zeros(len(vocabulary))
        row[[vocabulary[t] for t in features]] = 1.0
        return row

    def set_row(self, index: int, features) -> None:
        """Re-encode entity ``index`` from its fingerprint or set."""
        row = self._encode(features)
        self.bits[index] = row
        self._counts[index] = row.sum()

    def append(self, features) -> int:
        """Add a row for a new entity; returns its index."""
        row = self._encode(features)
        # An empty fingerprint matrix is 0x0 until a row gives it a width.
        self.bits = np.vstack([self.bits.reshape(len(self), row.size),
                               row[None, :]])
        self._counts = np.append(self._counts, row.sum())
        return len(self) - 1

    def row(self, index: int) -> np.ndarray:
        """Similarity of entity ``index`` to every entity (O(n) counts)."""
        inter = self.bits @ self.bits[index]
        values = _ratio(inter, self._counts + self._counts[index] - inter)
        values[index] = 1.0
        return values

    def matrix(self) -> np.ndarray:
        """The full similarity matrix, with unit diagonal."""
        inter = self.bits @ self.bits.T
        counts = self._counts
        similarity = _ratio(inter, counts[:, None] + counts - inter)
        np.fill_diagonal(similarity, 1.0)
        return similarity


class _CachedSourceMixin:
    """Build-once caching shared by the two similarity builders.

    Every matrix accessor used to re-run the full ``_pairwise`` pass on
    each call — an O(n²) bill for what is usually the same answer.  Now
    each source is built once and cached until :meth:`invalidate` is
    called; ``build_counts`` records how many real builds each source has
    paid, so tests can assert exactly one build per dirty epoch.  The
    incremental streaming layer (:mod:`repro.streaming.incremental`)
    maintains the matrices itself and installs its O(n)-updated copies
    via :meth:`prime`, which fills the cache *without* counting a build.
    """

    def _init_cache(self) -> None:
        self._cache: Dict[str, np.ndarray] = {}
        self.build_counts: Dict[str, int] = {}

    def _built(self, source: str, build) -> np.ndarray:
        cached = self._cache.get(source)
        if cached is None:
            self.build_counts[source] = self.build_counts.get(source, 0) + 1
            cached = build()
            self._cache[source] = cached
        return cached

    def invalidate(self, source: Optional[str] = None) -> None:
        """Drop the cached matrix for ``source`` (or all of them)."""
        if source is None:
            self._cache.clear()
        else:
            self._cache.pop(source, None)

    def prime(self, source: str, matrix: np.ndarray) -> None:
        """Install an externally maintained matrix as the cached result."""
        self._cache[source] = matrix


class DrugSimilarityBuilder(_CachedSourceMixin):
    """Builds the three drug similarity matrices the paper uses."""

    def __init__(self, universe: BioUniverse,
                 pubchem: Optional[PubChemLike] = None,
                 drugbank: Optional[DrugBankLike] = None,
                 sider: Optional[SiderLike] = None) -> None:
        self._universe = universe
        self.pubchem = pubchem if pubchem is not None else PubChemLike(universe)
        self.drugbank = drugbank if drugbank is not None else DrugBankLike(universe)
        self.sider = sider if sider is not None else SiderLike(universe)
        self._drug_ids = [d.drug_id for d in universe.drugs]
        self._init_cache()

    @property
    def drug_ids(self) -> List[str]:
        """Row/column order of every drug matrix (shared, do not mutate)."""
        return self._drug_ids

    def add_drug_id(self, drug_id: str) -> int:
        """Register a newly streamed-in drug; returns its matrix index."""
        if drug_id in self._drug_ids:
            raise ValueError(f"drug {drug_id} already registered")
        self._drug_ids.append(drug_id)
        self.invalidate()
        return len(self._drug_ids) - 1

    def bit_matrix(self, source: str) -> BitMatrix:
        """The bits behind one source, encoded from the knowledge bases."""
        if source == "chemical":
            return BitMatrix.of_fingerprints(
                [self.pubchem.fingerprint(d) for d in self._drug_ids])
        read = {"target": self.drugbank.targets,
                "side_effect": self.sider.side_effects}[source]
        return BitMatrix.of_sets([read(d) for d in self._drug_ids])

    def chemical(self) -> np.ndarray:
        """Tanimoto over PubChem fingerprints."""
        return self._built("chemical",
                           lambda: self.bit_matrix("chemical").matrix())

    def target(self) -> np.ndarray:
        """Jaccard over DrugBank target sets."""
        return self._built("target",
                           lambda: self.bit_matrix("target").matrix())

    def side_effect(self) -> np.ndarray:
        """Jaccard over SIDER side-effect sets."""
        return self._built("side_effect",
                           lambda: self.bit_matrix("side_effect").matrix())

    def all_sources(self) -> Dict[str, np.ndarray]:
        return {"chemical": self.chemical(), "target": self.target(),
                "side_effect": self.side_effect()}


class DiseaseSimilarityBuilder(_CachedSourceMixin):
    """Builds the three disease similarity matrices the paper uses."""

    def __init__(self, universe: BioUniverse,
                 disgenet: Optional[DisGeNetLike] = None) -> None:
        self._universe = universe
        self.disgenet = disgenet if disgenet is not None else DisGeNetLike(universe)
        self._disease_ids = [d.disease_id for d in universe.diseases]
        self._init_cache()

    @property
    def disease_ids(self) -> List[str]:
        """Row/column order of every disease matrix (shared, do not mutate)."""
        return self._disease_ids

    def add_disease_id(self, disease_id: str) -> int:
        """Register a newly streamed-in disease; returns its matrix index."""
        if disease_id in self._disease_ids:
            raise ValueError(f"disease {disease_id} already registered")
        self._disease_ids.append(disease_id)
        self.invalidate()
        return len(self._disease_ids) - 1

    def phenotype(self) -> np.ndarray:
        """Gaussian similarity over phenotype profiles.

        Uses an adaptive bandwidth (median pairwise distance) so the kernel
        is well-spread regardless of the profiles' scale.
        """
        return self._built("phenotype", self._build_phenotype)

    def _build_phenotype(self) -> np.ndarray:
        profiles = np.stack([self.disgenet.phenotype(d)
                             for d in self._disease_ids])
        squared = ((profiles[:, None, :] - profiles[None, :, :]) ** 2).sum(-1)
        distances = np.sqrt(squared)
        return phenotype_kernel(distances)

    def ontology(self) -> np.ndarray:
        """Shared-prefix similarity over ontology paths."""
        return self._built("ontology", self._build_ontology)

    def _build_ontology(self) -> np.ndarray:
        paths = [self.disgenet.ontology_path(d) for d in self._disease_ids]
        return _pairwise(paths, ontology_path_similarity)

    def bit_matrix(self, source: str) -> BitMatrix:
        """The bits behind ``disease_gene``, encoded from DisGeNet."""
        read = {"disease_gene": self.disgenet.genes_for_disease}[source]
        return BitMatrix.of_sets([read(d) for d in self._disease_ids])

    def disease_gene(self) -> np.ndarray:
        """Jaccard over DisGeNet gene sets."""
        return self._built("disease_gene",
                           lambda: self.bit_matrix("disease_gene").matrix())

    def all_sources(self) -> Dict[str, np.ndarray]:
        return {"phenotype": self.phenotype(), "ontology": self.ontology(),
                "disease_gene": self.disease_gene()}


def phenotype_kernel(distances: np.ndarray) -> np.ndarray:
    """Adaptive-bandwidth Gaussian kernel over a distance matrix.

    Shared by the batch builder and the incremental engine so a row-wise
    distance update reproduces the batch result exactly: bandwidth is the
    median off-diagonal distance, recomputed from whatever distance matrix
    the caller maintains.
    """
    n = distances.shape[0]
    off_diagonal = distances[~np.eye(n, dtype=bool)]
    bandwidth = (float(np.median(off_diagonal)) or 1.0) if n > 1 else 1.0
    similarity = np.exp(-((distances / bandwidth) ** 2))
    np.fill_diagonal(similarity, 1.0)
    return similarity


def similarity_quality(similarity: np.ndarray,
                       latents: np.ndarray) -> float:
    """Spearman-free diagnostic: correlation of a similarity matrix with the
    latent-space cosine similarity it is supposed to reflect.  Used by tests
    to confirm the generated sources really are informative in the order
    the universe's ``source_informativeness`` says.
    """
    norms = np.linalg.norm(latents, axis=1, keepdims=True)
    cosine_matrix = (latents / norms) @ (latents / norms).T
    mask = ~np.eye(similarity.shape[0], dtype=bool)
    a = similarity[mask]
    b = cosine_matrix[mask]
    a = a - a.mean()
    b = b - b.mean()
    denominator = np.linalg.norm(a) * np.linalg.norm(b)
    if denominator == 0:
        return 0.0
    return float(np.dot(a, b) / denominator)
