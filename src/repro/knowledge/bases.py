"""Knowledge-base interfaces over the synthetic universe (Section III).

One class per external resource the paper names, each exposing the query
surface the analytics need:

* :class:`PubChemLike` — chemical-structure fingerprints [16];
* :class:`DrugBankLike` — drug targets [17];
* :class:`SiderLike` — drug side effects [18];
* :class:`DisGeNetLike` — gene-disease associations [15];
* :class:`PubMedLite` — abstract search [Section III];
* :class:`WordNetLite` — term synonyms [19].

All are keyed lookups so they can sit behind the remote/caching wrappers.
Each KB also exposes a bulk variant (``fingerprints``, ``targets_many``,
``fetch_many``, ...) taking an id list, so the remote proxy can ship one
batched request instead of N round trips (P4 read path).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.errors import NotFoundError
from .synthetic import Abstract, BioUniverse


def _bulk(table: Dict, ids: Sequence[str], what: str,
          copy=lambda v: v) -> Dict:
    """Shared bulk-lookup helper: all-or-nothing over an id list."""
    missing = [i for i in ids if i not in table]
    if missing:
        raise NotFoundError(f"no {what} for {', '.join(sorted(missing))}")
    return {i: copy(table[i]) for i in ids}


class PubChemLike:
    """Chemical structure database: drug id -> fingerprint bits."""

    name = "pubchem"

    def __init__(self, universe: BioUniverse) -> None:
        self._fingerprints = {d.drug_id: d.fingerprint for d in universe.drugs}

    def fingerprint(self, drug_id: str) -> np.ndarray:
        try:
            return self._fingerprints[drug_id]
        except KeyError:
            raise NotFoundError(f"no fingerprint for {drug_id}") from None

    def fingerprints(self, drug_ids: Sequence[str]) -> Dict[str, np.ndarray]:
        """Bulk lookup: one call for a whole id list."""
        return _bulk(self._fingerprints, drug_ids, "fingerprint")

    def set_fingerprint(self, drug_id: str, fingerprint: np.ndarray) -> None:
        """Upsert a fingerprint (streaming drug.update / new-drug events)."""
        self._fingerprints[drug_id] = np.asarray(fingerprint)

    def drug_ids(self) -> List[str]:
        return sorted(self._fingerprints)


class DrugBankLike:
    """Drug target database: drug id -> set of protein targets."""

    name = "drugbank"

    def __init__(self, universe: BioUniverse) -> None:
        self._targets = {d.drug_id: set(d.targets) for d in universe.drugs}
        self._classes = {d.drug_id: d.therapeutic_class for d in universe.drugs}

    def targets(self, drug_id: str) -> Set[str]:
        try:
            return set(self._targets[drug_id])
        except KeyError:
            raise NotFoundError(f"no targets for {drug_id}") from None

    def targets_many(self, drug_ids: Sequence[str]) -> Dict[str, Set[str]]:
        """Bulk lookup: one call for a whole id list."""
        return _bulk(self._targets, drug_ids, "targets", copy=set)

    def set_targets(self, drug_id: str, targets: Set[str],
                    therapeutic_class: Optional[str] = None) -> None:
        """Upsert a drug's target set (streaming drug.update events)."""
        self._targets[drug_id] = set(targets)
        if therapeutic_class is not None:
            self._classes[drug_id] = therapeutic_class
        elif drug_id not in self._classes:
            self._classes[drug_id] = "unclassified"

    def therapeutic_class(self, drug_id: str) -> str:
        try:
            return self._classes[drug_id]
        except KeyError:
            raise NotFoundError(f"no class for {drug_id}") from None


class SiderLike:
    """Side-effect database: drug id -> set of side-effect terms."""

    name = "sider"

    def __init__(self, universe: BioUniverse) -> None:
        self._side_effects = {d.drug_id: set(d.side_effects)
                              for d in universe.drugs}

    def side_effects(self, drug_id: str) -> Set[str]:
        try:
            return set(self._side_effects[drug_id])
        except KeyError:
            raise NotFoundError(f"no side effects for {drug_id}") from None

    def set_side_effects(self, drug_id: str, side_effects: Set[str]) -> None:
        """Upsert a drug's side-effect set (streaming drug.update events)."""
        self._side_effects[drug_id] = set(side_effects)


class DisGeNetLike:
    """Gene-disease association database."""

    name = "disgenet"

    def __init__(self, universe: BioUniverse) -> None:
        self._genes_of = {d.disease_id: set(d.genes)
                          for d in universe.diseases}
        self._diseases_of: Dict[str, Set[str]] = {}
        for disease in universe.diseases:
            for gene in disease.genes:
                self._diseases_of.setdefault(gene, set()).add(
                    disease.disease_id)
        self._phenotypes = {d.disease_id: d.phenotype
                            for d in universe.diseases}
        self._ontology = {d.disease_id: d.ontology_path
                          for d in universe.diseases}

    def genes_for_disease(self, disease_id: str) -> Set[str]:
        try:
            return set(self._genes_of[disease_id])
        except KeyError:
            raise NotFoundError(f"unknown disease {disease_id}") from None

    def diseases_for_gene(self, gene: str) -> Set[str]:
        return set(self._diseases_of.get(gene, set()))

    def phenotype(self, disease_id: str) -> np.ndarray:
        try:
            return self._phenotypes[disease_id]
        except KeyError:
            raise NotFoundError(f"unknown disease {disease_id}") from None

    def ontology_path(self, disease_id: str) -> Tuple[str, ...]:
        try:
            return self._ontology[disease_id]
        except KeyError:
            raise NotFoundError(f"unknown disease {disease_id}") from None

    def set_genes(self, disease_id: str, genes: Set[str]) -> None:
        """Upsert a disease's gene set, keeping the reverse index honest."""
        for gene in self._genes_of.get(disease_id, set()):
            diseases = self._diseases_of.get(gene)
            if diseases is not None:
                diseases.discard(disease_id)
                if not diseases:
                    del self._diseases_of[gene]
        self._genes_of[disease_id] = set(genes)
        for gene in genes:
            self._diseases_of.setdefault(gene, set()).add(disease_id)

    def set_phenotype(self, disease_id: str, phenotype: np.ndarray) -> None:
        """Upsert a disease's phenotype profile (streaming events)."""
        self._phenotypes[disease_id] = np.asarray(phenotype, dtype=float)

    def set_ontology_path(self, disease_id: str,
                          path: Sequence[str]) -> None:
        """Upsert a disease's ontology path (streaming events)."""
        self._ontology[disease_id] = tuple(path)


class PubMedLite:
    """Abstract corpus with token-index search."""

    name = "pubmed"

    def __init__(self, abstracts: Sequence[Abstract]) -> None:
        self._abstracts = {a.pmid: a for a in abstracts}
        self._index: Dict[str, Set[str]] = {}
        for abstract in abstracts:
            for token in self._tokenize(abstract.title + " " + abstract.text):
                self._index.setdefault(token, set()).add(abstract.pmid)

    @staticmethod
    def _tokenize(text: str) -> List[str]:
        return [t.strip(".,:;()").lower() for t in text.split() if t]

    def fetch(self, pmid: str) -> Abstract:
        try:
            return self._abstracts[pmid]
        except KeyError:
            raise NotFoundError(f"no abstract {pmid}") from None

    def fetch_many(self, pmids: Sequence[str]) -> Dict[str, Abstract]:
        """Bulk lookup: one call for a whole pmid list."""
        return _bulk(self._abstracts, pmids, "abstract")

    def search(self, term: str) -> List[str]:
        """PMIDs whose text mentions the term."""
        return sorted(self._index.get(term.lower(), set()))

    def search_all(self, terms: Sequence[str]) -> List[str]:
        """PMIDs mentioning every term."""
        if not terms:
            return []
        result: Optional[Set[str]] = None
        for term in terms:
            hits = self._index.get(term.lower(), set())
            result = hits if result is None else result & hits
        return sorted(result or set())

    def __len__(self) -> int:
        return len(self._abstracts)


class WordNetLite:
    """Tiny synonym lexicon for query expansion."""

    name = "wordnet"

    _BASE = {
        "efficacy": {"effectiveness", "potency"},
        "disease": {"disorder", "condition", "illness"},
        "drug": {"medication", "compound", "agent"},
        "treatment": {"therapy", "intervention"},
        "reduce": {"lower", "decrease", "diminish"},
        "outcome": {"result", "endpoint"},
    }

    def __init__(self, extra: Optional[Dict[str, Set[str]]] = None) -> None:
        self._synonyms = {k: set(v) for k, v in self._BASE.items()}
        for word, syns in (extra or {}).items():
            self._synonyms.setdefault(word, set()).update(syns)

    def synonyms(self, word: str) -> Set[str]:
        return set(self._synonyms.get(word.lower(), set()))

    def expand(self, words: Sequence[str]) -> Set[str]:
        """The words plus every synonym."""
        out: Set[str] = set()
        for word in words:
            out.add(word.lower())
            out |= self.synonyms(word)
        return out
