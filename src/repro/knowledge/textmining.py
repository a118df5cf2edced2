"""Text analysis over PubMed-like abstracts (Section III).

"We provide access to papers in PubMed and PubMed Central.  We perform
text analysis on these papers to extract important scientific facts."

A dictionary-based entity recognizer (drug and disease name lexicons)
scans abstracts for co-mentions; co-occurrence counts with a simple
negation filter become association *evidence*, which the drug-repositioning
pipeline can blend with the structured sources.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .synthetic import Abstract, BioUniverse

_NEGATION_MARKERS = ("no association", "not associated", "remains unclear",
                     "failed to", "no significant")


@dataclass(frozen=True)
class ExtractedFact:
    """One extracted drug-disease co-mention."""

    drug_id: str
    disease_id: str
    pmid: str
    negated: bool
    sentence: str


class EntityRecognizer:
    """Dictionary NER: exact (case-insensitive, word-boundary) matching."""

    def __init__(self, universe: BioUniverse) -> None:
        self._drug_patterns = [
            (d.drug_id, re.compile(rf"\b{re.escape(d.name)}\b", re.IGNORECASE))
            for d in universe.drugs
        ]
        self._disease_patterns = [
            (d.disease_id, re.compile(rf"\b{re.escape(d.name)}\b", re.IGNORECASE))
            for d in universe.diseases
        ]

    def drugs_in(self, text: str) -> List[str]:
        return [drug_id for drug_id, pattern in self._drug_patterns
                if pattern.search(text)]

    def diseases_in(self, text: str) -> List[str]:
        return [disease_id for disease_id, pattern in self._disease_patterns
                if pattern.search(text)]


class FactExtractor:
    """Extracts drug-disease facts and aggregates evidence counts."""

    def __init__(self, universe: BioUniverse) -> None:
        self._recognizer = EntityRecognizer(universe)
        self._universe = universe

    def extract_from(self, abstract: Abstract) -> List[ExtractedFact]:
        """All drug-disease co-mentions in one abstract."""
        facts: List[ExtractedFact] = []
        for sentence in re.split(r"(?<=[.!?])\s+", abstract.text):
            drugs = self._recognizer.drugs_in(sentence)
            diseases = self._recognizer.diseases_in(sentence)
            if not drugs or not diseases:
                continue
            negated = any(marker in sentence.lower()
                          for marker in _NEGATION_MARKERS)
            for drug_id in drugs:
                for disease_id in diseases:
                    facts.append(ExtractedFact(drug_id, disease_id,
                                               abstract.pmid, negated,
                                               sentence))
        return facts

    def extract_corpus(self,
                       abstracts: Sequence[Abstract]) -> List[ExtractedFact]:
        facts: List[ExtractedFact] = []
        for abstract in abstracts:
            facts.extend(self.extract_from(abstract))
        return facts

    def evidence_matrix(self,
                        abstracts: Sequence[Abstract]) -> np.ndarray:
        """Signed co-occurrence counts aligned with the universe's indexing.

        Positive mentions add 1, negated mentions subtract 1; the result is
        clipped at zero so it can be used as a weak association prior.
        """
        n_drugs = len(self._universe.drugs)
        n_diseases = len(self._universe.diseases)
        drug_index = {d.drug_id: i for i, d in enumerate(self._universe.drugs)}
        disease_index = {d.disease_id: j
                         for j, d in enumerate(self._universe.diseases)}
        counts = np.zeros((n_drugs, n_diseases))
        for fact in self.extract_corpus(abstracts):
            i = drug_index[fact.drug_id]
            j = disease_index[fact.disease_id]
            counts[i, j] += -1.0 if fact.negated else 1.0
        return np.clip(counts, 0.0, None)
