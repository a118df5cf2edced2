"""Baseline drug-repositioning methods the paper cites (Section V-A1).

Each baseline "only focuses on different aspects of drug/disease
activities and therefore results in biases" — exactly what E8 measures
against JMF:

* :class:`GuiltByAssociation` (ref [33]) — score a (drug, disease) pair by
  the known associations of the drug's most similar neighbours.
* :class:`PlainMatrixFactorization` (ref [39]) — factorize the known
  association matrix alone, ignoring similarity sources.
* :class:`SideEffectKnn` (ref [36]) — a k-nearest-neighbour vote using a
  single similarity network (the side-effect network of Ye et al.).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..core.errors import ConfigurationError

_EPS = 1e-9


class GuiltByAssociation:
    """Neighbour-weighted transfer of known associations.

    score(i, j) = sum_i' sim(i, i') * R(i', j) / sum_i' sim(i, i'),
    over the top-k most similar drugs i' != i.
    """

    def __init__(self, top_k: int = 10) -> None:
        if top_k < 1:
            raise ConfigurationError("top_k must be >= 1")
        self.top_k = top_k

    def predict(self, associations: np.ndarray,
                drug_similarity: np.ndarray) -> np.ndarray:
        R = np.asarray(associations, dtype=float)
        S = np.asarray(drug_similarity, dtype=float).copy()
        np.fill_diagonal(S, 0.0)
        n_drugs = R.shape[0]
        scores = np.zeros_like(R)
        for i in range(n_drugs):
            neighbours = np.argsort(-S[i])[:self.top_k]
            weights = S[i, neighbours]
            total = weights.sum()
            if total <= _EPS:
                continue
            scores[i] = weights @ R[neighbours] / total
        return scores


class PlainMatrixFactorization:
    """Vanilla NMF of the association matrix (no side information)."""

    def __init__(self, rank: int = 10, max_iterations: int = 200,
                 gamma: float = 0.05, seed: int = 0) -> None:
        if rank < 1:
            raise ConfigurationError("rank must be >= 1")
        self.rank = rank
        self.max_iterations = max_iterations
        self.gamma = gamma
        self.seed = seed

    def predict(self, associations: np.ndarray) -> np.ndarray:
        R = np.asarray(associations, dtype=float)
        rng = np.random.default_rng(self.seed)
        n, m = R.shape
        F = np.abs(rng.normal(scale=0.1, size=(n, self.rank))) + 0.01
        G = np.abs(rng.normal(scale=0.1, size=(m, self.rank))) + 0.01
        for _ in range(self.max_iterations):
            F *= (R @ G) / (F @ (G.T @ G) + self.gamma * F + _EPS)
            G *= (R.T @ F) / (G @ (F.T @ F) + self.gamma * G + _EPS)
        return F @ G.T


class SideEffectKnn:
    """Single-network kNN vote (Ye et al. style, any one similarity)."""

    def __init__(self, k: int = 5) -> None:
        if k < 1:
            raise ConfigurationError("k must be >= 1")
        self.k = k

    def predict(self, associations: np.ndarray,
                similarity: np.ndarray) -> np.ndarray:
        R = np.asarray(associations, dtype=float)
        S = np.asarray(similarity, dtype=float).copy()
        np.fill_diagonal(S, 0.0)
        scores = np.zeros_like(R)
        for i in range(R.shape[0]):
            neighbours = np.argsort(-S[i])[:self.k]
            scores[i] = R[neighbours].mean(axis=0)
        return scores


def combined_similarity(sources: Dict[str, np.ndarray],
                        weights: Optional[Dict[str, float]] = None) -> np.ndarray:
    """Convex combination of similarity sources (for baseline variants)."""
    names = sorted(sources)
    if weights is None:
        weights = {name: 1.0 / len(names) for name in names}
    total = sum(weights[name] for name in names)
    if total <= 0:
        raise ConfigurationError("weights must sum to a positive value")
    return sum((weights[name] / total) * sources[name] for name in names)
