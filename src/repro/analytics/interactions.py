"""Tiresias-style drug-drug interaction prediction (Section V-A, ref [40]).

"Tiresias is a knowledge-based prediction system that takes in various
sources of drug-related data and knowledge as input and provides drug-drug
interaction predictions as output.  Entities of interest ... are pairs of
drugs instead of single drugs.  Tiresias computes similarities on pairs of
drugs by combining similarity metrics on individual drugs."

Pair featurization: for every individual-drug similarity source s and a
known-interaction set, a candidate pair (a, b) gets the *calibration
feature* max over known interacting pairs (u, v) of
min(s(a,u), s(b,v)) (symmetrized) — "drugs similar to a known interacting
pair likely interact".  A hand-rolled logistic regression over these
features yields interaction scores.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.errors import ConfigurationError

Pair = Tuple[int, int]


def _canonical(pair: Pair) -> Pair:
    a, b = pair
    return (a, b) if a <= b else (b, a)


class PairFeaturizer:
    """Builds pair features from individual-drug similarity sources."""

    def __init__(self, sources: Dict[str, np.ndarray],
                 known_pairs: Sequence[Pair], sample_anchors: int = 50,
                 seed: int = 0) -> None:
        if not sources:
            raise ConfigurationError("need at least one similarity source")
        self._names = sorted(sources)
        self._sources = sources
        rng = np.random.default_rng(seed)
        anchors = [_canonical(p) for p in known_pairs]
        if len(anchors) > sample_anchors:
            chosen = rng.choice(len(anchors), size=sample_anchors,
                                replace=False)
            anchors = [anchors[i] for i in chosen]
        self._anchors = anchors

    def features(self, pair: Pair,
                 exclude_anchor: Optional[Pair] = None) -> np.ndarray:
        """Feature vector for one candidate pair."""
        a, b = _canonical(pair)
        row = np.zeros(len(self._names))
        for k, name in enumerate(self._names):
            S = self._sources[name]
            best = 0.0
            for anchor in self._anchors:
                if exclude_anchor is not None and anchor == _canonical(
                        exclude_anchor):
                    continue
                u, v = anchor
                if {a, b} & {u, v} and _canonical(pair) == anchor:
                    continue
                forward = min(S[a, u], S[b, v])
                backward = min(S[a, v], S[b, u])
                best = max(best, forward, backward)
            row[k] = best
        return row


class LogisticRegression:
    """Minimal batch-gradient logistic regression."""

    def __init__(self, learning_rate: float = 0.5, l2: float = 1e-3,
                 iterations: int = 300) -> None:
        self.learning_rate = learning_rate
        self.l2 = l2
        self.iterations = iterations
        self.weights: Optional[np.ndarray] = None
        self.bias = 0.0

    @staticmethod
    def _sigmoid(z: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        n, d = X.shape
        self.weights = np.zeros(d)
        self.bias = 0.0
        for _ in range(self.iterations):
            p = self._sigmoid(X @ self.weights + self.bias)
            gradient_w = X.T @ (p - y) / n + self.l2 * self.weights
            gradient_b = float((p - y).mean())
            self.weights -= self.learning_rate * gradient_w
            self.bias -= self.learning_rate * gradient_b
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.weights is None:
            raise ConfigurationError("model not fitted")
        return self._sigmoid(np.asarray(X, dtype=float) @ self.weights
                             + self.bias)


class TiresiasPredictor:
    """End-to-end DDI link prediction over similarity sources."""

    def __init__(self, sources: Dict[str, np.ndarray], seed: int = 0) -> None:
        self._sources = sources
        self.seed = seed
        self._model: Optional[LogisticRegression] = None
        self._featurizer: Optional[PairFeaturizer] = None

    def fit(self, known_pairs: Sequence[Pair], n_drugs: int,
            negatives_per_positive: int = 2) -> "TiresiasPredictor":
        """Train on known interactions plus sampled non-interacting pairs."""
        rng = np.random.default_rng(self.seed)
        known = {_canonical(p) for p in known_pairs}
        self._featurizer = PairFeaturizer(self._sources, list(known),
                                          seed=self.seed)
        negatives: Set[Pair] = set()
        target = len(known) * negatives_per_positive
        attempts = 0
        while len(negatives) < target and attempts < target * 50:
            attempts += 1
            a, b = rng.integers(n_drugs), rng.integers(n_drugs)
            if a == b:
                continue
            pair = _canonical((int(a), int(b)))
            if pair not in known:
                negatives.add(pair)
        rows = []
        labels = []
        for pair in sorted(known):
            rows.append(self._featurizer.features(pair, exclude_anchor=pair))
            labels.append(1.0)
        for pair in sorted(negatives):
            rows.append(self._featurizer.features(pair))
            labels.append(0.0)
        self._model = LogisticRegression().fit(np.array(rows),
                                               np.array(labels))
        return self

    def score(self, pair: Pair) -> float:
        """Interaction probability for one candidate pair."""
        if self._model is None or self._featurizer is None:
            raise ConfigurationError("predictor not fitted")
        features = self._featurizer.features(pair)
        return float(self._model.predict_proba(features[None, :])[0])

    def score_pairs(self, pairs: Sequence[Pair]) -> np.ndarray:
        return np.array([self.score(p) for p in pairs])
