"""Joint Matrix Factorization for drug repositioning (Fig. 9, ref [38]).

Implements the JMF idea of Zhang, Wang & Hu (AMIA 2014) as the paper
describes it: "JMF utilizes drug similarity network, disease similarity
network, and known drug-disease associations to explore the potential
associations among other unlinked drugs and diseases.  Then JMF is
formulated and solved as a constrained non-convex optimization problem."

Objective (non-negative factors F in R^{n_d x k}, G in R^{n_s x k};
source weights mu over drug sources, nu over disease sources):

    L = ||R - F G^T||_F^2
        + alpha * sum_m mu_m ||S_m^drug - F F^T||_F^2
        + alpha * sum_n nu_n ||S_n^dis  - G G^T||_F^2
        + gamma * (||F||_F^2 + ||G||_F^2)

solved by alternating multiplicative updates on F and G (standard NMF
machinery; all inputs are non-negative) and a softmax re-weighting of the
sources by their fit residual — sources the factors explain well receive
higher weight, giving the paper's "interpretable importance of different
information sources".  By-products: clustering drugs/diseases by their
dominant latent dimension, the paper's claimed drug/disease groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..core.errors import ConfigurationError

_EPS = 1e-9


@dataclass
class JmfResult:
    """Fitted JMF model."""

    drug_factors: np.ndarray                # F
    disease_factors: np.ndarray             # G
    drug_source_weights: Dict[str, float]   # mu
    disease_source_weights: Dict[str, float]  # nu
    objective_history: List[float]

    def scores(self) -> np.ndarray:
        """Predicted association scores F G^T."""
        return self.drug_factors @ self.disease_factors.T

    def drug_groups(self) -> np.ndarray:
        """Cluster label per drug: its dominant latent dimension."""
        return np.argmax(self.drug_factors, axis=1)


class JointMatrixFactorization:
    """Trainer for the JMF model."""

    def __init__(self, rank: int = 10, alpha: float = 0.5,
                 gamma: float = 0.05, weight_temperature: float = 1.0,
                 max_iterations: int = 200, tolerance: float = 1e-5,
                 seed: int = 0) -> None:
        if rank < 1:
            raise ConfigurationError("rank must be >= 1")
        if alpha < 0 or gamma < 0:
            raise ConfigurationError("alpha and gamma must be non-negative")
        self.rank = rank
        self.alpha = alpha
        self.gamma = gamma
        self.weight_temperature = weight_temperature
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.seed = seed

    def fit(self, associations: np.ndarray,
            drug_similarities: Dict[str, np.ndarray],
            disease_similarities: Dict[str, np.ndarray]) -> JmfResult:
        """Fit JMF to R plus the two similarity-source collections."""
        R = np.asarray(associations, dtype=float)
        n_drugs, n_diseases = R.shape
        self._check_sources(drug_similarities, n_drugs, "drug")
        self._check_sources(disease_similarities, n_diseases, "disease")

        rng = np.random.default_rng(self.seed)
        F = np.abs(rng.normal(scale=0.1, size=(n_drugs, self.rank))) + 0.01
        G = np.abs(rng.normal(scale=0.1, size=(n_diseases, self.rank))) + 0.01

        drug_names = sorted(drug_similarities)
        disease_names = sorted(disease_similarities)
        mu = {name: 1.0 / len(drug_names) for name in drug_names}
        nu = {name: 1.0 / len(disease_names) for name in disease_names}

        history: List[float] = []
        previous = np.inf
        for iteration in range(self.max_iterations):
            S_drug = sum(mu[m] * drug_similarities[m] for m in drug_names)
            S_dis = sum(nu[n] * disease_similarities[n] for n in disease_names)

            # Multiplicative update for F.
            numerator = R @ G + 2.0 * self.alpha * (S_drug @ F)
            denominator = (F @ (G.T @ G)
                           + 2.0 * self.alpha * (F @ (F.T @ F))
                           + self.gamma * F + _EPS)
            F *= numerator / denominator

            # Multiplicative update for G.
            numerator = R.T @ F + 2.0 * self.alpha * (S_dis @ G)
            denominator = (G @ (F.T @ F)
                           + 2.0 * self.alpha * (G @ (G.T @ G))
                           + self.gamma * G + _EPS)
            G *= numerator / denominator

            # Source re-weighting by residual fit (softmax on -error).
            mu = self._reweight(drug_similarities, F, drug_names)
            nu = self._reweight(disease_similarities, G, disease_names)

            objective = self._objective(R, F, G, drug_similarities,
                                        disease_similarities, mu, nu)
            history.append(objective)
            if abs(previous - objective) < self.tolerance * max(1.0, previous):
                break
            previous = objective

        return JmfResult(F, G, mu, nu, history)

    def _reweight(self, sources: Dict[str, np.ndarray], factor: np.ndarray,
                  names: Sequence[str]) -> Dict[str, float]:
        # Scale-invariant misfit: 1 - cosine alignment between the source
        # and F F^T (off-diagonal entries only, since diagonals are trivially
        # matched).  A raw Frobenius residual would reward sources with
        # small magnitudes rather than informative ones.
        approximation = factor @ factor.T
        mask = ~np.eye(approximation.shape[0], dtype=bool)
        approx_flat = approximation[mask]
        approx_flat = approx_flat - approx_flat.mean()
        errors = {}
        for name in names:
            source_flat = sources[name][mask]
            source_flat = source_flat - source_flat.mean()
            denominator = (np.linalg.norm(source_flat)
                           * np.linalg.norm(approx_flat))
            alignment = (float(source_flat @ approx_flat / denominator)
                         if denominator > _EPS else 0.0)
            errors[name] = 1.0 - alignment
        scale = max(np.std(list(errors.values())), _EPS)
        logits = {name: -errors[name] / (self.weight_temperature * scale)
                  for name in names}
        peak = max(logits.values())
        exp = {name: np.exp(logits[name] - peak) for name in names}
        total = sum(exp.values())
        return {name: float(exp[name] / total) for name in names}

    def _objective(self, R: np.ndarray, F: np.ndarray, G: np.ndarray,
                   drug_similarities: Dict[str, np.ndarray],
                   disease_similarities: Dict[str, np.ndarray],
                   mu: Dict[str, float], nu: Dict[str, float]) -> float:
        loss = float(((R - F @ G.T) ** 2).sum())
        FFt = F @ F.T
        GGt = G @ G.T
        for name, S in drug_similarities.items():
            loss += self.alpha * mu[name] * float(((S - FFt) ** 2).sum())
        for name, S in disease_similarities.items():
            loss += self.alpha * nu[name] * float(((S - GGt) ** 2).sum())
        loss += self.gamma * float((F ** 2).sum() + (G ** 2).sum())
        return loss

    @staticmethod
    def _check_sources(sources: Dict[str, np.ndarray], n: int,
                       kind: str) -> None:
        if not sources:
            raise ConfigurationError(f"need at least one {kind} source")
        for name, S in sources.items():
            if S.shape != (n, n):
                raise ConfigurationError(
                    f"{kind} source {name!r} has shape {S.shape}, "
                    f"expected {(n, n)}")
            if (S < -1e-9).any():
                raise ConfigurationError(
                    f"{kind} source {name!r} must be non-negative")
