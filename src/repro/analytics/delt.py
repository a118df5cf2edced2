"""DELT: Drug Effects on Laboratory Tests (Figs. 10-11, refs [45], [46]).

Extends the Self-Controlled Case Series model as Section V-B2 describes:

    y_ij = alpha_i + t_ij + sum_d beta_d * x_ijd + eps

* ``alpha_i`` — the patient-specific baseline ("since there is a range of
  standard values for the laboratory test values, we cannot use the same
  value for all patients", Fig. 10);
* ``t_ij`` — a patient-specific time-varying term absorbing confounders
  such as aging and chronic comorbidity (Fig. 11), modelled as a linear
  drift ``c_i * time``;
* ``beta_d`` — the shared effect of drug d on the lab value, the joint
  exposure model ("DELT looks at the joint exposure of multiple drugs at
  the same time (instead of marginal correlation)");
* optional network regularization pulls effects of similar drugs together
  ("DELT leverages ... drug similarity network information into the SCCS
  model").

Fitting alternates closed-form steps: per-patient OLS for (alpha_i, c_i)
given beta, then a pooled ridge (+ graph Laplacian) solve for beta given
the baselines.  The marginal-correlation SCCS baseline is included for E9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import ConfigurationError

_EPS = 1e-9


@dataclass
class PatientSeries:
    """One patient's longitudinal lab history.

    times:      (m,) measurement times (e.g. days since enrollment);
    values:     (m,) lab results (e.g. HbA1c %);
    exposures:  (m, n_drugs) binary — drug d active before measurement j.
    """

    patient_id: str
    times: np.ndarray
    values: np.ndarray
    exposures: np.ndarray

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.exposures = np.asarray(self.exposures, dtype=float)
        m = self.times.shape[0]
        if self.values.shape[0] != m or self.exposures.shape[0] != m:
            raise ConfigurationError(
                f"patient {self.patient_id}: inconsistent series lengths")


def fit_patient_trend(times: np.ndarray, residual: np.ndarray,
                      use_time_drift: bool = True) -> Tuple[float, float]:
    """Closed-form OLS for one patient's (alpha_i, c_i) given a residual.

    Module-level so the federated estimator (``repro.federation``) runs
    the *same* per-patient arithmetic inside each institution that the
    centralized :class:`DeltModel` runs over the pooled cohort.
    """
    if not use_time_drift or times.size < 3:
        return float(residual.mean()), 0.0
    centered_time = times - times.mean()
    denominator = float((centered_time ** 2).sum())
    if denominator < _EPS:
        return float(residual.mean()), 0.0
    drift = float((centered_time * (residual - residual.mean())).sum()
                  / denominator)
    alpha = float(residual.mean() - drift * times.mean())
    return alpha, drift


def patient_partials(patient: "PatientSeries", beta: np.ndarray,
                     use_time_drift: bool = True
                     ) -> Tuple[np.ndarray, np.ndarray, float, float]:
    """One patient's contribution to the pooled effects solve.

    Given the current effects ``beta``: fit the patient's trend, then
    return ``(gram, moment, alpha, drift)`` where ``gram = X^T X`` and
    ``moment = X^T (y - trend)``.  The pooled solve needs only the *sums*
    of these over patients, which is what makes DELT federate exactly:
    each institution sums its own patients' partials locally and only the
    sums cross the trust boundary.
    """
    residual = patient.values - patient.exposures @ beta
    alpha, drift = fit_patient_trend(patient.times, residual, use_time_drift)
    trend = alpha + drift * patient.times
    gram = patient.exposures.T @ patient.exposures
    moment = patient.exposures.T @ (patient.values - trend)
    return gram, moment, alpha, drift


def patient_loss(patient: "PatientSeries", beta: np.ndarray,
                 alpha: float, drift: float) -> float:
    """One patient's squared-error term of the DELT objective."""
    trend = alpha + drift * patient.times
    prediction = trend + patient.exposures @ beta
    return float(((patient.values - prediction) ** 2).sum())


def solve_effects(gram: np.ndarray, moment: np.ndarray, ridge: float,
                  network_weight: float = 0.0,
                  laplacian: Optional[np.ndarray] = None) -> np.ndarray:
    """Pooled ridge (+ graph Laplacian) solve for beta from summed partials."""
    regularizer = ridge * np.eye(gram.shape[0])
    if laplacian is not None and network_weight > 0:
        regularizer = regularizer + network_weight * laplacian
    return np.linalg.solve(gram + regularizer, moment)


def effects_penalty(beta: np.ndarray, ridge: float,
                    network_weight: float = 0.0,
                    laplacian: Optional[np.ndarray] = None) -> float:
    """Regularization term of the objective (needs no patient data)."""
    penalty = ridge * float((beta ** 2).sum())
    if laplacian is not None and network_weight > 0:
        penalty += network_weight * float(beta @ laplacian @ beta)
    return penalty


@dataclass
class DeltResult:
    """Fitted DELT model."""

    effects: np.ndarray            # beta per drug
    baselines: Dict[str, float]    # alpha_i
    drifts: Dict[str, float]       # c_i
    objective_history: List[float]

    def significant_drugs(self, threshold: float) -> List[int]:
        """Drug indices whose estimated effect is below -threshold
        (i.e. lowering the lab value, the HbA1c use case)."""
        return [int(d) for d in np.nonzero(self.effects <= -threshold)[0]]


class DeltModel:
    """Alternating estimator for the extended SCCS model."""

    def __init__(self, n_drugs: int, ridge: float = 1.0,
                 network_weight: float = 0.0,
                 drug_similarity: Optional[np.ndarray] = None,
                 use_time_drift: bool = True,
                 max_iterations: int = 20, tolerance: float = 1e-6) -> None:
        if n_drugs < 1:
            raise ConfigurationError("need at least one drug")
        if network_weight > 0 and drug_similarity is None:
            raise ConfigurationError(
                "network_weight > 0 requires a drug_similarity matrix")
        self.n_drugs = n_drugs
        self.ridge = ridge
        self.network_weight = network_weight
        self.use_time_drift = use_time_drift
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self._laplacian = (self._build_laplacian(drug_similarity)
                           if drug_similarity is not None else None)

    @staticmethod
    def _build_laplacian(similarity: np.ndarray) -> np.ndarray:
        S = np.asarray(similarity, dtype=float).copy()
        np.fill_diagonal(S, 0.0)
        return np.diag(S.sum(axis=1)) - S

    def fit(self, patients: Sequence[PatientSeries]) -> DeltResult:
        """Fit baselines, drifts, and drug effects."""
        if not patients:
            raise ConfigurationError("need at least one patient")
        for p in patients:
            if p.exposures.shape[1] != self.n_drugs:
                raise ConfigurationError(
                    f"patient {p.patient_id}: exposures have "
                    f"{p.exposures.shape[1]} drugs, expected {self.n_drugs}")
        beta = np.zeros(self.n_drugs)
        baselines: Dict[str, float] = {}
        drifts: Dict[str, float] = {}
        history: List[float] = []
        previous = np.inf
        for _ in range(self.max_iterations):
            # Per-patient trend + partials given beta, summed into the
            # pooled solve — the same shared functions the federated
            # estimator distributes across institutions.
            gram = np.zeros((self.n_drugs, self.n_drugs))
            moment = np.zeros(self.n_drugs)
            for p in patients:
                g, m, alpha, drift = patient_partials(p, beta,
                                                      self.use_time_drift)
                baselines[p.patient_id] = alpha
                drifts[p.patient_id] = drift
                gram += g
                moment += m
            beta = solve_effects(gram, moment, self.ridge,
                                 self.network_weight, self._laplacian)
            objective = sum(
                patient_loss(p, beta, baselines[p.patient_id],
                             drifts[p.patient_id]) for p in patients)
            objective += effects_penalty(beta, self.ridge,
                                         self.network_weight, self._laplacian)
            history.append(objective)
            if abs(previous - objective) < self.tolerance * max(1.0, previous):
                break
            previous = objective
        return DeltResult(beta, baselines, drifts, history)


class MarginalSccs:
    """Baseline: per-drug marginal self-controlled comparison.

    For each drug independently: average over patients of
    (mean lab value while exposed) - (mean lab value while unexposed).
    Joint exposures and time-varying baselines are ignored — the biases
    DELT was built to remove.
    """

    def __init__(self, n_drugs: int) -> None:
        self.n_drugs = n_drugs

    def fit(self, patients: Sequence[PatientSeries]) -> np.ndarray:
        effects = np.zeros(self.n_drugs)
        counts = np.zeros(self.n_drugs)
        for p in patients:
            for d in range(self.n_drugs):
                exposed = p.exposures[:, d] > 0
                if exposed.any() and (~exposed).any():
                    effects[d] += (p.values[exposed].mean()
                                   - p.values[~exposed].mean())
                    counts[d] += 1
        with np.errstate(invalid="ignore"):
            averaged = np.where(counts > 0, effects / np.maximum(counts, 1),
                                0.0)
        return averaged


def effect_recovery(estimated: np.ndarray, true_effects: np.ndarray,
                    detection_threshold: float) -> Dict[str, float]:
    """Precision/recall of detecting lab-lowering drugs.

    A drug is truly lowering if its injected effect <= -detection_threshold,
    and detected if its estimate <= -detection_threshold / 2 (the halved
    decision threshold reflects shrinkage from regularization).
    """
    truly = set(np.nonzero(true_effects <= -detection_threshold)[0])
    detected = set(np.nonzero(estimated <= -detection_threshold / 2)[0])
    true_positives = len(truly & detected)
    precision = true_positives / len(detected) if detected else 0.0
    recall = true_positives / len(truly) if truly else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    return {"precision": precision, "recall": recall, "f1": f1,
            "detected": float(len(detected)), "true": float(len(truly))}
