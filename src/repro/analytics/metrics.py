"""Evaluation metrics for association prediction (Section V).

Hand-rolled AUC-ROC, area under precision-recall, precision/recall@k, and
a masked-matrix evaluation helper used by the JMF/DELT experiments — no
sklearn dependency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


def auc_roc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve via the rank statistic (handles ties)."""
    labels = np.asarray(labels).ravel()
    scores = np.asarray(scores).ravel()
    positives = int(labels.sum())
    negatives = labels.size - positives
    if positives == 0 or negatives == 0:
        return float("nan")
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size)
    sorted_scores = scores[order]
    # Average ranks over tied groups.
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    positive_rank_sum = ranks[labels == 1].sum()
    return float((positive_rank_sum - positives * (positives + 1) / 2.0)
                 / (positives * negatives))


def average_precision(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the precision-recall curve (step interpolation)."""
    labels = np.asarray(labels).ravel()
    scores = np.asarray(scores).ravel()
    if labels.sum() == 0:
        return float("nan")
    order = np.argsort(-scores, kind="mergesort")
    sorted_labels = labels[order]
    cumulative_hits = np.cumsum(sorted_labels)
    precision_at = cumulative_hits / (np.arange(labels.size) + 1)
    return float((precision_at * sorted_labels).sum() / labels.sum())


def precision_at_k(labels: np.ndarray, scores: np.ndarray, k: int) -> float:
    """Fraction of the top-k scored items that are positives."""
    labels = np.asarray(labels).ravel()
    scores = np.asarray(scores).ravel()
    k = min(k, labels.size)
    if k == 0:
        return 0.0
    top = np.argsort(-scores, kind="mergesort")[:k]
    return float(labels[top].mean())


def recall_at_k(labels: np.ndarray, scores: np.ndarray, k: int) -> float:
    """Fraction of all positives captured in the top-k."""
    labels = np.asarray(labels).ravel()
    scores = np.asarray(scores).ravel()
    total_positives = labels.sum()
    if total_positives == 0:
        return float("nan")
    k = min(k, labels.size)
    top = np.argsort(-scores, kind="mergesort")[:k]
    return float(labels[top].sum() / total_positives)


@dataclass(frozen=True)
class MaskedEvaluation:
    """Scores on the held-out cells of an association matrix."""

    auc: float
    aupr: float
    precision_at_50: float
    recall_at_50: float
    held_out_positives: int


def evaluate_masked(truth: np.ndarray, scores: np.ndarray,
                    mask: np.ndarray) -> MaskedEvaluation:
    """Evaluate predictions on cells where ``mask`` is True (held out)."""
    labels = truth[mask].astype(float)
    predictions = scores[mask]
    return MaskedEvaluation(
        auc=auc_roc(labels, predictions),
        aupr=average_precision(labels, predictions),
        precision_at_50=precision_at_k(labels, predictions, 50),
        recall_at_50=recall_at_k(labels, predictions, 50),
        held_out_positives=int(labels.sum()),
    )


def holdout_mask(truth: np.ndarray, fraction: float,
                 rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """Split an association matrix for evaluation.

    Returns (training_matrix, heldout_mask): a copy of ``truth`` with
    ``fraction`` of the *positive* cells zeroed out, and a boolean mask
    marking those cells plus an equal-sized sample of true-negative cells
    (so AUC on the mask is meaningful).
    """
    positives = np.argwhere(truth == 1)
    n_hold = max(1, int(len(positives) * fraction))
    chosen = positives[rng.choice(len(positives), size=n_hold, replace=False)]
    training = truth.copy()
    mask = np.zeros_like(truth, dtype=bool)
    for i, j in chosen:
        training[i, j] = 0
        mask[i, j] = True
    negatives = np.argwhere(truth == 0)
    sampled = negatives[rng.choice(len(negatives),
                                   size=min(len(negatives), n_hold * 4),
                                   replace=False)]
    for i, j in sampled:
        mask[i, j] = True
    return training, mask
