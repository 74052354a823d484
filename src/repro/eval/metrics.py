"""Task metrics matching the paper's reporting (§IV-A2).

"For regression tasks, we report R2 statistics, and for (binary and
multiclass) classification tasks, we report a weighted F1 score to handle
skew in classes." Implementations follow scikit-learn's definitions (the
paper's stated source) without the dependency.
"""

from __future__ import annotations

import numpy as np


def _binary_f1(true_positive: int, false_positive: int, false_negative: int) -> float:
    denominator = 2 * true_positive + false_positive + false_negative
    if denominator == 0:
        return 0.0
    return 2.0 * true_positive / denominator


def weighted_f1(labels: np.ndarray, predictions: np.ndarray) -> float:
    """Support-weighted mean of per-class F1 scores.

    Matches ``sklearn.metrics.f1_score(average="weighted")`` for integer
    class labels.
    """
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    predictions = np.asarray(predictions, dtype=np.int64).reshape(-1)
    if labels.shape != predictions.shape:
        raise ValueError("labels and predictions must have the same length")
    classes = np.unique(labels)
    total = labels.shape[0]
    if total == 0:
        return 0.0
    score = 0.0
    for cls in classes:
        support = int(np.sum(labels == cls))
        tp = int(np.sum((predictions == cls) & (labels == cls)))
        fp = int(np.sum((predictions == cls) & (labels != cls)))
        fn = int(np.sum((predictions != cls) & (labels == cls)))
        score += support * _binary_f1(tp, fp, fn)
    # Dividing once keeps a perfect prediction at exactly 1.0: the weights
    # are whole supports, so their sum cannot round past ``total``.
    return float(score / total)


def multilabel_weighted_f1(
    labels: np.ndarray, probabilities: np.ndarray, threshold: float = 0.5
) -> float:
    """Weighted F1 over label columns for multi-label tasks (ECB Join).

    Each label column is scored as a binary task; columns are weighted by
    their positive support.
    """
    labels = np.asarray(labels, dtype=np.float64)
    predictions = (np.asarray(probabilities, dtype=np.float64) >= threshold).astype(int)
    if labels.shape != predictions.shape:
        raise ValueError("shape mismatch")
    supports = labels.sum(axis=0)
    total = float(supports.sum())
    if total == 0:
        return 0.0
    score = 0.0
    for column in range(labels.shape[1]):
        if supports[column] == 0:
            continue
        truth = labels[:, column].astype(int)
        pred = predictions[:, column]
        tp = int(np.sum((pred == 1) & (truth == 1)))
        fp = int(np.sum((pred == 1) & (truth == 0)))
        fn = int(np.sum((pred == 0) & (truth == 1)))
        score += (supports[column] / total) * _binary_f1(tp, fp, fn)
    return float(score)


def r2_score(targets: np.ndarray, predictions: np.ndarray) -> float:
    """Coefficient of determination; can be negative for bad fits."""
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    predictions = np.asarray(predictions, dtype=np.float64).reshape(-1)
    if targets.shape != predictions.shape:
        raise ValueError("targets and predictions must have the same length")
    if targets.size == 0:
        return 0.0
    residual = float(np.sum((targets - predictions) ** 2))
    total = float(np.sum((targets - np.mean(targets)) ** 2))
    if total == 0.0:
        return 1.0 if residual == 0.0 else 0.0
    return 1.0 - residual / total
