"""Multi-class performance metrics for imbalanced problems.

Plain accuracy rewards majority-class bias, so evaluation uses the pairwise
Mann-Whitney AUC (averaged over class pairs), the prevalence-weighted
F-measure, and the geometric mean of per-class sensitivities.
"""

import logging

import numpy as np

logger = logging.getLogger(__name__)

METRIC_NAMES = ("auc", "fmeasure", "gmean")


def _u_statistic(pos, neg) -> float:
    """Mann-Whitney U of `pos` over `neg`: the (pos, neg) pairs that `pos`
    scores higher, a tie counting half. A count plus half a count, it is
    exact in floating point, as the mid-rank sum it replaces was."""
    neg = np.sort(neg)
    below = np.searchsorted(neg, pos, side="left").sum()
    ties = np.searchsorted(neg, pos, side="right").sum() - below
    return below + 0.5 * ties


def auc_multiclass(scores, labels) -> float:
    """Multi-class AUC: mean over class pairs of the two directed AUCs, each
    the U statistic of one class's score column over the pair's members.

    `scores` holds one class-support row per sample (rows on the simplex).
    Pairs with an absent class are skipped with a warning; an instance where
    every pair is skipped is an error.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if scores.ndim != 2 or scores.shape[0] != labels.shape[0]:
        raise ValueError("scores must be (n_samples, n_classes) matching labels")
    if (scores < -1e-12).any():
        raise ValueError("scores must be non-negative")
    if not np.allclose(scores.sum(axis=1), 1.0, atol=1e-9):
        raise ValueError("score rows must sum to 1")
    L = scores.shape[1]
    present = np.bincount(labels, minlength=L) > 0
    if present.sum() < 2:
        raise ValueError("AUC needs at least 2 classes present")
    values = []
    for i in range(L):
        for j in range(i + 1, L):
            if not (present[i] and present[j]):
                logger.warning("class pair (%d, %d) skipped: one side absent", i, j)
                continue
            in_i, in_j = labels == i, labels == j
            pairs = in_i.sum() * in_j.sum()
            a_ij = _u_statistic(scores[in_i, i], scores[in_j, i]) / pairs
            a_ji = _u_statistic(scores[in_j, j], scores[in_i, j]) / pairs
            values.append((a_ij + a_ji) / 2)
    if not values:
        raise ValueError("all class pairs were skipped")
    return float(np.mean(values))


def _confusion(predictions, labels) -> np.ndarray:
    """(L, L) counts of (true class, predicted class) pairs, L spanning every
    class id in either input."""
    predictions = np.asarray(predictions, dtype=int)
    labels = np.asarray(labels, dtype=int)
    if labels.size == 0:
        raise ValueError("empty input")
    L = int(max(predictions.max(), labels.max())) + 1
    return np.bincount(labels * L + predictions, minlength=L * L).reshape(L, L)


def f_measure_weighted(predictions, labels) -> float:
    """Per-class one-vs-rest F1 combined by class prevalence."""
    cm = _confusion(predictions, labels)
    tp = np.diag(cm).astype(float)
    predicted = cm.sum(axis=0).astype(float)
    actual = cm.sum(axis=1).astype(float)
    precision = np.divide(tp, predicted, out=np.zeros_like(tp), where=predicted > 0)
    recall = np.divide(tp, actual, out=np.zeros_like(tp), where=actual > 0)
    pr = precision + recall
    f1 = np.divide(2 * precision * recall, pr, out=np.zeros_like(tp), where=pr > 0)
    weights = actual / cm.sum()
    return float((f1 * weights).sum())


def g_mean(predictions, labels) -> float:
    """Geometric mean of per-class sensitivities over the classes present in
    `labels`, each its confusion diagonal over its row sum; 0 if any of them
    has recall 0."""
    cm = _confusion(predictions, labels)
    actual = cm.sum(axis=1)
    recalls = np.diag(cm)[actual > 0] / actual[actual > 0]
    if (recalls == 0).any():
        return 0.0
    return float(np.exp(np.log(recalls).mean()))
