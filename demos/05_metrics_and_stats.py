"""Imbalance-aware metrics and the nonparametric comparison tools.

Accuracy hides minority-class failure; the pairwise AUC, weighted F-measure
and G-mean react differently to it. Average ranks with the Finner step-down
and the exact sign test compare methods across datasets.
"""

import numpy as np

from desbal import auc_multiclass, average_ranks, f_measure_weighted, finner_stepdown, g_mean, sign_test
from desbal.stats import rank_test_pvalues, sign_test_critical_value

rng = np.random.default_rng(0)

# --- a classifier that ignores a 10-sample minority class ----------------------

labels = np.concatenate([np.zeros(90, int), np.ones(10, int)])
lazy = np.zeros(100, int)  # always predicts the majority
print("majority-only predictor on a 90/10 problem:")
print(f"  plain accuracy     {np.mean(lazy == labels):.3f}  (looks fine)")
print(f"  weighted F-measure {f_measure_weighted(lazy, labels):.3f}")
print(f"  G-mean             {g_mean(lazy, labels):.3f}  (zero recall kills it)")

# scores that rank the minority reasonably still earn AUC credit
scores = np.column_stack([0.6 + 0.3 * (labels == 0), 0.4 - 0.3 * (labels == 0)])
scores += rng.normal(scale=0.05, size=scores.shape)
scores = np.abs(scores)
scores /= scores.sum(axis=1, keepdims=True)
print(f"  pairwise AUC       {auc_multiclass(scores, labels):.3f}")

# --- comparing methods across datasets ------------------------------------------

methods = ("plain", "rebalanced", "rebalanced+DS")
table = np.array(
    [  # G-mean per dataset (rows) and method (columns)
        [0.05, 0.78, 0.84],
        [0.52, 0.80, 0.83],
        [0.90, 0.91, 0.90],
        [0.00, 0.66, 0.71],
        [0.31, 0.72, 0.79],
        [0.88, 0.93, 0.95],
    ]
)
ranks = average_ranks(table)
print("\naverage ranks over 6 datasets (1 = best):")
for name, rank in zip(methods, ranks):
    print(f"  {name:<15}{rank:.2f}")

best, pvalues, others = rank_test_pvalues(ranks, n_datasets=6)
rejected = finner_stepdown(pvalues, alpha=0.05)
print(f"best-ranked: {methods[best]}")
for pos, idx in enumerate(others):
    verdict = "different from best" if rejected[pos] else "equivalent to best"
    print(f"  {methods[idx]:<15} p = {pvalues[pos]:.4f} -> {verdict}")

# --- the sign test over wins/ties/losses -----------------------------------------

wins, ties, losses = 22, 1, 3
result = sign_test(wins, ties, losses, alpha=0.05)
print(f"\nsign test on {wins}W/{ties}T/{losses}L over 26 datasets:")
print(f"  adjusted wins {result.wins_adjusted} vs critical value "
      f"{result.critical_value} -> significant: {result.significant}")
print("  critical values at alpha 0.10/0.05/0.01: "
      + "/".join(str(sign_test_critical_value(26, a)) for a in (0.10, 0.05, 0.01)))
