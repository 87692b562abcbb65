"""Ingesting an imbalanced dataset and preparing 5x2 cross-validation folds.

Walks through the data layer: Keel parsing (nominal attributes arrive as
one-hot indicator columns), leakage-free standardization, and the stratified
5x2 split plan.
"""

import numpy as np

from desbal import ImbalanceProfile, parse_keel, standardize, stratified_5x2
from desbal.benchmarks import load_benchmark

# --- a tiny Keel file with a nominal attribute -----------------------------

KEEL_TEXT = """@relation toy-imbalanced
@attribute width real [0.0, 10.0]
@attribute colour {red, green, blue}
@attribute class {common, rare}
@inputs width, colour
@outputs class
@data
1.2, red, common
2.1, green, common
3.3, blue, common
4.0, red, common
5.5, green, common
6.1, blue, common
7.7, red, rare
8.2, green, rare
"""

# the nominal colour becomes one indicator column per category (red, green,
# blue) so Euclidean distances stay honest
ds = parse_keel(KEEL_TEXT, name="toy")
print(f"parsed {ds.name}: {ds.n_samples} rows, {ds.n_features} numeric features "
      f"(width + 3 colour indicators), classes {ds.class_names}")
print(ds.features[:3])

# --- the benchmark catalogue ------------------------------------------------

glass = load_benchmark("glass")
profile = ImbalanceProfile.from_dataset(glass)
print(f"\n{glass.name}: counts {profile.class_counts}, "
      f"majority class {profile.majority_class}, IR {profile.imbalance_ratio:.2f}")

# --- 5x2 stratified splitting ------------------------------------------------

plan = stratified_5x2(glass, seed=7)
for rep, (fold_a, fold_b) in enumerate(plan.replications, start=1):
    counts_a = np.bincount(glass.labels[fold_a], minlength=glass.n_classes)
    counts_b = np.bincount(glass.labels[fold_b], minlength=glass.n_classes)
    print(f"replication {rep}: fold A {counts_a}  fold B {counts_b}")

# --- standardization is fitted on the training half only ---------------------

rep, fold_name, train_idx, test_idx = next(iter(plan.folds()))
train, test = glass.subset(train_idx), glass.subset(test_idx)
train_s, (test_s,), params = standardize(train, [test])
print(f"\ntrain feature means after scaling: "
      f"{np.abs(train_s.features.mean(axis=0)).max():.2e} (0 up to rounding)")
print(f"test feature means after the SAME map (not zero, no leakage): "
      f"{np.abs(test_s.features.mean(axis=0)).max():.3f}")
print(f"the map is the training half's own: std {np.round(params.std[:3], 3)} ... "
      f"(a constant feature keeps std 0 and maps to 0)")
