"""Growing a rebalanced bagging pool and its competence-estimation set.

Each tree trains on a half-size bootstrap that the chosen variant rebalances
first; the DSEL keeps every real training row and adds the synthetic ones, so
competence regions around minority queries are no longer starved.
"""

import tempfile

import numpy as np

from desbal import TreeConfig, build_dsel, generate_pool, load_pool, save_pool
from desbal.benchmarks import load_benchmark
from desbal.data import standardize, stratified_5x2

glass = load_benchmark("glass")
plan = stratified_5x2(glass, seed=3)
_, _, train_idx, test_idx = next(iter(plan.folds()))
train, test = glass.subset(train_idx), glass.subset(test_idx)
train_s, (test_s,), _ = standardize(train, [test])

config = TreeConfig(min_impurity_decrease=0.05)  # early stop keeps leaves mixed
print(f"training half: {train_s.n_samples} rows, counts "
      f"{np.bincount(train_s.labels, minlength=glass.n_classes)}")

for variant in ("Ba", "Ba-RM"):
    pool = generate_pool(train_s, variant, pool_size=100, config=config, seed=11)
    dsel = build_dsel(train_s, variant, seed=11)
    preds = pool.predict_all(test_s.features)
    # plurality vote of the whole pool, class ties to the lowest id
    votes = np.apply_along_axis(
        lambda col: np.bincount(col, minlength=glass.n_classes).argmax(), 0, preds
    )
    per_class = [
        float(np.mean(votes[test_s.labels == c] == c))
        for c in range(glass.n_classes)
        if (test_s.labels == c).any()
    ]
    print(f"\n{variant}: DSEL grew {train_s.n_samples} -> {dsel.n_samples} rows")
    print(f"  static-vote recall per class: "
          + " ".join(f"{r:.2f}" for r in per_class))

print("\nrebalanced bootstraps let trees see minority classes; the plain pool")
print("rarely outvotes the majority on them")

# pools persist as a manifest plus one JSON node dump per tree
with tempfile.TemporaryDirectory(prefix="desbal_demo_") as out:
    save_pool(pool, out)
    again = load_pool(out)
assert np.array_equal(again.predict_all(test_s.features), preds)
print(f"\npool round-tripped through a temporary directory "
      f"({len(again)} trees, variant {again.variant})")
