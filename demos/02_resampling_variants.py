"""The six pool-generation variants and what they do to class counts.

Every oversampler interpolates between a seed row and one of its nearest
same-class neighbours, so synthetic rows stay inside the class's convex
envelope; each batch keeps the seed, neighbour and gap of every synthetic row
as three arrays, so each row is auditable.
"""

import numpy as np

from desbal import VARIANTS, apply_multiclass, ramo_weights, smote_exact
from desbal.data import Dataset
from desbal.resampling import logistic_weight

rng = np.random.default_rng(0)

# an imbalanced three-class problem: 50 / 20 / 10
counts = (50, 20, 10)
labels = np.repeat(np.arange(3), counts)
centers = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 3.5]])
features = centers[labels] + rng.normal(scale=1.0, size=(labels.size, 2))
ds = Dataset("demo", features, labels, ("bulk", "mid", "rare"))

print(f"original counts: {np.bincount(ds.labels)}")
for variant in VARIANTS:
    out = apply_multiclass(ds, variant, np.random.default_rng(42))
    print(f"{variant:9s} -> {np.bincount(out.labels, minlength=3)}"
          f"  ({out.n_samples} rows)")

# --- SMOTE interpolation provenance -------------------------------------------

minority = ds.features[ds.labels == 2]
batch = smote_exact(minority, len(minority), 5, np.random.default_rng(1))
print(f"\nSMOTE at 100% produced {len(batch)} synthetic rows for the rare class")
print("provenance (row = seed + gap * (neighbour - seed)):")
print("row seed neighbour gap")
for r in range(5):
    print(f"{r:3d} {batch.seeds[r]:4d} {batch.neighbours[r]:9d} {batch.gaps[r]:.6f}")

# every synthetic point is a convex combination of two real rows
seed, neighbour, gap = batch.seeds[0], batch.neighbours[0], batch.gaps[0]
reconstructed = minority[seed] + gap * (minority[neighbour] - minority[seed])
print(f"row 0 check: {batch.samples[0]} == {reconstructed}")

# --- RAMO weights concentrate on hard seeds ------------------------------------

weights = ramo_weights(
    np.flatnonzero(ds.labels == 2), ds.features, ds.labels, k1=10, alpha=0.3
)
print(f"\nRAMO seed weights for the rare class: "
      f"min {weights.min():.3f} max {weights.max():.3f}")
print(f"a row with 0 hostile neighbours weighs {logistic_weight(0, 0.3):.3f}; "
      f"with 10 of 10 it weighs {logistic_weight(10, 0.3):.6f}")
print("hard-to-classify rows (deep in other classes' territory) are drawn more")
