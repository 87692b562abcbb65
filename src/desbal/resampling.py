"""Data-level preprocessing: RUS, SMOTE, RAMO, Random Balance.

All oversamplers interpolate along the segment between a seed row and one of
its nearest same-class neighbours, so every synthetic sample is a convex
combination of two real rows. The multi-class rule treats the largest class
as the majority and oversamples every other class.
"""

import logging
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .data import Dataset

logger = logging.getLogger(__name__)

# Catalogue of pool-generation variants: plain bagging, RAMO / SMOTE doubling
# the minority classes (capped at the majority count), RAMO / SMOTE equalizing
# all class counts, and Random Balance.
VARIANTS = ("Ba", "Ba-RM100", "Ba-RM", "Ba-SM100", "Ba-SM", "Ba-RB")

_CANONICAL = {v.lower(): v for v in VARIANTS}


def normalize_variant(name: str) -> str:
    try:
        return _CANONICAL[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown resampling variant {name!r}; choose from {VARIANTS}") from None


@dataclass(frozen=True)
class RamoConfig:
    """RAMO neighbourhood sizes and weight sharpness."""

    k1: int = 10
    k2: int = 5
    alpha: float = 0.3

    def __post_init__(self):
        if self.k1 < 1 or self.k2 < 1:
            raise ValueError("k1 and k2 must be >= 1")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")


@dataclass(frozen=True)
class SyntheticBatch:
    """Synthetic rows for one class plus their interpolation provenance.

    `provenance[r] = (seed, neighbour, gap)` positions index into the minority
    row matrix the batch was generated from; row r equals
    `minority[seed] + gap * (minority[neighbour] - minority[seed])`.
    """

    samples: np.ndarray
    class_id: int
    provenance: tuple

    def __len__(self) -> int:
        return self.samples.shape[0]

    def provenance_csv(self) -> str:
        lines = ["row,seed,neighbour,gap"]
        for r, (seed, neighbour, gap) in enumerate(self.provenance):
            lines.append(f"{r},{seed},{neighbour},{gap!r}")
        return "\n".join(lines) + "\n"


def _empty_batch(n_features: int, class_id: int) -> SyntheticBatch:
    return SyntheticBatch(
        samples=np.empty((0, n_features)), class_id=class_id, provenance=()
    )


def rus(samples, target_size: int, rng) -> np.ndarray:
    """Uniform subsample (without replacement) of an index set, sorted."""
    samples = np.asarray(samples)
    if target_size > samples.size:
        raise ValueError(f"target_size {target_size} exceeds sample count {samples.size}")
    return np.sort(rng.choice(samples, size=target_size, replace=False))


def _neighbor_table(rows: np.ndarray, k: int) -> np.ndarray:
    """k nearest same-set neighbours of each row (self excluded, ties by index)."""
    dists = cdist(rows, rows)
    np.fill_diagonal(dists, np.inf)
    order = np.argsort(dists, axis=1, kind="stable")
    return order[:, :k]


def _interpolate(rows, seeds, k_neighbors, rng):
    """One synthetic row per seed: pick a neighbour, slide a random gap."""
    neighbors = _neighbor_table(rows, k_neighbors) if k_neighbors > 0 else None
    picks = seeds.copy()  # degenerate single-row class: duplicate the seed
    gaps = np.empty(len(seeds))
    for r, seed in enumerate(seeds):  # per-row draws keep the RNG stream
        if neighbors is not None:
            picks[r] = neighbors[seed, rng.integers(neighbors.shape[1])]
        gaps[r] = rng.uniform()
    samples = rows[seeds] + gaps[:, None] * (rows[picks] - rows[seeds])
    return samples, tuple(zip(seeds.tolist(), picks.tolist(), gaps.tolist()))


def smote_exact(rows, amount: int, k: int, rng, class_id: int = 0,
                allow_degenerate: bool = False) -> SyntheticBatch:
    """Generate exactly `amount` synthetic rows from `rows`.

    Each row seeds `amount // len(rows)` interpolations; the remainder comes
    from a random subset without replacement (the under-100% branch of the
    classic SMOTE procedure). `k` is clamped to len(rows) - 1.
    """
    rows = np.asarray(rows, dtype=float)
    t = rows.shape[0]
    if amount < 0:
        raise ValueError("amount must be >= 0")
    if amount == 0:
        return _empty_batch(rows.shape[1] if rows.ndim == 2 else 0, class_id)
    if t < 2 and not allow_degenerate:
        raise ValueError("SMOTE needs >= 2 seeds")
    if t == 0:
        raise ValueError("cannot oversample an empty class")
    q, r = divmod(amount, t)
    seeds = np.repeat(np.arange(t), q)
    if r:
        seeds = np.concatenate([seeds, np.sort(rng.choice(t, size=r, replace=False))])
    samples, provenance = _interpolate(rows, seeds, min(k, t - 1), rng)
    return SyntheticBatch(samples=samples, class_id=class_id, provenance=provenance)


def smote(minority, n_percent: float, k: int = 5, rng=None, class_id: int = 0) -> SyntheticBatch:
    """Classic SMOTE: oversample `minority` by `n_percent` percent.

    For n >= 100 each row seeds floor(n/100) synthetics; for n < 100 a random
    subset of floor(n*T/100) rows seeds one synthetic each.
    """
    minority = np.asarray(minority, dtype=float)
    t = minority.shape[0]
    if t < 2:
        raise ValueError("SMOTE needs >= 2 seeds")
    if n_percent < 0:
        raise ValueError("oversampling percentage must be >= 0")
    if n_percent < 100:
        amount = int(n_percent * t) // 100
    else:
        amount = (int(n_percent) // 100) * t
    return smote_exact(minority, amount, k, rng, class_id=class_id)


def logistic_weight(majority_count, alpha: float) -> np.ndarray:
    """Seed weight 1 / (1 + exp(-alpha * m)) for m hostile neighbours."""
    return 1.0 / (1.0 + np.exp(-alpha * np.asarray(majority_count, dtype=float)))


def ramo_weights(minority_indices, features, labels, k1: int = 10,
                 alpha: float = 0.3) -> np.ndarray:
    """Seed-sampling weights for RAMO.

    For each minority row, counts how many of its k1 nearest neighbours in
    the whole dataset (self excluded) belong to a different class, and maps
    that count through the logistic weight: rows deep in hostile territory
    get sampled more.
    """
    minority_indices = np.asarray(minority_indices, dtype=int)
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    k1 = min(k1, features.shape[0] - 1)
    dists = cdist(features[minority_indices], features)
    dists[np.arange(minority_indices.size), minority_indices] = np.inf
    order = np.argsort(dists, axis=1, kind="stable")[:, :k1]
    hostile = labels[order] != labels[minority_indices][:, None]
    return logistic_weight(hostile.sum(axis=1), alpha)


def ramo(minority_indices, features, labels, amount: int,
         config: RamoConfig = RamoConfig(), rng=None) -> SyntheticBatch:
    """Ranked minority oversampling: weighted seed draws, then interpolation.

    Seeds are drawn with replacement with probability proportional to
    `ramo_weights`; each seed produces one SMOTE interpolation among its k2
    nearest minority neighbours.
    """
    minority_indices = np.asarray(minority_indices, dtype=int)
    labels = np.asarray(labels, dtype=int)
    class_id = int(labels[minority_indices[0]])
    rows = np.asarray(features, dtype=float)[minority_indices]
    if amount == 0:
        return _empty_batch(rows.shape[1], class_id)
    if rows.shape[0] < 2:
        raise ValueError("SMOTE needs >= 2 seeds")
    weights = ramo_weights(minority_indices, features, labels, config.k1, config.alpha)
    probs = weights / weights.sum()
    seeds = rng.choice(rows.shape[0], size=amount, replace=True, p=probs)
    samples, provenance = _interpolate(
        rows, seeds, min(config.k2, rows.shape[0] - 1), rng
    )
    return SyntheticBatch(samples=samples, class_id=class_id, provenance=provenance)


def random_balance(class_a, class_b, k: int = 5, rng=None):
    """Two-class Random Balance: redraw the class ratio, keep the total size.

    The current majority's new size is uniform in [2, total - 2]; the class
    that shrinks is randomly undersampled and the one that grows is topped up
    with SMOTE interpolations. Returns the two new row sets in argument order.
    """
    class_a = np.asarray(class_a, dtype=float)
    class_b = np.asarray(class_b, dtype=float)
    total = class_a.shape[0] + class_b.shape[0]
    if total < 4:
        raise ValueError("random balance needs at least 4 samples in total")
    a_is_major = class_a.shape[0] >= class_b.shape[0]
    major, minor = (class_a, class_b) if a_is_major else (class_b, class_a)
    new_major = int(rng.integers(2, total - 2, endpoint=True))
    new_minor = total - new_major
    if new_major < major.shape[0]:
        major = major[rus(np.arange(major.shape[0]), new_major, rng)]
        grown = smote_exact(minor, new_minor - minor.shape[0], k, rng,
                            allow_degenerate=True)
        minor = np.vstack([minor, grown.samples])
    else:
        minor = minor[rus(np.arange(minor.shape[0]), new_minor, rng)]
        grown = smote_exact(major, new_major - major.shape[0], k, rng,
                            allow_degenerate=True)
        major = np.vstack([major, grown.samples])
    return (major, minor) if a_is_major else (minor, major)


# ---------------------------------------------------------------------------
# Multi-class orchestration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResampleResult:
    """Outcome of applying a variant: surviving originals plus synthetics."""

    kept_indices: np.ndarray  # rows of the input dataset that survived
    synthetic_features: np.ndarray
    synthetic_labels: np.ndarray

    def assemble(self, dataset: Dataset, name=None) -> Dataset:
        features = np.vstack([dataset.features[self.kept_indices], self.synthetic_features])
        labels = np.concatenate([dataset.labels[self.kept_indices], self.synthetic_labels])
        return dataset.with_rows(features, labels, name=name)


def _oversample_amounts(counts, majority, double: bool):
    """Synthetic rows per class: up to the majority count, or doubling (capped)."""
    amounts = {}
    for c, n_c in enumerate(counts):
        if c == majority or n_c == 0:
            continue
        amounts[c] = min(n_c, counts[majority] - n_c) if double else counts[majority] - n_c
    return amounts


def _rb_targets(counts, rng):
    """Random class sizes >= 2 with the same total, drawn in random class order."""
    eligible = [c for c, n in enumerate(counts) if n >= 2]
    frozen = {c: int(n) for c, n in enumerate(counts) if 0 < n < 2}
    total = int(sum(counts[c] for c in eligible))
    order = rng.permutation(eligible)
    targets = dict(frozen)
    remaining = total
    for pos, c in enumerate(order):
        rest = len(order) - pos - 1
        if rest == 0:
            targets[int(c)] = remaining
        else:
            targets[int(c)] = int(rng.integers(2, remaining - 2 * rest, endpoint=True))
        remaining -= targets[int(c)]
    return targets


def resample_dataset(dataset: Dataset, variant: str, rng, k_smote: int = 5,
                     ramo_config: RamoConfig = RamoConfig(),
                     warn_degenerate: bool = True) -> ResampleResult:
    """Apply a Table-2 variant to a dataset, exposing originals vs synthetics.

    The largest class (ties to the lowest id) is the majority; every other
    class is oversampled (SM/RM variants) or resized (RB). Minority classes
    with fewer than 2 samples cannot seed interpolation and are skipped with
    a warning (downgraded to debug when `warn_degenerate` is off, as in
    per-bootstrap preprocessing where tiny classes routinely thin out).
    """
    variant = normalize_variant(variant)
    counts = dataset.class_counts()
    n = dataset.n_samples
    all_idx = np.arange(n)
    if variant == "Ba":
        return ResampleResult(all_idx, np.empty((0, dataset.n_features)), np.empty(0, dtype=int))

    majority = int(np.argmax(counts))
    if variant == "Ba-RB":
        targets = _rb_targets(counts, rng)
        kept, synth_x, synth_y = [], [], []
        for c in range(dataset.n_classes):
            idx = np.flatnonzero(dataset.labels == c)
            if idx.size == 0:
                continue
            target = targets[c]
            if target < idx.size:
                kept.append(rus(idx, target, rng))
            else:
                kept.append(idx)
                if target > idx.size:
                    batch = smote_exact(dataset.features[idx], target - idx.size,
                                        k_smote, rng, class_id=c, allow_degenerate=True)
                    synth_x.append(batch.samples)
                    synth_y.append(np.full(len(batch), c, dtype=int))
        return _pack(dataset, np.concatenate(kept), synth_x, synth_y)

    double = variant.endswith("100")
    use_ramo = "RM" in variant
    amounts = _oversample_amounts(counts, majority, double)
    synth_x, synth_y = [], []
    for c in sorted(amounts):
        idx = np.flatnonzero(dataset.labels == c)
        if idx.size < 2:
            logger.log(
                logging.WARNING if warn_degenerate else logging.DEBUG,
                "%s: class %s has %d sample(s); cannot oversample, skipped",
                dataset.name, dataset.class_names[c], idx.size,
            )
            continue
        if amounts[c] <= 0:
            continue
        if use_ramo:
            batch = ramo(idx, dataset.features, dataset.labels, amounts[c],
                         ramo_config, rng)
        else:
            batch = smote_exact(dataset.features[idx], amounts[c], k_smote, rng, class_id=c)
        synth_x.append(batch.samples)
        synth_y.append(np.full(len(batch), c, dtype=int))
    return _pack(dataset, all_idx, synth_x, synth_y)


def _pack(dataset, kept, synth_x, synth_y) -> ResampleResult:
    if synth_x:
        return ResampleResult(np.sort(kept), np.vstack(synth_x), np.concatenate(synth_y))
    return ResampleResult(
        np.sort(kept), np.empty((0, dataset.n_features)), np.empty(0, dtype=int)
    )


def apply_multiclass(dataset: Dataset, variant: str, rng, k_smote: int = 5,
                     ramo_config: RamoConfig = RamoConfig(),
                     warn_degenerate: bool = True) -> Dataset:
    """Resampled dataset per the variant catalogue (see `resample_dataset`)."""
    if dataset.n_classes < 2:
        raise ValueError("multi-class resampling needs at least 2 classes")
    result = resample_dataset(
        dataset, variant, rng, k_smote, ramo_config, warn_degenerate
    )
    return result.assemble(dataset)
