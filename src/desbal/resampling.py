"""Data-level preprocessing: RUS, SMOTE, RAMO and Random Balance.

A variant is a table of per-class target sizes (`_targets`): Ba keeps every
count, SM/RM grow each class to the majority count (the *100 variants double
it, capped at the majority count) and RB redraws the sizes with the total
kept. `resample_dataset` then walks the classes in ascending id, undersamples
a class above its target with RUS and grows one below it with SMOTE, or RAMO
for the RM variants. Both oversamplers interpolate along the segment between
a seed row and one of its nearest same-class neighbours, so every synthetic
sample is a convex combination of two real rows.
"""

import logging
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, _neighbors

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
class SyntheticBatch:
    """Synthetic rows for one class plus their interpolation provenance.

    `seeds` and `neighbours` index the minority row matrix the batch was
    generated from; row r equals
    `minority[seeds[r]] + gaps[r] * (minority[neighbours[r]] - minority[seeds[r]])`.
    """

    samples: np.ndarray
    seeds: np.ndarray
    neighbours: np.ndarray
    gaps: np.ndarray

    def __len__(self) -> int:
        return self.samples.shape[0]


def _empty_batch(n_features: int) -> SyntheticBatch:
    no_rows = np.empty(0, dtype=int)
    return SyntheticBatch(np.empty((0, n_features)), no_rows, no_rows, np.empty(0))


def rus(samples, target_size: int, rng) -> np.ndarray:
    """Uniform subsample (without replacement) of an index set, sorted."""
    samples = np.asarray(samples)
    if target_size > samples.size:
        raise ValueError(f"target_size {target_size} exceeds sample count {samples.size}")
    return np.sort(rng.choice(samples, size=target_size, replace=False))


def _synthesize(rows, seeds, k: int, rng) -> SyntheticBatch:
    """One synthetic row per seed: pick one of the seed row's k nearest other
    rows, then slide a random gap along the segment to it."""
    neighbors = _neighbors(rows, np.arange(len(rows)), k)
    pick, slide, width = rng.integers, rng.random, neighbors.shape[1]
    cols, gaps = [], []
    for _ in range(len(seeds)):  # per-row draws keep the RNG stream
        cols.append(int(pick(width)))
        gaps.append(slide())  # random(): the same double as uniform(), about 4x faster
    picks, gaps, base = neighbors[seeds, cols], np.array(gaps), rows[seeds]
    return SyntheticBatch(base + gaps[:, None] * (rows[picks] - base), seeds, picks, gaps)


def smote_exact(rows, amount: int, k: int, rng) -> SyntheticBatch:
    """Generate exactly `amount` synthetic rows from `rows`.

    Each row seeds `amount // len(rows)` interpolations; the remainder comes
    from a random subset without replacement (the under-100% branch of the
    classic SMOTE procedure). `k` is clamped to len(rows) - 1.
    """
    rows = np.asarray(rows, dtype=float)
    t = rows.shape[0]
    if amount < 0 or k < 1:
        raise ValueError("amount must be >= 0 and k >= 1")
    if amount == 0:
        return _empty_batch(rows.shape[1] if rows.ndim == 2 else 0)
    if t < 2:
        raise ValueError("SMOTE needs >= 2 seeds")
    q, r = divmod(amount, t)
    seeds = np.repeat(np.arange(t), q)
    if r:
        seeds = np.concatenate([seeds, np.sort(rng.choice(t, size=r, replace=False))])
    return _synthesize(rows, seeds, k, rng)


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
    order = _neighbors(features, minority_indices, k1)
    hostile = labels[order] != labels[minority_indices][:, None]
    return logistic_weight(hostile.sum(axis=1), alpha)


def ramo(minority_indices, features, labels, amount: int, rng,
         k1: int = 10, k2: int = 5, alpha: float = 0.3) -> SyntheticBatch:
    """Ranked minority oversampling: weighted seed draws, then interpolation.

    Seeds are drawn with replacement with probability proportional to
    `ramo_weights` (k1 neighbours, sharpness alpha); each seed produces one
    SMOTE interpolation among its k2 nearest minority neighbours.
    """
    if k1 < 1 or k2 < 1 or alpha <= 0:
        raise ValueError("RAMO needs k1 >= 1, k2 >= 1 and alpha > 0")
    minority_indices = np.asarray(minority_indices, dtype=int)
    rows = np.asarray(features, dtype=float)[minority_indices]
    if amount == 0:
        return _empty_batch(rows.shape[1])
    if rows.shape[0] < 2:
        raise ValueError("SMOTE needs >= 2 seeds")
    weights = ramo_weights(minority_indices, features, labels, k1, alpha)
    seeds = rng.choice(rows.shape[0], size=amount, replace=True, p=weights / weights.sum())
    return _synthesize(rows, seeds, k2, rng)


# ---------------------------------------------------------------------------
# Multi-class orchestration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResampleResult:
    """Outcome of applying a variant: surviving originals plus synthetics."""

    kept_indices: np.ndarray  # rows of the input dataset that survived
    synthetic_features: np.ndarray
    synthetic_labels: np.ndarray


def _targets(counts, variant: str, rng) -> np.ndarray:
    """Per-class target sizes of a (normalized) variant; empty classes stay 0.

    Random Balance visits the classes with >= 2 rows in random order and
    draws each a size in [2, what leaves 2 for every class still to come];
    the last takes the rest, so their total is kept. Smaller classes keep
    their size.
    """
    targets = np.array(counts)
    if variant == "Ba":
        return targets
    if variant != "Ba-RB":
        majority = targets.max()
        grown = np.minimum(2 * targets, majority) if variant.endswith("100") else majority
        return np.where(targets > 0, grown, 0)
    eligible = np.flatnonzero(targets >= 2)
    remaining = targets[eligible].sum()
    order = rng.permutation(eligible)
    for pos, c in enumerate(order):
        rest = len(order) - pos - 1
        targets[c] = rng.integers(2, remaining - 2 * rest, endpoint=True) if rest else remaining
        remaining -= targets[c]
    return targets


def resample_dataset(dataset: Dataset, variant: str, rng,
                     warn_degenerate: bool = True) -> ResampleResult:
    """Apply a Table-2 variant to a dataset, exposing originals vs synthetics.

    Each class, in ascending id, is undersampled to its `_targets` size or
    grown to it (SMOTE with 5 neighbours, or RAMO with its defaults for the
    RM variants). A class with fewer than 2 rows cannot seed interpolation:
    if it should grow it is left as it is, with a warning (downgraded to
    debug when `warn_degenerate` is off, as in per-bootstrap preprocessing
    where tiny classes routinely thin out).
    """
    variant = normalize_variant(variant)
    counts = dataset.class_counts()
    grouped = np.argsort(dataset.labels, kind="stable")  # each class's rows, ascending
    starts = np.concatenate([[0], np.cumsum(counts)]).tolist()
    kept, synth_x, added = [], [np.empty((0, dataset.n_features))], [0] * dataset.n_classes
    for c, target in enumerate(_targets(counts, variant, rng).tolist()):
        idx = grouped[starts[c]:starts[c + 1]]
        kept.append(rus(idx, target, rng) if target < idx.size else idx)
        if target <= idx.size:
            continue
        if idx.size < 2:
            logger.log(
                logging.WARNING if warn_degenerate else logging.DEBUG,
                "%s: class %s has %d sample(s); cannot oversample, skipped",
                dataset.name, dataset.class_names[c], idx.size,
            )
            continue
        if "RM" in variant:
            batch = ramo(idx, dataset.features, dataset.labels, target - idx.size, rng)
        else:
            batch = smote_exact(dataset.features[idx], target - idx.size, 5, rng)
        synth_x.append(batch.samples)
        added[c] = len(batch)
    return ResampleResult(np.sort(np.concatenate(kept)), np.vstack(synth_x),
                          np.repeat(np.arange(dataset.n_classes), added))


def apply_multiclass(dataset: Dataset, variant: str, rng,
                     warn_degenerate: bool = True) -> Dataset:
    """Resampled dataset per the variant catalogue (see `resample_dataset`)."""
    result = resample_dataset(dataset, variant, rng, warn_degenerate)
    kept = result.kept_indices
    return replace(dataset,
                   features=np.vstack([dataset.features[kept], result.synthetic_features]),
                   labels=np.concatenate([dataset.labels[kept], result.synthetic_labels]))
