"""Bagging-based pool generation and dynamic-selection-set construction.

Each base classifier trains on a half-size bootstrap that is rebalanced by
the chosen preprocessing variant; the DSEL is the full training set augmented
(never reduced) by the same preprocessing.
"""

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset
from .resampling import apply_multiclass, normalize_variant, resample_dataset
from .rng import make_rng
from .tree import DecisionTree, TreeConfig, fit_tree

logger = logging.getLogger(__name__)

BOOTSTRAP_FRACTION = 0.5
MAX_BOOTSTRAP_REDRAWS = 10


@dataclass(frozen=True)
class Pool:
    """Immutable set of trained trees plus generation metadata."""

    classifiers: tuple
    variant: str
    generation_seed: int
    n_classes: int

    def __len__(self) -> int:
        return len(self.classifiers)

    @property
    def arity(self) -> int:
        return self.classifiers[0].arity

    def predict_all(self, X) -> np.ndarray:
        """Label matrix of shape (n_classifiers, n_samples): the argmax of
        `support_all`, so each tree is walked once."""
        return self.support_all(X).argmax(axis=2)

    def support_all(self, X) -> np.ndarray:
        """Support tensor of shape (n_classifiers, n_samples, n_classes)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.stack([np.atleast_2d(tree.predict_support(X)) for tree in self.classifiers])


def _bootstrap(train: Dataset, size: int, rng) -> tuple:
    """Half-size bootstrap; redraw a few times if a training class vanishes.

    Returns (indices, complete flag); an incomplete draw is accepted after
    the redraw budget runs out.
    """
    present = np.unique(train.labels)
    for attempt in range(MAX_BOOTSTRAP_REDRAWS + 1):
        idx = rng.integers(0, train.n_samples, size=size)
        if np.isin(present, train.labels[idx]).all():
            return idx, True
    return idx, False


def generate_pool(train: Dataset, variant: str, pool_size: int = 100,
                  config: TreeConfig = TreeConfig(), seed: int = 0) -> Pool:
    """Train `pool_size` trees, each on a preprocessed 50% bootstrap."""
    if train.n_samples == 0:
        raise ValueError("cannot generate a pool from an empty training set")
    variant = normalize_variant(variant)
    size = math.ceil(BOOTSTRAP_FRACTION * train.n_samples)
    trees = []
    incomplete = 0
    for i in range(pool_size):
        rng = make_rng(seed, "tree", i)
        idx, complete = _bootstrap(train, size, rng)
        incomplete += not complete
        boot = train.subset(idx)
        if variant != "Ba":
            boot = apply_multiclass(boot, variant, rng, warn_degenerate=False)
        trees.append(
            fit_tree(boot.features, boot.labels, config, n_classes=train.n_classes)
        )
    if incomplete:
        logger.warning(
            "%s: %d of %d bootstraps still missed a class after %d redraws",
            train.name, incomplete, pool_size, MAX_BOOTSTRAP_REDRAWS,
        )
    return Pool(
        classifiers=tuple(trees),
        variant=variant,
        generation_seed=seed,
        n_classes=train.n_classes,
    )


def build_dsel(train: Dataset, variant: str, seed: int = 0) -> Dataset:
    """Training set augmented by the variant's synthetic rows, as a Dataset
    named `<train>+<variant>`.

    Every original training row is always present, first and in order;
    Random Balance contributes only its synthetic portion (its undersampling
    step is ignored here so the competence set never loses real samples).
    """
    variant = normalize_variant(variant)
    rng = make_rng(seed, "dsel")
    result = resample_dataset(train, variant, rng)
    features = np.vstack([train.features, result.synthetic_features])
    labels = np.concatenate([train.labels, result.synthetic_labels])
    return train.with_rows(features, labels, name=f"{train.name}+{variant}")


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_pool(pool: Pool, directory, scaling_ref: str = "") -> None:
    """Write a manifest plus one JSON node dump per tree."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "variant": pool.variant,
        "generation_seed": pool.generation_seed,
        "pool_size": len(pool),
        "n_classes": pool.n_classes,
        "arity": pool.arity,
        "scaling_params": scaling_ref,
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))
    for i, tree in enumerate(pool.classifiers):
        (directory / f"tree_{i:03d}.json").write_text(json.dumps(tree.to_dict()))


def load_pool(directory) -> Pool:
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    trees = []
    for i in range(manifest["pool_size"]):
        payload = json.loads((directory / f"tree_{i:03d}.json").read_text())
        trees.append(DecisionTree.from_dict(payload))
    return Pool(
        classifiers=tuple(trees),
        variant=manifest["variant"],
        generation_seed=manifest["generation_seed"],
        n_classes=manifest["n_classes"],
    )
