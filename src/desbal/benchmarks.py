"""Desk-scale benchmark catalogue.

Four small multi-class imbalanced classics (wine, glass, new-thyroid, ecoli)
drive the bundled demos and the reproduction experiment. Resolution order per
name: a user-supplied Keel `.dat` file, a bundled real copy (wine ships with
scikit-learn), then a deterministic synthetic stand-in with the published
sample count, attribute count, and per-class counts.
"""

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, parse_keel
from .rng import make_rng

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class BenchmarkSpec:
    name: str
    n_features: int
    class_counts: tuple
    class_overlap: float  # centre spread in within-class std units


CATALOG = {
    "wine": BenchmarkSpec("wine", 13, (59, 71, 48), 2.6),
    "glass": BenchmarkSpec("glass", 9, (70, 76, 17, 13, 9, 29), 2.2),
    "new-thyroid": BenchmarkSpec("new-thyroid", 5, (150, 35, 30), 2.4),
    "ecoli": BenchmarkSpec("ecoli", 7, (143, 77, 52, 35, 20, 5, 2, 2), 2.2),
}


def _load_wine_real() -> Dataset | None:
    try:
        from sklearn.datasets import load_wine
    except ImportError:
        return None
    raw = load_wine()
    return Dataset(
        name="wine",
        features=raw.data,
        labels=raw.target,
        class_names=tuple(str(c) for c in raw.target_names),
    )


def synthetic_like(name: str) -> Dataset:
    """Deterministic Gaussian-mixture stand-in with the catalogued shape.

    Class centres sit `class_overlap` within-class standard deviations apart
    on average, and a shared random mixing matrix correlates the features, so
    the classes are learnable but overlap enough for imbalance to bite.
    """
    spec = CATALOG[name]
    rng = make_rng("benchmark", name)
    L = len(spec.class_counts)
    d = spec.n_features
    centers = rng.normal(0.0, spec.class_overlap / np.sqrt(2), size=(L, d))
    mixing = rng.normal(0.0, 1.0, size=(d, d)) / np.sqrt(d) + np.eye(d)
    blocks, labels = [], []
    for c, count in enumerate(spec.class_counts):
        scales = rng.uniform(0.6, 1.4, size=d)
        z = rng.normal(0.0, 1.0, size=(count, d)) * scales
        blocks.append((centers[c] + z) @ mixing.T)
        labels.append(np.full(count, c, dtype=int))
    return Dataset(
        name=f"{name}-synthetic",
        features=np.vstack(blocks),
        labels=np.concatenate(labels),
        class_names=tuple(f"c{c}" for c in range(L)),
    ).validate()


def load_benchmark(name: str, data_dir=None) -> Dataset:
    """Resolve a catalogue name to real data when possible, else synthetic."""
    key = name.strip().lower()
    if key not in CATALOG:
        raise ValueError(f"unknown benchmark {name!r}; choose from {tuple(CATALOG)}")
    if data_dir is not None:
        candidate = Path(data_dir) / f"{key}.dat"
        if candidate.exists():
            return parse_keel(candidate.read_text(), name=key)
    if key == "wine":
        real = _load_wine_real()
        if real is not None:
            return real
    logger.info("benchmark %s: no real data found, using the synthetic stand-in", key)
    return synthetic_like(key)
