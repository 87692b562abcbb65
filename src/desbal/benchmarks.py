"""Desk-scale benchmark catalogue.

Four small multi-class imbalanced classics (wine, glass, new-thyroid, ecoli)
drive the bundled demos and the reproduction experiment. Each name is either
a Keel `.dat` file in a given data directory or a deterministic synthetic
stand-in with the published sample count, attribute count, and per-class
counts.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, parse_keel
from .rng import make_rng


@dataclass(frozen=True)
class BenchmarkSpec:
    n_features: int
    class_counts: tuple
    class_overlap: float  # centre spread in within-class std units


CATALOG = {
    "wine": BenchmarkSpec(13, (59, 71, 48), 2.6),
    "glass": BenchmarkSpec(9, (70, 76, 17, 13, 9, 29), 2.2),
    "new-thyroid": BenchmarkSpec(5, (150, 35, 30), 2.4),
    "ecoli": BenchmarkSpec(7, (143, 77, 52, 35, 20, 5, 2, 2), 2.2),
}


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
    """The Keel file `<data_dir>/<name>.dat` when `data_dir` is given (a
    missing file raises), else the synthetic stand-in."""
    key = name.strip().lower()
    if key not in CATALOG:
        raise ValueError(f"unknown benchmark {name!r}; choose from {tuple(CATALOG)}")
    if data_dir is None:
        return synthetic_like(key)
    return parse_keel((Path(data_dir) / f"{key}.dat").read_text(encoding="utf-8-sig"), name=key)
