"""Shared fixtures: random small selection instances for oracle checks, and
the one way tests build a query around a hand-crafted region."""

import numpy as np
import pytest

from desbal.data import Dataset
from desbal.pool import Pool
from desbal.selection import Query, SelectionContext, _region_stats
from desbal.tree import TreeConfig, fit_tree


def region_query(indices, distances, predictions, supports, hits, agrees, labels):
    """A query over a hand-crafted region, its statistics from the library's
    `_region_stats` on a batch of one, as `make_queries` gives them."""
    stats = _region_stats(hits.T[:, None], labels[None], predictions[None], supports.shape[1])
    return Query(indices, distances, predictions, supports, hits, agrees,
                 *(stat[0] for stat in stats))


def random_instance(rng):
    """One small random selection problem: stump pool, random DSEL, one query.

    Pool <= 10 depth-1 trees, 2-4 classes, K <= 7. Returns the prepared
    context and query plus the raw ingredients the reference
    implementations work from.
    """
    n_dsel = int(rng.integers(10, 41))
    d = int(rng.integers(2, 5))
    n_classes = int(rng.integers(2, 5))
    pool_size = int(rng.integers(2, 11))
    k = int(rng.integers(1, 8))

    X_fit = rng.normal(size=(30, d))
    y_fit = rng.integers(0, n_classes, size=30)
    y_fit[:n_classes] = np.arange(n_classes)  # every class seen at least once
    trees = []
    config = TreeConfig(min_impurity_decrease=0.0, max_depth=1)
    for _ in range(pool_size):
        idx = rng.integers(0, 30, size=30)
        trees.append(fit_tree(X_fit[idx], y_fit[idx], config, n_classes=n_classes))
    pool = Pool(
        classifiers=tuple(trees), variant="Ba", generation_seed=0, n_classes=n_classes
    )
    dsel = Dataset(
        "random",
        rng.normal(size=(n_dsel, d)),
        rng.integers(0, n_classes, size=n_dsel),
        tuple(str(c) for c in range(n_classes)),
    )
    ctx = SelectionContext(pool, dsel)
    x_q = rng.normal(size=d)
    query = ctx.make_queries(x_q, k)[0]
    desknn_n = int(rng.integers(1, pool_size + 1))
    return {
        "ctx": ctx,
        "x": x_q,
        "query": query,
        "k": min(k, n_dsel),
        "n_classes": n_classes,
        "pool_size": pool_size,
        "mcb_ts": float(rng.choice([0.0, 0.4, 0.7, 0.95])),
        "mcb_tc": float(rng.choice([0.0, 0.05, 0.1, 0.3])),
        "desknn_n": desknn_n,
        "desknn_j": int(rng.integers(1, desknn_n + 1)),
    }


@pytest.fixture(scope="session")
def oracle_instances():
    """The 200 random instances shared by the selector oracle suites."""
    rng = np.random.default_rng(20240817)
    return [random_instance(rng) for _ in range(200)]
