"""Degenerate data as a property: tiny seeded datasets, with one-row classes,
ties, constant columns and near-duplicate rows, go through `_plan` and
`evaluate_cell` under every variant and selector. Planning may only refuse
a dataset for its documented reasons, every metric lies in [0, 1], and a
cell run twice gives the same bytes. Each test id is the generator's seed,
so a failure replays by itself."""

import numpy as np
import pytest

from desbal.data import Dataset
from desbal.experiment import RunConfig, _plan, evaluate_cell
from desbal.metrics import METRIC_NAMES
from desbal.resampling import VARIANTS
from desbal.selection import SELECTOR_NAMES

# `_plan`'s refusals: an empty training half, one training row under META-DES,
# and one test class under AUC
REFUSALS = ("cannot standardize an empty training set", "META-DES needs 2 training rows",
            "AUC needs 2 test classes")


def _draw(seed):
    """A dataset of 2 to 5 classes of 1 to 8 rows, most often 1 or 2, plus one
    1 to 8 rows larger than any of them, on 1 to 4 features, some with ties, a
    constant column or near-duplicate rows, and a run config with k 1 to 8, a
    pool of 1 to 5, with or without auc."""
    rng = np.random.default_rng(seed)
    counts = np.minimum(rng.geometric(0.5, size=rng.integers(2, 6)), 8)
    counts = [*counts, counts.max() + min(rng.geometric(0.5), 8)]
    labels = np.repeat(np.arange(len(counts)), counts)
    features = rng.normal(labels[:, None] * 0.5, 1.0, size=(len(labels), rng.integers(1, 5)))
    quirk = rng.integers(4)
    if quirk == 1:
        features = np.round(features)  # ties
    elif quirk == 2:
        features[:, -1] = 2.5  # a constant column
    elif quirk == 3:
        features[1::2] = features[0:-1:2] + 1e-12  # near-duplicates of the row before
    order = rng.permutation(len(labels))
    dataset = Dataset(f"degenerate{seed}", features[order], labels[order],
                      tuple(f"c{i}" for i in range(len(counts))))
    metrics = METRIC_NAMES if rng.random() < 0.5 else ("fmeasure", "gmean")
    cfg = RunConfig(datasets=(dataset.name,), output="", metrics=metrics,
                    pool_size=int(rng.integers(1, 6)), k=int(rng.integers(1, 9)), seed=seed)
    return dataset, cfg


@pytest.mark.parametrize("seed", range(30))
def test_degenerate_data(seed):
    dataset, cfg = _draw(seed)
    try:
        folds = list(_plan(cfg, dataset, set()))
    except ValueError as exc:
        assert str(exc).endswith(REFUSALS), f"seed {seed}: {exc}"
        return
    assert [cells for *_, cells in folds] == [[(v, list(SELECTOR_NAMES)) for v in VARIANTS]] * 10
    rep = seed % 5  # both folds of one replication, 12 cells
    for _, fold, train, test, cells in folds[2 * rep:2 * rep + 2]:
        for variant, selectors in cells:
            scored = evaluate_cell(cfg, train, test, variant, rep, fold, selectors, 1)
            values = np.array([[v[m] for m in cfg.metrics] for _, v, _ in scored])
            assert ((values >= 0) & (values <= 1)).all(), f"seed {seed} {variant}: {values}"
    again = evaluate_cell(cfg, train, test, variant, rep, fold, selectors, 1)  # the last cell
    assert np.array([[v[m] for m in cfg.metrics] for _, v, _ in again]).tobytes() \
        == values.tobytes(), f"seed {seed}: fold {fold} {variant} differs when run again"
