"""CART decision trees with Gini impurity and an impurity-decrease early stop.

Induction is fully deterministic: candidate thresholds are the midpoints
between consecutive distinct sorted feature values, and equal-gain splits
break ties by lowest feature index, then lowest threshold.
"""

from dataclasses import dataclass

import numpy as np

LEAF = -1
# a saved tree's keys, in file order
SAVED_FIELDS = ("n_classes", "arity", "feature", "threshold", "left", "right", "counts")


@dataclass(frozen=True)
class TreeConfig:
    """Induction parameters. Defaults: Gini, no depth cap, 0.05 early stop."""

    min_impurity_decrease: float = 0.05
    max_depth: int | None = None

    def __post_init__(self):
        if self.min_impurity_decrease < 0:
            raise ValueError("min_impurity_decrease must be >= 0")


class DecisionTree:
    """Fitted tree stored as flat node arrays.

    `feature[i] == -1` marks a leaf; internal nodes route `x[feature] <=
    threshold` to `left`, otherwise to `right`. Every node keeps its training
    class counts; leaf counts give the class supports.
    """

    def __init__(self, feature, threshold, left, right, counts, n_classes, arity):
        self.feature = np.asarray(feature, dtype=int)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=int)
        self.right = np.asarray(right, dtype=int)
        self.counts = np.asarray(counts, dtype=float)
        self.n_classes = int(n_classes)
        self.arity = int(arity)

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    def apply(self, X) -> np.ndarray:
        """Leaf index reached by each row of X."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        node = np.zeros(X.shape[0], dtype=int)
        while True:
            feats = self.feature[node]
            live = np.flatnonzero(feats != LEAF)
            if live.size == 0:
                return node
            cur = node[live]
            go_left = X[live, self.feature[cur]] <= self.threshold[cur]
            node[live] = np.where(go_left, self.left[cur], self.right[cur])

    def predict_support(self, x) -> np.ndarray:
        """Leaf class counts normalized to sum 1, per row of x."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        X = np.atleast_2d(x)
        if X.shape[1] != self.arity:
            raise ValueError(
                f"arity mismatch: tree expects {self.arity} features, got {X.shape[1]}"
            )
        counts = self.counts[self.apply(X)]
        support = counts / counts.sum(axis=1, keepdims=True)
        return support[0] if single else support

    def to_dict(self) -> dict:
        return {name: np.asarray(getattr(self, name)).tolist() for name in SAVED_FIELDS}

    @classmethod
    def from_dict(cls, payload: dict) -> "DecisionTree":
        return cls(**{name: payload[name] for name in SAVED_FIELDS})


def _gini(counts, n):
    """Gini impurity of a node with class `counts` over `n` rows."""
    return 1.0 - ((counts / n) ** 2).sum()


def _best_split(X, y_onehot, counts, n_total):
    """Best (feature, threshold, weighted decrease) for one node.

    Scores every (position, feature) pair of the column-wise sorted node at
    once; positions that are not a boundary between distinct sorted values
    score -inf. Returns (None, None, -inf) when no candidate threshold
    exists. The gain is already weighted by n_node / n_total.
    """
    n = X.shape[0]
    order = np.argsort(X, axis=0, kind="stable")
    sv = np.take_along_axis(X, order, axis=0)
    boundary = sv[:-1] != sv[1:]  # (n - 1, d)
    if not boundary.any():
        return None, None, -np.inf
    left_counts = y_onehot[order].cumsum(axis=0)[:-1]  # (n - 1, d, L)
    right_counts = counts - left_counts
    n_left = np.arange(1.0, n)[:, None]
    n_right = n - n_left
    parent_gini = _gini(counts, n)
    gini_left = 1.0 - ((left_counts / n_left[..., None]) ** 2).sum(axis=2)
    gini_right = 1.0 - ((right_counts / n_right[..., None]) ** 2).sum(axis=2)
    child = (n_left * gini_left + n_right * gini_right) / n
    gains = np.where(boundary, (n / n_total) * (parent_gini - child), -np.inf)
    # feature-major: the first maximum is the lowest feature, then threshold
    j, b = divmod(int(np.argmax(gains.T)), n - 1)
    mid = sv[b, j] + (sv[b + 1, j] - sv[b, j]) / 2.0
    if mid >= sv[b + 1, j]:  # midpoint rounded onto the right value
        mid = sv[b, j]
    return j, float(mid), gains[b, j]


def fit_tree(X, y, config: TreeConfig = TreeConfig(), n_classes=None) -> DecisionTree:
    """Grow an unpruned CART tree by greedy Gini splits.

    A node becomes a leaf when it is pure, holds fewer than 2 samples, or no
    split reaches `min_impurity_decrease` (gain weighted by the node's share
    of the training samples). Induction is deterministic.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("fit_tree needs a non-empty 2-D feature matrix")
    if y.shape[0] != X.shape[0]:
        raise ValueError("X and y row counts differ")
    L = int(n_classes) if n_classes is not None else int(y.max()) + 1
    n_total = X.shape[0]
    onehot = np.zeros((n_total, L))
    onehot[np.arange(n_total), y] = 1.0

    feature, threshold, left, right, counts = [], [], [], [], []

    def new_node():
        feature.append(LEAF)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        counts.append(None)
        return len(feature) - 1

    # (node id, row indices, depth) — explicit stack keeps deep trees safe
    stack = [(new_node(), np.arange(n_total), 0)]
    while stack:
        node, idx, depth = stack.pop()
        node_onehot = onehot[idx]
        node_counts = node_onehot.sum(axis=0)
        counts[node] = node_counts
        if (
            idx.size < 2
            or np.count_nonzero(node_counts) == 1
            or (config.max_depth is not None and depth >= config.max_depth)
            # child impurities are >= 0, so no split gains more than this bound
            or (idx.size / n_total) * _gini(node_counts, idx.size) < config.min_impurity_decrease
        ):
            continue
        feat, thr, gain = _best_split(X[idx], node_onehot, node_counts, n_total)
        if feat is None or gain < config.min_impurity_decrease:
            continue
        go_left = X[idx, feat] <= thr
        feature[node] = feat
        threshold[node] = thr
        left[node] = new_node()
        right[node] = new_node()
        stack.append((right[node], idx[~go_left], depth + 1))
        stack.append((left[node], idx[go_left], depth + 1))

    return DecisionTree(
        feature, threshold, left, right, np.vstack(counts), L, arity=X.shape[1]
    )
