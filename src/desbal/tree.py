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
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0 or None")


class DecisionTree:
    """Fitted tree stored as flat node arrays.

    `feature[i] == -1` marks a leaf; internal nodes route `x[feature] <=
    threshold` to `left`, otherwise to `right`, a higher index. Every node
    keeps its training class counts; leaf counts give the class supports.
    """

    def __init__(self, feature, threshold, left, right, counts, n_classes, arity):
        self.feature = np.asarray(feature, dtype=int)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=int)
        self.right = np.asarray(right, dtype=int)
        self.counts = np.asarray(counts, dtype=float)
        self.n_classes = int(n_classes)
        self.arity = int(arity)
        # the walk's routing: a leaf sends every row back to itself, whatever
        # its feature (-1, the last column) and threshold make of the row
        leaf, at = self.feature == LEAF, np.arange(self.n_nodes)
        self._left, self._right = np.where(leaf, at, self.left), np.where(leaf, at, self.right)
        depth = [0] * self.n_nodes
        for i, (lo, hi) in enumerate(zip(self.left.tolist(), self.right.tolist())):
            if lo != -1:  # children follow their parent
                depth[lo] = depth[hi] = depth[i] + 1
        self._levels = max(depth, default=0)
        self._support = self.counts / self.counts.sum(axis=1, keepdims=True)

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    def apply(self, X) -> np.ndarray:
        """Leaf index reached by each of the n rows of X, (n, d) for a tree of arity d."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.arity:
            raise ValueError(f"arity mismatch: tree expects (n, {self.arity}) rows, got {X.shape}")
        rows = np.arange(X.shape[0])
        node = np.zeros(X.shape[0], dtype=int)
        for _ in range(self._levels):
            goes_left = X[rows, self.feature[node]] <= self.threshold[node]
            node = np.where(goes_left, self._left[node], self._right[node])
        return node

    def predict_support(self, X) -> np.ndarray:
        """Leaf class counts normalized to sum 1, (n, L) for the n rows of X."""
        return self._support[self.apply(X)]

    def to_dict(self) -> dict:
        return {name: np.asarray(getattr(self, name)).tolist() for name in SAVED_FIELDS}

    @classmethod
    def from_dict(cls, payload: dict) -> "DecisionTree":
        """Rebuild a saved tree. A ValueError names the first fault that
        would leave it unwalkable, or a support undefined."""
        fields = {name: payload[name] for name in SAVED_FIELDS}
        feature, left, right = (np.asarray(fields[k], dtype=int)
                                for k in ("feature", "left", "right"))
        counts, n, arity = np.asarray(fields["counts"], dtype=float), feature.size, fields["arity"]
        if {np.shape(fields["threshold"]), left.shape, right.shape} != {(n,)} or \
                counts.shape != (n, fields["n_classes"]):
            raise ValueError("saved tree: node arrays differ in length, or counts have shape "
                             f"{counts.shape}, not (n_nodes, n_classes)")
        inner, first, last = feature != LEAF, np.minimum(left, right), np.maximum(left, right)
        for fault, bad in {
            "a leaf has children": ~inner & ((first != -1) | (last != -1)),
            "an internal node lacks a child": inner & (first == -1),
            "a child index is out of range or not greater than its parent's":
                inner & ((first <= np.arange(n)) | (last >= n)),
            f"a feature is outside [0, {arity})": inner & ((feature < 0) | (feature >= arity)),
            "a node's counts sum to 0": counts.sum(axis=1) == 0,
        }.items():
            if bad.any():
                raise ValueError(f"saved tree: {fault} (node {np.flatnonzero(bad)[0]})")
        return cls(**fields)


def _best_split(X, onehot, idx, gini, n_total):
    """Best (feature, threshold, weighted decrease, left child's class
    counts) for the node of rows `idx`, whose features are `X` and whose
    Gini impurity is `gini`; `onehot` holds every training row's class.

    Scores every (position, feature) pair of the column-wise sorted node at
    once; positions that are not a boundary between distinct sorted values
    score -inf. Returns (None, None, -inf, None) when no candidate threshold
    exists. The gain is already weighted by n_node / n_total.
    """
    n, d = X.shape
    order = X.argsort(axis=0, kind="stable")
    sv = X[order, np.arange(d)]
    boundary = sv[:-1] != sv[1:]  # (n - 1, d)
    if not boundary.any():
        return None, None, -np.inf, None
    # running class counts down each sorted column: exact integers, so the
    # last row is the node's counts and a child's counts are one of its rows
    cum = onehot.take(idx[order], axis=0).cumsum(axis=0)  # (n, d, L)
    n_left = np.arange(1.0, n)[:, None]
    n_right = n - n_left
    # each class-axis sum runs over a C-contiguous (..., L) block, whose
    # order numpy fixes (8+ terms pairwise): the gains keep their bits
    share = cum[:-1] / n_left[..., None]
    gini_left = 1.0 - np.square(share, out=share).sum(axis=2)
    np.subtract(cum[-1], cum[:-1], out=share)
    share /= n_right[..., None]
    gini_right = 1.0 - np.square(share, out=share).sum(axis=2)
    gains = (n / n_total) * (gini - (n_left * gini_left + n_right * gini_right) / n)
    gains[~boundary] = -np.inf
    # feature-major: the first maximum is the lowest feature, then threshold
    j, b = divmod(int(np.argmax(gains.T)), n - 1)
    mid = sv[b, j] + (sv[b + 1, j] - sv[b, j]) / 2.0
    if mid >= sv[b + 1, j]:  # midpoint rounded onto the right value
        mid = sv[b, j]
    return j, float(mid), gains[b, j], cum[b, j].copy()


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
    onehot = np.eye(L)[y]

    # rows of (feature, threshold, left, right, counts), in creation order
    nodes = [[LEAF, 0.0, -1, -1, onehot.sum(axis=0)]]
    stack = [(0, np.arange(n_total), 0)]  # (node, row indices, depth): deep trees stay safe
    while stack:
        node, idx, depth = stack.pop()
        node_counts = nodes[node][4]
        if idx.size < 2 or np.count_nonzero(node_counts) == 1 or (
                config.max_depth is not None and depth >= config.max_depth):
            continue
        gini = 1.0 - ((node_counts / idx.size) ** 2).sum()
        # child impurities are >= 0, so no split gains more than this bound
        if (idx.size / n_total) * gini < config.min_impurity_decrease:
            continue
        Xn = X[idx]
        feat, thr, gain, left_counts = _best_split(Xn, onehot, idx, gini, n_total)
        if feat is None or gain < config.min_impurity_decrease:
            continue
        go_left = Xn[:, feat] <= thr
        left = len(nodes)
        nodes[node][:4] = feat, thr, left, left + 1
        nodes += [[LEAF, 0.0, -1, -1, left_counts], [LEAF, 0.0, -1, -1, node_counts - left_counts]]
        stack += [(left + 1, idx[~go_left], depth + 1), (left, idx[go_left], depth + 1)]

    feature, threshold, left, right, counts = zip(*nodes)
    return DecisionTree(feature, threshold, left, right, np.vstack(counts), L, arity=X.shape[1])
