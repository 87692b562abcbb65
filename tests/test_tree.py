"""CART induction and prediction contracts."""

import json

import numpy as np
import pytest

import desbal.tree as tree_module
import reference as ref
from desbal.benchmarks import load_benchmark
from desbal.data import standardize, stratified_5x2
from desbal.pool import generate_pool
from desbal.resampling import VARIANTS
from desbal.rng import derive_seed
from desbal.tree import LEAF, DecisionTree, TreeConfig, _best_split, fit_tree

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0])


def _leaf_tree(counts):
    return DecisionTree(
        feature=[LEAF], threshold=[0.0], left=[-1], right=[-1],
        counts=[counts], n_classes=len(counts), arity=2,
    )


class TestFit:
    def test_single_class_single_leaf(self):
        tree = fit_tree(np.arange(6.0).reshape(3, 2), [1, 1, 1], n_classes=2)
        assert tree.n_nodes == 1
        assert tree.predict_support(np.array([0.0, 0.0])).argmax(-1) == 1

    def test_xor_fully_separated(self):
        # independent check: a depth-2 tree can shatter XOR, so an unpruned
        # fit with zero stopping threshold must reach 100% training accuracy
        tree = fit_tree(XOR_X, XOR_Y, TreeConfig(min_impurity_decrease=0.0))
        assert np.array_equal(tree.predict_support(XOR_X).argmax(-1), XOR_Y)

    def test_impurity_threshold_stop(self):
        # best split peels 4 pure samples off a 5/5 parent:
        # decrease = 0.5 - 0.6 * gini(1/6, 5/6) = 1/3
        X = np.array([[0.0], [0.0], [0.0], [0.0], [1.0],
                      [1.0], [1.0], [1.0], [1.0], [1.0]])
        y = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
        stopped = fit_tree(X, y, TreeConfig(min_impurity_decrease=0.5))
        assert stopped.n_nodes == 1
        grown = fit_tree(X, y, TreeConfig(min_impurity_decrease=0.3))
        assert grown.n_nodes > 1

    def test_memorizes_distinct_points(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 3, size=40)
        tree = fit_tree(X, y, TreeConfig(min_impurity_decrease=0.0), n_classes=3)
        assert np.array_equal(tree.predict_support(X).argmax(-1), y)

    def test_deterministic_and_feature_tiebreak(self):
        # feature 1 duplicates feature 0: ties must resolve to feature 0
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([0, 0, 1, 1])
        one = fit_tree(X, y, TreeConfig(min_impurity_decrease=0.0))
        two = fit_tree(X, y, TreeConfig(min_impurity_decrease=0.0))
        assert one.feature[0] == 0
        assert np.array_equal(one.feature, two.feature)
        assert np.array_equal(one.threshold, two.threshold)
        assert np.array_equal(one.counts, two.counts)

    def test_max_depth_stump(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 4))
        y = (X[:, 0] > 0).astype(int)
        tree = fit_tree(X, y, TreeConfig(min_impurity_decrease=0.0, max_depth=1))
        assert tree.n_nodes <= 3

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            fit_tree(np.empty((0, 2)), [], n_classes=2)


def _assert_same_split(X, y, n_classes, n_total=None):
    """The library's split of one node; asserts it equals the oracle's."""
    X = np.asarray(X, dtype=float)
    onehot = np.eye(n_classes)[np.asarray(y)]
    counts = onehot.sum(axis=0)
    n_total = X.shape[0] if n_total is None else n_total
    got = _best_split(X, onehot, counts, n_total)
    want = ref.best_split_ref(X, onehot, counts, n_total)
    assert got == want  # feature, threshold and gain, all exactly equal
    return got


class TestSplitOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_nodes(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            n = int(rng.integers(2, 80))
            d = int(rng.integers(1, 8))
            n_classes = int(rng.integers(2, 12))  # 8+ classes: unrolled sums
            if rng.random() < 0.5:  # few levels: repeated values everywhere
                X = rng.integers(0, 4, size=(n, d)).astype(float)
            else:
                X = rng.normal(size=(n, d))
            y = rng.integers(0, n_classes, size=n)
            _assert_same_split(X, y, n_classes, n + int(rng.integers(0, 200)))

    def test_duplicated_columns_tie_to_lowest_feature(self):
        rng = np.random.default_rng(10)
        col = rng.normal(size=(30, 1))
        other = rng.normal(size=(30, 1))
        y = (col[:, 0] > 0).astype(int)
        assert _assert_same_split(np.hstack([col, col, col]), y, 2)[0] == 0
        assert _assert_same_split(np.hstack([other, col, other, col]), y, 2)[0] == 1

    def test_repeated_values_tie_to_lowest_threshold(self):
        # cutting at 0.5 or at 2.5 peels one pure class-0 block: equal gains
        X = np.array([[0.0], [0.0], [1.0], [1.0], [2.0], [2.0], [3.0], [3.0]])
        y = np.array([0, 0, 1, 1, 1, 1, 0, 0])
        assert _assert_same_split(X, y, 2)[1] == 0.5

    def test_constant_columns_skipped(self):
        X = np.column_stack([np.full(6, 2.0), [0, 1, 2, 3, 4, 5], np.full(6, -1.0)])
        y = np.array([0, 0, 0, 1, 1, 1])
        assert _assert_same_split(X, y, 2)[:2] == (1, 2.5)

    def test_all_constant_node_has_no_split(self):
        X = np.ones((5, 3))
        y = np.array([0, 1, 0, 1, 2])
        assert _assert_same_split(X, y, 3) == (None, None, -np.inf)

    def test_two_row_nodes(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            X = rng.integers(0, 2, size=(2, 3)).astype(float)
            _assert_same_split(X, rng.integers(0, 3, size=2), 3, 9)

    def test_one_feature(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(2, 40))
            X = rng.integers(0, 6, size=(n, 1)).astype(float)
            _assert_same_split(X, rng.integers(0, 4, size=n), 4, 50)

    def test_classes_absent_from_node(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            n = int(rng.integers(2, 40))
            X = rng.normal(size=(n, 4))
            y = rng.choice([1, 6], size=n)  # 8 classes, two present
            _assert_same_split(X, y, 8, 3 * n)

    def test_midpoint_rounded_onto_right_value(self):
        x = 1.0 + 2.0**-52  # odd last bit: x + ulp / 2 rounds up to the next value
        nxt = np.nextafter(x, np.inf)
        assert x + (nxt - x) / 2.0 == nxt
        X = np.array([[x], [nxt]])
        y = np.array([0, 1])
        feature, threshold, _ = _assert_same_split(X, y, 2)
        assert (feature, threshold) == (0, x)
        tree = fit_tree(X, y)
        assert tree.threshold[0] == x
        assert np.array_equal(tree.predict_support(X).argmax(-1), y)

    @pytest.mark.parametrize("name", ["glass", "ecoli"])
    def test_fit_tree_with_oracle_split_gives_same_trees(self, name, monkeypatch):
        # bootstraps exactly as run_experiment draws them (seed 20240601)
        ds = load_benchmark(name)
        plan = stratified_5x2(ds, derive_seed(20240601, "split", ds.name))
        rep, fold, train_idx, _ = next(iter(plan.folds()))
        train, _, _ = standardize(ds.subset(train_idx), [])
        for variant in VARIANTS:
            seed = derive_seed(20240601, ds.name, variant, rep, fold)
            pool = generate_pool(train, variant, 5, TreeConfig(), seed)
            with monkeypatch.context() as patch:
                patch.setattr(tree_module, "_best_split", ref.best_split_ref)
                oracle = generate_pool(train, variant, 5, TreeConfig(), seed)
            for got, want in zip(pool.classifiers, oracle.classifiers):
                for field in ("feature", "threshold", "left", "right", "counts"):
                    assert np.array_equal(getattr(got, field), getattr(want, field))


class TestSearchBound:
    """`fit_tree` skips the split search of a node whose share of the rows
    times its Gini is below `min_impurity_decrease`."""

    def test_trees_equal_an_unbounded_growth(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 70))
            d = int(rng.integers(1, 6))
            n_classes = int(rng.integers(2, 14))
            if rng.random() < 0.5:  # few levels: tied values everywhere
                X = rng.integers(0, 3, size=(n, d)).astype(float)
            else:
                X = rng.normal(size=(n, d))
            X[:, rng.random(d) < 0.3] = 1.5  # constant columns
            y = rng.integers(0, n_classes, size=n)
            mid = float(rng.choice([0.0, 0.01, 0.05, 0.3]))
            tree = fit_tree(X, y, TreeConfig(min_impurity_decrease=mid), n_classes)
            want = ref.fit_tree_ref(X, y, n_classes, mid)
            for field, expected in zip(("feature", "threshold", "left", "right", "counts"), want):
                got = getattr(tree, field)
                assert got.dtype == expected.dtype and np.array_equal(got, expected)

    def test_hopeless_nodes_are_not_searched(self, monkeypatch):
        searched = []

        def counting(X, *args):
            searched.append(len(X))
            return _best_split(X, *args)

        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 3))
        y = rng.integers(0, 3, size=200)  # noise: many small impure nodes
        monkeypatch.setattr(tree_module, "_best_split", counting)
        tree = fit_tree(X, y, TreeConfig(min_impurity_decrease=0.01))
        impure = [
            node for node in range(tree.n_nodes)
            if np.count_nonzero(tree.counts[node]) > 1 and tree.counts[node].sum() >= 2
        ]
        assert 0 < len(searched) < len(impure)


class TestPredict:
    def test_argmax_of_leaf_counts(self):
        assert _leaf_tree([3.0, 1.0, 0.0]).predict_support(np.zeros(2)).argmax(-1) == 0

    def test_tie_breaks_to_lowest_class(self):
        assert _leaf_tree([2.0, 2.0, 0.0]).predict_support(np.zeros(2)).argmax(-1) == 0

    def test_support_normalization(self):
        support = _leaf_tree([3.0, 1.0]).predict_support(np.zeros(2))
        assert np.allclose(support, [0.75, 0.25])

    def test_pure_leaf_one_hot(self):
        support = _leaf_tree([0.0, 4.0, 0.0]).predict_support(np.zeros(2))
        assert np.array_equal(support, [0.0, 1.0, 0.0])

    def test_support_simplex_property(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 3))
        y = rng.integers(0, 4, size=60)
        tree = fit_tree(X, y, n_classes=4)
        support = tree.predict_support(rng.normal(size=(25, 3)))
        assert (support >= 0).all()
        assert np.allclose(support.sum(axis=1), 1.0, atol=1e-12)

    def test_arity_mismatch(self):
        tree = fit_tree(XOR_X, XOR_Y, TreeConfig(min_impurity_decrease=0.0))
        with pytest.raises(ValueError, match="arity"):
            tree.predict_support(np.zeros(3))


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 3))
        y = rng.integers(0, 3, size=50)
        tree = fit_tree(X, y, n_classes=3)
        clone = DecisionTree.from_dict(tree.to_dict())
        probe = rng.normal(size=(30, 3))
        assert np.array_equal(
            tree.predict_support(probe).argmax(-1), clone.predict_support(probe).argmax(-1)
        )
        assert np.allclose(tree.predict_support(probe), clone.predict_support(probe))
        assert clone.arity == tree.arity

    def test_saved_json_is_pinned(self):
        # keys in file order, counts as floats, sizes as plain integers
        tree = fit_tree(np.array([[0.0], [1.0], [2.0]]), np.array([0, 1, 1]),
                        TreeConfig(min_impurity_decrease=0.0), n_classes=3)
        text = json.dumps(tree.to_dict())
        assert text == (
            '{"n_classes": 3, "arity": 1, "feature": [0, -1, -1], '
            '"threshold": [0.5, 0.0, 0.0], "left": [1, -1, -1], "right": [2, -1, -1], '
            '"counts": [[1.0, 2.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]}'
        )
        assert json.dumps(DecisionTree.from_dict(json.loads(text)).to_dict()) == text
