"""CART induction and prediction contracts."""

import json

import numpy as np
import pytest

import desbal.pool as pool_module
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
NODE_FIELDS = ("feature", "threshold", "left", "right", "counts")


def _leaf_tree(counts):
    return DecisionTree(
        feature=[LEAF], threshold=[0.0], left=[-1], right=[-1],
        counts=[counts], n_classes=len(counts), arity=2,
    )


class TestFit:
    def test_single_class_single_leaf(self):
        tree = fit_tree(np.arange(6.0).reshape(3, 2), [1, 1, 1], n_classes=2)
        assert tree.n_nodes == 1
        assert tree.predict_support(np.zeros((1, 2))).argmax(-1).tolist() == [1]

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

    def test_max_depth_zero_is_a_leaf_and_negative_is_refused(self):
        X, y = np.arange(6.0)[:, None], np.array([0, 0, 0, 1, 1, 1])
        assert fit_tree(X, y, TreeConfig(max_depth=0)).n_nodes == 1
        with pytest.raises(ValueError, match="max_depth must be >= 0"):
            TreeConfig(max_depth=-1)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            fit_tree(np.empty((0, 2)), [], n_classes=2)


def _assert_same_split(X, y, n_classes, n_total=None):
    """The library's split of one node, whose rows sit among others in the
    one-hot table; asserts it equals the oracle's, and that the left
    child's counts equal its one-hot rows summed again."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    onehot = np.eye(n_classes)[np.asarray(y)]
    counts = onehot.sum(axis=0)
    n_total = n if n_total is None else n_total
    rng = np.random.default_rng(n)
    idx = np.sort(rng.choice(n + 5, size=n, replace=False))
    table = np.eye(n_classes)[rng.integers(0, n_classes, size=n + 5)]
    table[idx] = onehot
    gini = 1.0 - ((counts / n) ** 2).sum()
    *got, left_counts = _best_split(X, table, idx, gini, n_total)
    want = ref.best_split_ref(X, onehot, counts, n_total)
    assert tuple(got) == want  # feature, threshold and gain, all exactly equal
    if want[0] is None:
        assert left_counts is None
    else:
        summed = onehot[X[:, want[0]] <= want[1]].sum(axis=0)
        assert left_counts.tobytes() == summed.tobytes()
    return want


def _oracle_split(X, onehot, idx, gini, n_total):
    """`best_split_ref` in `_best_split`'s call shape: the node's counts and
    the left child's are summed again from their one-hot rows."""
    rows = onehot[idx]
    feature, threshold, gain = ref.best_split_ref(X, rows, rows.sum(axis=0), n_total)
    if feature is None:
        return feature, threshold, gain, None
    return feature, threshold, gain, rows[X[:, feature] <= threshold].sum(axis=0)


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
                patch.setattr(tree_module, "_best_split", _oracle_split)
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


class TestPipelineGrowth:
    @pytest.mark.parametrize("name", ["glass", "ecoli"])
    def test_pool_trees_equal_the_recursive_growth(self, name, monkeypatch):
        # every variant's bootstraps as run_experiment draws them, fold 1A
        ds = load_benchmark(name)
        plan = stratified_5x2(ds, derive_seed(20240601, "split", ds.name))
        rep, fold, train_idx, _ = next(iter(plan.folds()))
        train, _, _ = standardize(ds.subset(train_idx), [])
        grown = []

        def recording(X, y, config, n_classes=None):
            tree = fit_tree(X, y, config, n_classes=n_classes)
            grown.append((X, y, n_classes, config, tree))
            return tree

        monkeypatch.setattr(pool_module, "fit_tree", recording)
        for variant in VARIANTS:
            generate_pool(train, variant, 10, TreeConfig(),
                          derive_seed(20240601, ds.name, variant, rep, fold))
        assert len(grown) == 10 * len(VARIANTS)
        for X, y, n_classes, config, tree in grown:
            want = ref.fit_tree_ref(X, y, n_classes, config.min_impurity_decrease)
            for field, expected in zip(NODE_FIELDS, want):
                got = getattr(tree, field)
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def _assert_walk_matches_oracle(tree, X):
    """`apply` and `predict_support` against a row-by-row walk over the saved
    node arrays, byte for byte; a one-row batch as well."""
    saved = tree.to_dict()
    leaves = ref.apply_ref(saved["feature"], saved["threshold"], saved["left"],
                           saved["right"], X)
    counts = np.asarray(saved["counts"])
    want = np.array([counts[leaf] / counts[leaf].sum() for leaf in leaves])
    got = tree.apply(X)
    assert got.dtype == leaves.dtype and np.array_equal(got, leaves)
    assert tree.predict_support(X).tobytes() == want.tobytes()
    assert tree.predict_support(X[:1]).tobytes() == want[:1].tobytes()


def _odd_rows(rng, d):
    """Rows of NaN, +inf and -inf, alone and mixed with ordinary values."""
    odd = rng.choice([np.nan, np.inf, -np.inf, 0.0], size=(12, d))
    mixed = rng.normal(size=(3 * d, d))
    mixed[np.arange(3 * d), np.arange(3 * d) % d] = np.repeat([np.nan, np.inf, -np.inf], d)
    return np.vstack([odd, mixed, np.full((1, d), np.nan)])


class TestWalkOracle:
    @pytest.mark.parametrize("seed", range(3))
    def test_fitted_and_reloaded_trees(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            n = int(rng.integers(1, 80))
            d = int(rng.integers(1, 6))
            n_classes = int(rng.integers(2, 10))
            if rng.random() < 0.5:  # few levels: tied values everywhere
                X = rng.integers(0, 4, size=(n, d)).astype(float)
            else:
                X = rng.normal(size=(n, d))
            y = rng.integers(0, n_classes, size=n)
            config = TreeConfig(min_impurity_decrease=float(rng.choice([0.0, 0.01, 0.05, 0.3])),
                                max_depth=[None, 1, 2, 4][int(rng.integers(4))])
            tree = fit_tree(X, y, config, n_classes)
            probe = np.vstack([X, 2.0 * rng.normal(size=(20, d)), _odd_rows(rng, d)])
            reloaded = DecisionTree.from_dict(json.loads(json.dumps(tree.to_dict())))
            for walked in (tree, reloaded):
                _assert_walk_matches_oracle(walked, probe)

    def test_single_leaf_tree(self):
        rng = np.random.default_rng(4)
        tree = _leaf_tree([3.0, 1.0, 0.0])
        _assert_walk_matches_oracle(tree, np.vstack([rng.normal(size=(5, 2)), _odd_rows(rng, 2)]))


class TestPredict:
    def test_argmax_of_leaf_counts(self):
        assert _leaf_tree([3.0, 1.0, 0.0]).predict_support(np.zeros((1, 2))).argmax(-1).tolist() == [0]

    def test_tie_breaks_to_lowest_class(self):
        assert _leaf_tree([2.0, 2.0, 0.0]).predict_support(np.zeros((1, 2))).argmax(-1).tolist() == [0]

    def test_support_normalization(self):
        support = _leaf_tree([3.0, 1.0]).predict_support(np.zeros((1, 2)))
        assert np.allclose(support, [[0.75, 0.25]])

    def test_pure_leaf_one_hot(self):
        support = _leaf_tree([0.0, 4.0, 0.0]).predict_support(np.zeros((1, 2)))
        assert np.array_equal(support, [[0.0, 1.0, 0.0]])

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
            tree.predict_support(np.zeros((1, 3)))
        with pytest.raises(ValueError, match="arity"):  # a lone row is no (n, d) batch
            tree.predict_support(np.zeros(2))
        with pytest.raises(ValueError, match="arity"):  # nor for the walk itself
            tree.apply(np.zeros(2))


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
        assert np.array_equal(tree.predict_support(probe), clone.predict_support(probe))
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


STUMP = {
    "n_classes": 2, "arity": 2, "feature": [1, -1, -1], "threshold": [0.5, 0.0, 0.0],
    "left": [1, -1, -1], "right": [2, -1, -1], "counts": [[2.0, 2.0], [2.0, 0.0], [0.0, 2.0]],
}


def _tampered(field, value, at=None):
    saved = json.loads(json.dumps(STUMP))
    if at is None:
        saved[field] = value
    else:
        saved[field][at] = value
    return saved


class TestLoadChecks:
    def test_stump_loads(self):
        tree = DecisionTree.from_dict(STUMP)
        assert tree.predict_support(np.array([[0.0, 0.0], [0.0, 1.0]])).tolist() == [
            [1.0, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize("saved, fault", [
        (_tampered("left", 0, at=0), "not greater than its parent's"),  # root is its own child
        (_tampered("right", 3, at=0), "out of range"),
        (_tampered("left", 2, at=1), "a leaf has children"),
        (_tampered("right", -1, at=0), "an internal node lacks a child"),
        (_tampered("feature", 2, at=0), r"a feature is outside \[0, 2\)"),
        (_tampered("feature", -2, at=0), r"a feature is outside \[0, 2\)"),
        (_tampered("counts", [[2.0, 2.0], [2.0, 0.0]]), r"counts have shape \(2, 2\)"),
        (_tampered("counts", [[2.0, 2.0, 0.0]] * 3), r"counts have shape \(3, 3\)"),
        (_tampered("counts", [0.0, 0.0], at=2), "a node's counts sum to 0"),
        (_tampered("threshold", [0.5, 0.0]), "differ in length"),
    ])
    def test_unwalkable_trees_are_refused(self, saved, fault):
        with pytest.raises(ValueError, match=fault):
            DecisionTree.from_dict(saved)
