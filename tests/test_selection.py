"""Selection schemes: rule-level contracts, properties, and oracle checks."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import reference as ref
from desbal.benchmarks import load_benchmark
from desbal.data import Dataset, standardize, stratified_5x2
from desbal.pool import Pool, build_dsel, generate_pool
from desbal.selection import (
    MetaClassifier,
    Query,
    RegionView,
    SelectionContext,
    SelectorConfig,
    _agreement,
    _meta_features_all,
    _nearest,
    dfp_prune,
    run_selector,
    select_desknn,
    select_desp,
    select_desrrc,
    select_fire,
    select_kne,
    select_knu,
    select_lca,
    select_mcb,
    select_metades,
    select_rank,
    train_meta_classifier,
)
from desbal.tree import DecisionTree, LEAF


def _view(hits, profiles, labels, n_classes, preds_q):
    """A hand-crafted region: hits and output profiles on the K neighbours,
    the neighbours' labels, and the pool's labels for the query."""
    return RegionView(
        hits=np.asarray(hits, dtype=bool),
        profiles=np.asarray(profiles, dtype=int),
        labels=np.asarray(labels, dtype=int),
        predictions=np.asarray(preds_q, dtype=int),
        n_classes=n_classes,
    )


def _stub_query(dsel_rows, x_q, k):
    """The query `make_query` builds for x_q against a DSEL of `dsel_rows`,
    under a one-classifier stub pool."""
    dsel_rows = np.asarray(dsel_rows, dtype=float)
    dsel = Dataset("stub", dsel_rows, np.zeros(len(dsel_rows), dtype=int), ("a", "b"))
    pool = Pool((_stub_tree(lambda row: np.array([1.0, 0.0]), 2, 2),), "Ba", 0, 2)
    return SelectionContext(pool, dsel).make_query(np.asarray(x_q, dtype=float), k)


class TestRegionOfCompetence:
    def test_exact_row_is_first(self):
        query = _stub_query([[0.0], [3.0], [7.0]], [3.0], k=2)
        assert query.indices[0] == 1
        assert query.distances[query.indices][0] == 0.0

    def test_k_equals_dsel(self):
        query = _stub_query([[0.0], [1.0], [2.0]], [0.9], k=3)
        assert sorted(query.indices.tolist()) == [0, 1, 2]
        assert (np.diff(query.distances[query.indices]) >= 0).all()

    def test_one_dimensional_example(self):
        query = _stub_query([[0.0], [1.0], [2.0], [10.0]], [1.4], k=2)
        assert set(query.indices.tolist()) == {1, 2}

    def test_small_dsel_warns_and_shrinks(self, caplog):
        with caplog.at_level("WARNING"):
            order = _nearest(cdist([[0.5]], [[0.0], [1.0]]), 7)
        assert order.shape == (1, 2)
        assert "DSEL holds 2 < k=7" in caplog.text

    def test_distance_tie_breaks_low_index(self):
        query = _stub_query([[1.0], [-1.0], [1.0]], [0.0], k=2)
        assert query.indices.tolist() == [0, 1]

    def test_distances_match_a_single_point_cdist(self, oracle_instances):
        # the rows make_queries keeps are the distances DES-RRC sums over
        ctx, train = TestMetaDes._real_ctx()
        for query, x in zip(ctx.make_queries(train.features, 7), train.features):
            assert np.array_equal(query.distances, cdist(x[None], ctx.dsel.features)[0])
        for inst in oracle_instances:
            want = cdist(inst["x"][None], inst["ctx"].dsel.features)[0]
            assert np.array_equal(inst["query"].distances, want)


class TestProfileSimilarity:
    def test_identity(self):
        assert ref.profile_similarity([1, 0, 1, 1], [1, 0, 1, 1]) == 1.0

    def test_half(self):
        assert ref.profile_similarity([1, 0, 1, 1], [1, 1, 1, 0]) == 0.5

    def test_disjoint(self):
        assert ref.profile_similarity([0, 0], [1, 1]) == 0.0

    def test_symmetric_and_hamming(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = rng.integers(0, 3, size=8)
            v = rng.integers(0, 3, size=8)
            assert ref.profile_similarity(u, v) == ref.profile_similarity(v, u)
            assert ref.profile_similarity(u, v) == pytest.approx(
                1.0 - np.mean(u != v)
            )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ref.profile_similarity([1, 2], [1, 2, 3])

    def test_agreement_matches_oracle(self, oracle_instances):
        for inst in oracle_instances[:50]:
            ctx, query = inst["ctx"], inst["query"]
            got = _agreement(ctx.predictions, query.predictions)
            want = [
                ref.profile_similarity(ctx.predictions[:, j], query.predictions)
                for j in range(ctx.dsel.n_samples)
            ]
            assert got.tolist() == want


class TestRank:
    def test_consecutive_run(self):
        hits = np.array([[1, 1, 0, 1, 1, 1, 1]])
        # pad with a weaker classifier so the run of 2 must win
        view = _view(
            np.vstack([hits, [[0, 1, 1, 1, 1, 1, 1]]]),
            np.zeros((2, 7)), np.zeros(7), 2, [1, 0],
        )
        result = select_rank(view)
        assert result.selected.tolist() == [0]

    def test_perfect_run_selected(self):
        hits = np.array([[1, 1, 1, 1, 1, 1, 1], [1, 1, 1, 0, 1, 1, 1]])
        result = select_rank(_view(hits, np.zeros((2, 7)), np.zeros(7), 2, [1, 0]))
        assert result.selected.tolist() == [0]
        assert result.predicted_class == 1

    def test_all_miss_first_neighbour_tie(self):
        hits = np.zeros((3, 7))
        result = select_rank(_view(hits, np.zeros((3, 7)), np.zeros(7), 2, [1, 1, 1]))
        assert result.selected.tolist() == [0]


class TestLca:
    def test_fraction_of_same_class_neighbours(self):
        # neighbours 0-2 belong to the predicted class 1; hits on 2 of them
        dsel_labels = np.array([1, 1, 1, 0, 0, 0, 0])
        hits = np.array([[1, 1, 0, 1, 1, 1, 1]])
        result = select_lca(_view(hits, np.ones((1, 7)), dsel_labels, 2, [1]))
        assert result.selected.tolist() == [0]
        # competence never exposed directly; check through a rival
        rival_hits = np.array([[1, 1, 0, 1, 1, 1, 1], [1, 1, 1, 0, 0, 0, 0]])
        result2 = select_lca(_view(rival_hits, np.ones((2, 7)), dsel_labels, 2, [1, 1]))
        assert result2.selected.tolist() == [1]  # 3/3 beats 2/3

    def test_no_neighbour_of_predicted_class(self):
        dsel_labels = np.zeros(7, dtype=int)
        # classifier 0 predicts class 2 (absent from the region) -> competence
        # 0 despite perfect hits; classifier 1 has real hits on class 0
        hits = np.array([[1] * 7, [1, 0, 0, 0, 0, 0, 0]])
        result = select_lca(_view(hits, np.zeros((2, 7)), dsel_labels, 3, [2, 0]))
        assert result.selected.tolist() == [1]
        # when everyone lands on 0, the tie goes to the lowest index
        tie = select_lca(
            _view(np.array([[1] * 7, [0] * 7]), np.zeros((2, 7)), dsel_labels, 3, [2, 0])
        )
        assert tie.selected.tolist() == [0]


class TestMcb:
    def test_empty_filtered_region_falls_back(self):
        hits = np.array([[1] * 7, [0] * 7])
        preds_dsel = np.ones((2, 7), dtype=int)
        # profiles of neighbours are (1,1); query profile (0,0): similarity 0
        view = _view(hits, preds_dsel, np.ones(7), 2, [0, 0])
        result = select_mcb(view, t_s=0.7, t_c=0.1)
        assert result.selected.size == 2  # whole pool

    def test_clear_winner_selected(self):
        # similarities 1 > t_s keep every neighbour; accuracies 0.9.. vs 0.7..
        hits = np.array(
            [[1, 1, 1, 1, 1, 1, 0], [1, 1, 1, 1, 1, 0, 0], [0] * 7]
        )
        preds_dsel = np.zeros((3, 7), dtype=int)
        view = _view(hits, preds_dsel, np.zeros(7), 2, [0, 0, 0])
        result = select_mcb(view, t_s=0.5, t_c=0.1)
        assert result.selected.tolist() == [0]  # 6/7 - 5/7 > 0.1

    def test_close_competences_fall_back(self):
        hits = np.array([[1, 1, 1, 1, 1, 1, 0], [1, 1, 1, 1, 1, 1, 0]])
        preds_dsel = np.zeros((2, 7), dtype=int)
        view = _view(hits, preds_dsel, np.zeros(7), 2, [0, 0])
        result = select_mcb(view, t_s=0.5, t_c=0.1)
        assert result.selected.size == 2


class TestKne:
    def test_single_local_oracle(self):
        hits = np.array([[1] * 7, [1, 1, 1, 0, 1, 1, 1]])
        result = select_kne(_view(hits, np.zeros((2, 7)), np.zeros(7), 2, [1, 0]))
        assert result.selected.tolist() == [0]
        assert result.predicted_class == 1

    def test_nobody_hits_closest_neighbour(self):
        hits = np.zeros((3, 7))
        result = select_kne(_view(hits, np.zeros((3, 7)), np.zeros(7), 2, [0, 1, 1]))
        assert result.selected.size == 3
        assert result.predicted_class == 1  # majority of the whole pool

    def test_oracle_on_random_instances(self, oracle_instances):
        for inst in oracle_instances[:50]:
            ctx, query = inst["ctx"], inst["query"]
            got = select_kne(inst["view"])
            want_sel, want_pred = ref.kne_ref(
                ctx.hits, query.indices.tolist(), query.predictions,
                ctx.n_classes,
            )
            assert got.selected.tolist() == want_sel
            assert got.predicted_class == want_pred


class TestKnu:
    def test_votes_equal_hit_counts(self):
        hits = np.array([[1, 0, 1, 0, 1, 0, 0]])
        result = select_knu(_view(hits, np.zeros((1, 7)), np.zeros(7), 2, [1]))
        assert result.vote_weights.tolist() == [3]

    def test_all_wrong_falls_back(self):
        hits = np.zeros((2, 7))
        result = select_knu(_view(hits, np.zeros((2, 7)), np.zeros(7), 2, [1, 1]))
        assert result.selected.size == 2
        assert result.vote_weights is None

    def test_weighted_tally_recount(self, oracle_instances):
        for inst in oracle_instances[:50]:
            ctx, query = inst["ctx"], inst["query"]
            got = select_knu(inst["view"])
            want_sel, want_w, want_pred = ref.knu_ref(
                ctx.hits, query.indices.tolist(), query.predictions,
                ctx.n_classes,
            )
            assert got.selected.tolist() == want_sel
            assert got.predicted_class == want_pred
            if want_w is not None:
                assert got.vote_weights.tolist() == want_w


class TestDoubleFault:
    def test_both_always_wrong(self):
        assert ref.double_fault([0, 0, 0], [0, 0, 0]) == 1.0

    def test_perfect_first(self):
        assert ref.double_fault([1, 1, 1], [0, 0, 0]) == 0.0

    def test_complementary_errors(self):
        assert ref.double_fault([1, 1, 0, 0], [0, 0, 1, 1]) == 0.0


class TestDesKnn:
    def test_full_selection_is_majority_vote(self):
        rng = np.random.default_rng(0)
        hits = rng.integers(0, 2, size=(6, 7))
        preds_q = rng.integers(0, 3, size=6)
        view = _view(hits, np.zeros((6, 7)), np.zeros(7), 3, preds_q)
        result = select_desknn(view, n=6, j=6)
        assert result.selected.tolist() == list(range(6))
        assert result.predicted_class == ref.vote_ref(preds_q, 3)

    def test_j_one_boundary(self):
        hits = np.array([[1] * 7, [1] * 7, [0] * 7])
        view = _view(hits, np.zeros((3, 7)), np.zeros(7), 2, [0, 0, 1])
        result = select_desknn(view, n=2, j=1)
        assert result.selected.size == 1

    def test_two_stage_oracle(self, oracle_instances):
        rng = np.random.default_rng(99)
        for inst in oracle_instances[:50]:
            ctx, query = inst["ctx"], inst["query"]
            n = int(rng.integers(1, ctx.pool_size + 1))
            j = int(rng.integers(1, n + 1))
            got = select_desknn(inst["view"], n=n, j=j)
            want_sel, want_pred = ref.desknn_ref(
                ctx.hits, query.indices.tolist(), query.predictions,
                n, j, ctx.n_classes,
            )
            assert got.selected.tolist() == want_sel
            assert got.predicted_class == want_pred


class TestDesp:
    def test_competence_arithmetic(self):
        # 4/7 accuracy, 3 classes: competence = 4/7 - 1/3 = 0.238095
        assert 4 / 7 - 1 / 3 == pytest.approx(0.238095, abs=1e-6)
        hits = np.array([[1, 1, 1, 1, 0, 0, 0]])
        result = select_desp(_view(hits, np.zeros((1, 7)), np.zeros(7), 3, [1]))
        assert result.selected.tolist() == [0]

    def test_exact_random_accuracy_excluded(self):
        # accuracy exactly 1/L is NOT above the random classifier
        hits = np.array([[1, 0, 1, 0]])  # 2/4 with L = 2
        result = select_desp(_view(hits, np.zeros((1, 4)), np.zeros(4), 2, [1]))
        assert result.selected.size == 1  # fallback to the whole pool of 1

    def test_selected_set_is_exactly_above_random(self, oracle_instances):
        for inst in oracle_instances[:80]:
            ctx, query = inst["ctx"], inst["query"]
            got = select_desp(inst["view"])
            acc = ctx.hits[:, query.indices].mean(axis=1)
            expected = np.flatnonzero(acc > 1.0 / ctx.n_classes)
            if expected.size:
                assert got.selected.tolist() == expected.tolist()
            else:
                assert got.selected.size == ctx.pool_size


class TestRrc:
    def test_one_hot_support_wins(self):
        support = np.zeros(3)
        support[1] = 1.0
        p = ref.rrc_correct_probability(support, 1, draws=1000, rng=np.random.default_rng(0))
        assert p >= 0.95

    def test_uniform_two_classes(self):
        p = ref.rrc_correct_probability(
            np.array([0.5, 0.5]), 0, draws=1000, rng=np.random.default_rng(1)
        )
        assert p == pytest.approx(0.5, abs=0.05)

    def test_uniform_many_classes(self):
        for L in (3, 5, 8):
            p = ref.rrc_correct_probability(
                np.full(L, 1.0 / L), 0, draws=1000, rng=np.random.default_rng(L)
            )
            sigma = np.sqrt((1 / L) * (1 - 1 / L) / 1000)
            assert abs(p - 1 / L) <= 3 * sigma

    def test_gaussian_weight_values(self):
        assert np.exp(-0.0**2) == 1.0
        assert np.exp(-2.0**2) == pytest.approx(0.0183156, abs=1e-6)


def _stub_tree(support_fn, n_classes, arity):
    """DecisionTree stand-in with an arbitrary support function."""
    tree = SimpleNamespace()
    tree.arity = arity
    tree.n_classes = n_classes

    def predict_support(X):
        X = np.atleast_2d(X)
        return np.vstack([support_fn(row) for row in X])

    def predict(X):
        return np.argmax(predict_support(X), axis=1)

    tree.predict_support = predict_support
    tree.predict = predict
    return tree


def _rrc_pool_ctx(n_classes=3, n_dsel=15, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n_dsel, 2))
    labels = rng.integers(0, n_classes, size=n_dsel)
    labels[:n_classes] = np.arange(n_classes)
    dsel = Dataset("stub", features, labels, tuple(str(c) for c in range(n_classes)))

    def perfect(row):
        # one-hot on the true label of the nearest DSEL row
        j = int(np.argmin(((features - row) ** 2).sum(axis=1)))
        out = np.zeros(n_classes)
        out[labels[j]] = 1.0
        return out

    def uniform(row):
        return np.full(n_classes, 1.0 / n_classes)

    pool = Pool(
        classifiers=(
            _stub_tree(perfect, n_classes, 2),
            _stub_tree(uniform, n_classes, 2),
        ),
        variant="Ba",
        generation_seed=0,
        n_classes=n_classes,
    )
    return SelectionContext(pool, dsel), features


class TestDesRrc:
    def test_perfect_classifier_selected_uniform_not(self):
        ctx, features = _rrc_pool_ctx()
        query = ctx.make_query(features[0], k=7)
        result = select_desrrc(ctx, query, SelectorConfig(seed=3), draws=1000)
        assert 0 in result.selected.tolist()
        assert 1 not in result.selected.tolist()

    def test_deterministic_given_seed(self):
        ctx_a, features = _rrc_pool_ctx(seed=5)
        ctx_b, _ = _rrc_pool_ctx(seed=5)
        q_a = ctx_a.make_query(features[3], k=5)
        q_b = ctx_b.make_query(features[3], k=5)
        one = select_desrrc(ctx_a, q_a, SelectorConfig(seed=11), draws=500)
        two = select_desrrc(ctx_b, q_b, SelectorConfig(seed=11), draws=500)
        assert one.selected.tolist() == two.selected.tolist()
        assert one.predicted_class == two.predicted_class


class TestMetaDes:
    @staticmethod
    def _real_ctx(seed=0):
        rng = np.random.default_rng(seed)
        labels = np.concatenate([np.zeros(20, int), np.ones(12, int)])
        features = np.vstack(
            [rng.normal(0, 1, (20, 3)), rng.normal(2.5, 1, (12, 3))]
        )
        train = Dataset("t", features, labels, ("a", "b"))
        pool = generate_pool(train, "Ba", pool_size=6, seed=seed)
        dsel = build_dsel(train, "Ba", seed=seed)
        ctx = SelectionContext(pool, dsel)
        return ctx, train

    def test_meta_feature_layout(self):
        ctx, train = self._real_ctx()
        query = ctx.make_query(train.features[0], k=7)
        vec = _meta_features_all(
            ctx, query.indices[None], query.predictions[None], query.supports[None], kp=5
        )[0][0]
        assert vec.shape == (7 + 7 + 1 + 5 + 1,)
        # (c) is the mean of block (a)
        assert vec[14] == pytest.approx(vec[:7].mean())

    def test_perfect_pool_collapses_to_constant(self, caplog):
        # stub pool that always answers the true nearest label -> all hits
        rng = np.random.default_rng(2)
        features = rng.normal(size=(20, 2))
        labels = rng.integers(0, 2, size=20)
        labels[:2] = [0, 1]
        dsel = Dataset("stub", features, labels, ("a", "b"))

        def perfect(row):
            j = int(np.argmin(((features - row) ** 2).sum(axis=1)))
            out = np.zeros(2)
            out[labels[j]] = 1.0
            return out

        pool = Pool(
            classifiers=(_stub_tree(perfect, 2, 2), _stub_tree(perfect, 2, 2)),
            variant="Ba", generation_seed=0, n_classes=2,
        )
        ctx = SelectionContext(pool, dsel)
        train = Dataset("t", features, labels, ("a", "b"))
        with caplog.at_level("WARNING"):
            meta = train_meta_classifier(ctx, train, k=5, kp=3)
        assert meta.constant == 1.0

    def test_pair_count(self):
        ctx, train = self._real_ctx()
        # meta-training visits n_train x pool_size pairs; verify via the
        # fitted priors' denominator by re-deriving the design matrix size
        n_pairs = train.n_samples * ctx.pool_size
        meta = train_meta_classifier(ctx, train, k=5, kp=3)
        if meta.constant is None:
            counts = meta.priors * n_pairs
            assert np.allclose(counts, np.round(counts))

    def test_duplicated_consistent_point_posterior(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(30, 4))
        labels = np.concatenate([np.ones(12, int), np.zeros(18, int)])
        point = base[0]
        features = np.vstack([base, point, point])  # duplicates labelled 1
        y = np.concatenate([labels, [1, 1]])
        meta = MetaClassifier.fit(features, y)
        assert meta.posterior_competent(point[None, :])[0] > 0.5

    def test_threshold_selection_set(self):
        ctx, train = self._real_ctx(seed=4)
        ctx.meta = train_meta_classifier(ctx, train, k=7, kp=5)
        query = ctx.make_query(train.features[5], k=7)
        posteriors = ctx.meta.posterior_competent(_meta_features_all(
            ctx, query.indices[None], query.predictions[None], query.supports[None], 5
        )[0])
        result = select_metades(ctx, query, SelectorConfig(meta_kp=5), threshold=0.5)
        expected = np.flatnonzero(posteriors > 0.5)
        if expected.size:
            assert result.selected.tolist() == expected.tolist()
        else:
            assert result.selected.size == ctx.pool_size

    def test_meta_features_match_oracle(self, oracle_instances):
        for n, inst in enumerate(oracle_instances):
            ctx, query = inst["ctx"], inst["query"]
            kp = 1 + n % 6
            got = _meta_features_all(
                ctx, query.indices[None], query.predictions[None],
                query.supports[None], kp,
            )[0]
            want = ref.meta_features_ref(
                ctx.hits, ctx.supports, ctx.predictions, ctx.dsel.labels,
                query.indices.tolist(), query.predictions, query.supports, kp,
            )
            assert np.array_equal(got, want)

    def test_training_set_matches_oracle(self):
        # build_dsel puts the training rows first, so each row is kept out of
        # its own region and profile neighbours
        ctx, train = self._real_ctx(seed=4)
        k, kp = 5, 3
        rows = []
        for t, x in enumerate(train.features):
            roc = [j for j in ref.region_ref(ctx.dsel.features, x, k + 1) if j != t][:k]
            rows.append(ref.meta_features_ref(
                ctx.hits, ctx.supports, ctx.predictions, ctx.dsel.labels, roc,
                ctx.predictions[:, t], ctx.supports[:, t], kp, exclude=t,
            ))
        want = MetaClassifier.fit(np.vstack(rows), ctx.hits[:, :train.n_samples].T.ravel())
        got = train_meta_classifier(ctx, train, k=k, kp=kp)
        assert got.constant is None and want.constant is None
        for name in ("priors", "means", "variances"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_non_prefix_dsel_matches_oracle(self, caplog):
        # reversed, the DSEL no longer starts with the training set, so no
        # training row is kept out of its own region or profile neighbours
        glass = load_benchmark("glass")
        _rep, _fold, train_idx, _test_idx = next(stratified_5x2(glass, 0).folds())
        train, _, _ = standardize(glass.subset(train_idx))
        pool = generate_pool(train, "Ba-SM", pool_size=10, seed=1)
        dsel = build_dsel(train, "Ba-SM", seed=1)
        dsel = dsel.subset(np.arange(dsel.n_samples)[::-1])
        ctx = SelectionContext(pool, dsel)
        k, kp = 5, 10  # kp 3 would miss a self-exclusion applied here by mistake
        with caplog.at_level("WARNING"):
            got = train_meta_classifier(ctx, train, k=k, kp=kp)
        assert "not a prefix" in caplog.text
        supports = pool.support_all(train.features)
        predictions = supports.argmax(axis=2)
        rows = [
            ref.meta_features_ref(
                ctx.hits, ctx.supports, ctx.predictions, dsel.labels,
                ref.region_ref(dsel.features, x, k), predictions[:, t], supports[:, t], kp,
            )
            for t, x in enumerate(train.features)
        ]
        hits = predictions == train.labels[None, :]
        want = MetaClassifier.fit(np.vstack(rows), hits.T.ravel().astype(int))
        assert got.constant is None and want.constant is None
        for name in ("priors", "means", "variances"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_requires_trained_meta(self):
        ctx, train = self._real_ctx()
        query = ctx.make_query(train.features[0], k=3)
        with pytest.raises(RuntimeError, match="meta-classifier"):
            select_metades(ctx, query)


class TestDfp:
    def test_single_class_region_keeps_pool(self):
        hits = np.array([[1] * 5, [0] * 5])
        view = _view(hits, np.zeros((2, 5)), np.zeros(5), 2, [0, 0])
        assert dfp_prune(view).tolist() == [0, 1]

    def test_majority_only_classifier_pruned(self):
        dsel_labels = np.array([0, 0, 0, 1, 1])
        # classifier 0 only ever right on class 0; classifier 1 crosses
        hits = np.array([[1, 1, 1, 0, 0], [1, 0, 0, 1, 0]])
        view = _view(hits, np.zeros((2, 5)), dsel_labels, 2, [0, 0])
        assert dfp_prune(view).tolist() == [1]

    def test_oracle(self, oracle_instances):
        for inst in oracle_instances[:50]:
            ctx, query = inst["ctx"], inst["query"]
            got = dfp_prune(inst["view"])
            want = ref.dfp_ref(
                ctx.hits, query.indices.tolist(), ctx.dsel.labels
            )
            assert got.tolist() == want


class TestFire:
    def test_noop_prune_equals_base(self, oracle_instances):
        for inst in oracle_instances[:30]:
            view = inst["view"]
            survivors = dfp_prune(view)
            if survivors.size != view.pool_size:
                continue
            fire = select_fire(select_knu, view)
            base = select_knu(view)
            assert fire.selected.tolist() == base.selected.tolist()
            assert fire.predicted_class == base.predicted_class

    def test_single_survivor_decides(self):
        dsel_labels = np.array([0, 0, 0, 1, 1])
        hits = np.array([[1, 1, 1, 0, 0], [1, 0, 0, 1, 0]])
        view = _view(hits, np.zeros((2, 5)), dsel_labels, 2, [0, 1])
        for base in (select_lca, select_kne, select_knu):
            result = select_fire(base, view)
            assert result.selected.tolist() == [1]
            assert result.predicted_class == 1

    def test_fire_knu_two_step_oracle(self, oracle_instances):
        for inst in oracle_instances[:50]:
            ctx, query = inst["ctx"], inst["query"]
            got = select_fire(select_knu, inst["view"])
            want_sel, want_w, want_pred = ref.fire_knu_ref(
                ctx.hits, query.indices.tolist(), query.predictions,
                ctx.dsel.labels, ctx.n_classes,
            )
            assert got.selected.tolist() == want_sel
            assert got.predicted_class == want_pred


class TestStatic:
    def _pool_of_constants(self, preds, n_classes):
        trees = []
        for p in preds:
            counts = np.zeros(n_classes)
            counts[p] = 5.0
            trees.append(
                DecisionTree([LEAF], [0.0], [-1], [-1], [counts], n_classes, arity=2)
            )
        return Pool(tuple(trees), "Ba", 0, n_classes)

    def _static_vote(self, preds, n_classes):
        pool = self._pool_of_constants(preds, n_classes)
        dsel = Dataset("stub", np.zeros((3, 2)), np.zeros(3, int), ("a", "b"))
        ctx = SelectionContext(pool, dsel)
        return run_selector("STATIC", ctx, ctx.make_query(np.zeros(2), k=3)).predicted_class

    def test_unanimous(self):
        assert self._static_vote([2, 2, 2], 3) == 2

    def test_fifty_fifty_tie(self):
        assert self._static_vote([1, 2, 1, 2], 3) == 1

    def test_pool_of_one(self):
        assert self._static_vote([2], 3) == 2


class TestProperties:
    def test_every_selector_nonempty_and_deterministic(self, oracle_instances):
        names = ("STATIC", "RANK", "LCA", "MCB", "KNE", "KNU", "DES-KNN",
                 "DESP", "F-LCA", "F-MCB", "F-KNE", "F-KNU", "F-DES-KNN")
        cfg = SelectorConfig()
        for inst in oracle_instances[:30]:
            ctx, query = inst["ctx"], inst["query"]
            for name in names:
                one = run_selector(name, ctx, query, cfg)
                two = run_selector(name, ctx, query, cfg)
                assert one.selected.size >= 1
                assert one.selected.tolist() == two.selected.tolist()
                assert one.predicted_class == two.predicted_class

    def test_kne_contains_global_oracle(self):
        rng = np.random.default_rng(12)
        features = rng.normal(size=(20, 2))
        labels = rng.integers(0, 2, size=20)
        labels[:2] = [0, 1]
        dsel = Dataset("stub", features, labels, ("a", "b"))

        def perfect(row):
            j = int(np.argmin(((features - row) ** 2).sum(axis=1)))
            out = np.zeros(2)
            out[labels[j]] = 1.0
            return out

        def awful(row):
            j = int(np.argmin(((features - row) ** 2).sum(axis=1)))
            out = np.zeros(2)
            out[1 - labels[j]] = 1.0
            return out

        pool = Pool(
            (_stub_tree(awful, 2, 2), _stub_tree(perfect, 2, 2)), "Ba", 0, 2
        )
        ctx = SelectionContext(pool, dsel)
        query = ctx.make_query(rng.normal(size=2), k=7)
        assert 1 in select_kne(ctx.view(query)).selected.tolist()

    def test_common_rescaling_leaves_selections_unchanged(self, oracle_instances):
        for inst in oracle_instances[:10]:
            ctx, query = inst["ctx"], inst["query"]
            factor = 3.7
            dists = cdist(inst["x"][None] * factor, ctx.dsel.features * factor)[0]
            indices = _nearest(dists, len(query.indices))
            assert indices.tolist() == query.indices.tolist()
            scaled_query = Query(
                indices=indices, distances=dists,
                predictions=query.predictions, supports=query.supports,
            )
            for fn in (select_rank, select_lca, select_kne, select_knu, select_desp):
                assert (
                    fn(ctx.view(query)).selected.tolist()
                    == fn(ctx.view(scaled_query)).selected.tolist()
                )
