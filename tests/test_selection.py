"""Selection schemes: rule-level contracts, properties, and oracle checks."""

import os
import sys
import threading
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import reference as ref
from conftest import region_query
from desbal import selection as selection_module
from desbal.benchmarks import load_benchmark
from desbal.data import Dataset, _neighbors, standardize, stratified_5x2
from desbal.pool import Pool, build_dsel, generate_pool
from desbal.selection import (
    RRC_DRAWS,
    MetaClassifier,
    SelectionContext,
    SelectorConfig,
    _agreement,
    _meta_features_all,
    _nearest,
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
    select_static,
    train_meta_classifier,
)
from desbal.tree import DecisionTree, LEAF


def _query(hits, profiles, labels, n_classes, preds_q):
    """A hand-crafted query: hits and output profiles on its K neighbours,
    the neighbours' labels, and the pool's labels (as one-hot supports) for
    the query itself."""
    hits = np.asarray(hits, dtype=bool)
    preds_q = np.asarray(preds_q, dtype=int)
    return region_query(
        indices=np.arange(hits.shape[1]),
        distances=np.zeros(hits.shape[1]),
        predictions=preds_q,
        supports=np.eye(n_classes)[preds_q],
        hits=hits,
        agrees=np.asarray(profiles, dtype=int) == preds_q[:, None],
        labels=np.asarray(labels, dtype=int),
    )


def _assert_static(result, query):
    """`result` is the plain vote of `query`'s pool, as `select_static` gives it."""
    static = select_static(query)
    assert result.selected.tolist() == static.selected.tolist()
    assert result.predicted_class == static.predicted_class
    assert result.vote_weights is None


def _stub_query(dsel_rows, x_q, k):
    """The query `make_queries` builds for x_q against a DSEL of `dsel_rows`,
    under a one-classifier stub pool."""
    dsel_rows = np.asarray(dsel_rows, dtype=float)
    dsel = Dataset("stub", dsel_rows, np.zeros(len(dsel_rows), dtype=int), ("a", "b"))
    pool = Pool((_stub_tree(lambda row: np.array([1.0, 0.0]), 2, 2),), "Ba", 0, 2)
    return SelectionContext(pool, dsel).make_queries(np.asarray(x_q, dtype=float), k)[0]


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

    def test_self_excluding_search_clamps_k_silently(self, caplog):
        rows = np.array([[0.0], [1.0], [3.0]])
        with caplog.at_level("DEBUG"):
            order = _neighbors(rows, np.arange(3), 3)
        assert order.tolist() == [[1, 2], [0, 2], [1, 0]]
        assert caplog.records == []

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
            counts = _agreement(ctx.predictions, query.predictions)
            want = [
                ref.profile_similarity(ctx.predictions[:, j], query.predictions)
                for j in range(ctx.dsel.n_samples)
            ]
            assert (counts / ctx.pool_size).tolist() == want


class TestRank:
    def test_consecutive_run(self):
        hits = np.array([[1, 1, 0, 1, 1, 1, 1]])
        # pad with a weaker classifier so the run of 2 must win
        query = _query(
            np.vstack([hits, [[0, 1, 1, 1, 1, 1, 1]]]),
            np.zeros((2, 7)), np.zeros(7), 2, [1, 0],
        )
        result = select_rank(query)
        assert result.selected.tolist() == [0]

    def test_perfect_run_selected(self):
        hits = np.array([[1, 1, 1, 1, 1, 1, 1], [1, 1, 1, 0, 1, 1, 1]])
        result = select_rank(_query(hits, np.zeros((2, 7)), np.zeros(7), 2, [1, 0]))
        assert result.selected.tolist() == [0]
        assert result.predicted_class == 1

    def test_all_miss_first_neighbour_tie(self):
        hits = np.zeros((3, 7))
        result = select_rank(_query(hits, np.zeros((3, 7)), np.zeros(7), 2, [1, 1, 1]))
        assert result.selected.tolist() == [0]


class TestLca:
    def test_fraction_of_same_class_neighbours(self):
        # neighbours 0-2 belong to the predicted class 1; hits on 2 of them
        dsel_labels = np.array([1, 1, 1, 0, 0, 0, 0])
        hits = np.array([[1, 1, 0, 1, 1, 1, 1]])
        result = select_lca(_query(hits, np.ones((1, 7)), dsel_labels, 2, [1]))
        assert result.selected.tolist() == [0]
        # competence never exposed directly; check through a rival
        rival_hits = np.array([[1, 1, 0, 1, 1, 1, 1], [1, 1, 1, 0, 0, 0, 0]])
        result2 = select_lca(_query(rival_hits, np.ones((2, 7)), dsel_labels, 2, [1, 1]))
        assert result2.selected.tolist() == [1]  # 3/3 beats 2/3

    def test_no_neighbour_of_predicted_class(self):
        dsel_labels = np.zeros(7, dtype=int)
        # classifier 0 predicts class 2 (absent from the region) -> competence
        # 0 despite perfect hits; classifier 1 has real hits on class 0
        hits = np.array([[1] * 7, [1, 0, 0, 0, 0, 0, 0]])
        result = select_lca(_query(hits, np.zeros((2, 7)), dsel_labels, 3, [2, 0]))
        assert result.selected.tolist() == [1]
        # when everyone lands on 0, the tie goes to the lowest index
        tie = select_lca(
            _query(np.array([[1] * 7, [0] * 7]), np.zeros((2, 7)), dsel_labels, 3, [2, 0])
        )
        assert tie.selected.tolist() == [0]


class TestMcb:
    def test_empty_filtered_region_falls_back(self):
        hits = np.array([[1] * 7, [0] * 7])
        preds_dsel = np.ones((2, 7), dtype=int)
        # profiles of neighbours are (1,1); query profile (0,0): similarity 0
        query = _query(hits, preds_dsel, np.ones(7), 2, [0, 0])
        result = select_mcb(query, t_s=0.7, t_c=0.1)
        _assert_static(result, query)  # whole pool

    def test_clear_winner_selected(self):
        # similarities 1 > t_s keep every neighbour; accuracies 0.9.. vs 0.7..
        hits = np.array(
            [[1, 1, 1, 1, 1, 1, 0], [1, 1, 1, 1, 1, 0, 0], [0] * 7]
        )
        preds_dsel = np.zeros((3, 7), dtype=int)
        query = _query(hits, preds_dsel, np.zeros(7), 2, [0, 0, 0])
        result = select_mcb(query, t_s=0.5, t_c=0.1)
        assert result.selected.tolist() == [0]  # 6/7 - 5/7 > 0.1

    def test_close_competences_fall_back(self):
        hits = np.array([[1, 1, 1, 1, 1, 1, 0], [1, 1, 1, 1, 1, 1, 0], [0] * 7])
        preds_dsel = np.repeat([[1], [0], [1]], 7, axis=1)  # every neighbour agrees
        query = _query(hits, preds_dsel, np.zeros(7), 2, [1, 0, 1])
        _assert_static(select_mcb(query, t_s=0.5, t_c=0.1), query)
        _assert_static(select_fire(select_mcb, query), query)  # one class: FIRE keeps all

    @pytest.mark.parametrize("best, runner_up", [
        (8, 7), (4, 3), (3, 2), (9, 8), (6, 5), (5, 3), (10, 8), (2, 1), (7, 4),
    ])
    def test_margin_decided_exactly_with_ten_neighbours(self, best, runner_up):
        # K = 10: a margin of exactly 1/10 is not more than t_c = 0.1, so the
        # whole pool votes; float subtraction put 8/10 - 7/10 above 0.1
        # and 2/10 - 1/10 below it
        hits = np.zeros((3, 10), dtype=bool)
        hits[0, :best] = hits[1, :runner_up] = True  # classifier 2 hits nothing
        labels = np.arange(10) % 2  # DFP keeps a classifier with hits in both classes
        query = _query(hits, np.zeros((3, 10), dtype=int), labels, 2, [0, 0, 0])
        lone = best - runner_up > 1
        assert select_mcb(query).selected.tolist() == ([0] if lone else [0, 1, 2])
        assert (ref.mcb_choice_ref(query, 0.7, 0.1) == 0) == lone
        survivors = [0, 1] if runner_up >= 2 else [0]
        fire = select_fire(select_mcb, query).selected.tolist()
        assert fire == ([0] if lone else survivors)


class TestKne:
    def test_single_local_oracle(self):
        hits = np.array([[1] * 7, [1, 1, 1, 0, 1, 1, 1]])
        result = select_kne(_query(hits, np.zeros((2, 7)), np.zeros(7), 2, [1, 0]))
        assert result.selected.tolist() == [0]
        assert result.predicted_class == 1

    def test_nobody_hits_closest_neighbour(self):
        hits = np.zeros((3, 7))
        result = select_kne(_query(hits, np.zeros((3, 7)), np.zeros(7), 2, [0, 1, 1]))
        assert result.selected.size == 3
        assert result.predicted_class == 1  # majority of the whole pool

    def test_oracle_on_random_instances(self, oracle_instances):
        for inst in oracle_instances[:50]:
            ctx, query = inst["ctx"], inst["query"]
            got = select_kne(query)
            want_sel, want_pred = ref.kne_ref(
                ctx.hits, query.indices.tolist(), query.predictions,
                ctx.n_classes,
            )
            assert got.selected.tolist() == want_sel
            assert got.predicted_class == want_pred


class TestKnu:
    def test_votes_equal_hit_counts(self):
        hits = np.array([[1, 0, 1, 0, 1, 0, 0]])
        result = select_knu(_query(hits, np.zeros((1, 7)), np.zeros(7), 2, [1]))
        assert result.vote_weights.tolist() == [3]

    def test_all_wrong_falls_back(self):
        query = _query(np.zeros((3, 7)), np.zeros((3, 7)), np.arange(7) % 2, 2, [1, 0, 1])
        _assert_static(select_knu(query), query)
        _assert_static(select_fire(select_knu, query), query)  # no hits: FIRE keeps all

    def test_weighted_tally_recount(self, oracle_instances):
        for inst in oracle_instances[:50]:
            ctx, query = inst["ctx"], inst["query"]
            got = select_knu(query)
            want_sel, want_w, want_pred = ref.knu_ref(
                ctx.hits, query.indices.tolist(), query.predictions,
                ctx.n_classes,
            )
            assert got.selected.tolist() == want_sel
            assert got.predicted_class == want_pred
            if want_w is not None:
                assert got.vote_weights.tolist() == want_w
                assert got.vote_weights.dtype == np.int_  # a bool sum's dtype


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
        query = _query(hits, np.zeros((6, 7)), np.zeros(7), 3, preds_q)
        result = select_desknn(query, n=6, j=6)
        assert result.selected.tolist() == list(range(6))
        assert result.predicted_class == ref.vote_ref(preds_q, 3)

    def test_j_one_boundary(self):
        hits = np.array([[1] * 7, [1] * 7, [0] * 7])
        query = _query(hits, np.zeros((3, 7)), np.zeros(7), 2, [0, 0, 1])
        result = select_desknn(query, n=2, j=1)
        assert result.selected.size == 1

    def test_two_stage_oracle(self, oracle_instances):
        rng = np.random.default_rng(99)
        for inst in oracle_instances[:50]:
            ctx, query = inst["ctx"], inst["query"]
            n = int(rng.integers(1, ctx.pool_size + 1))
            j = int(rng.integers(1, n + 1))
            got = select_desknn(query, n=n, j=j)
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
        result = select_desp(_query(hits, np.zeros((1, 7)), np.zeros(7), 3, [1]))
        assert result.selected.tolist() == [0]

    def test_exact_random_accuracy_excluded(self):
        # accuracy exactly 1/L is NOT above the random classifier
        hits = np.array([[1, 0, 1, 0]])  # 2/4 with L = 2
        result = select_desp(_query(hits, np.zeros((1, 4)), np.zeros(4), 2, [1]))
        assert result.selected.size == 1  # fallback to the whole pool of 1

    def test_selected_set_is_exactly_above_random(self, oracle_instances):
        for inst in oracle_instances[:80]:
            ctx, query = inst["ctx"], inst["query"]
            got = select_desp(query)
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

    tree.predict_support = predict_support
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
        query = ctx.make_queries(features[0], 7)[0]
        result = select_desrrc(ctx, query, SelectorConfig(seed=3))
        assert 0 in result.selected.tolist()
        assert 1 not in result.selected.tolist()

    def test_deterministic_given_seed(self):
        ctx_a, features = _rrc_pool_ctx(seed=5)
        ctx_b, _ = _rrc_pool_ctx(seed=5)
        q_a = ctx_a.make_queries(features[3], 5)[0]
        q_b = ctx_b.make_queries(features[3], 5)[0]
        one = select_desrrc(ctx_a, q_a, SelectorConfig(seed=11))
        two = select_desrrc(ctx_b, q_b, SelectorConfig(seed=11))
        assert one.selected.tolist() == two.selected.tolist()
        assert one.predicted_class == two.predicted_class


def _fold_ctx(name, variant):
    """The first fold of `name` under `variant`, pool 100."""
    dataset = load_benchmark(name)
    _, _, train_idx, test_idx = next(iter(stratified_5x2(dataset, 3).folds()))
    train, _, _ = standardize(dataset.subset(train_idx), [dataset.subset(test_idx)])
    pool = generate_pool(train, variant, 100, seed=3)
    return SelectionContext(pool, build_dsel(train, variant, 3))


@pytest.fixture(scope="module")
def glass_ba():
    """The pool and DSEL of `_fold_ctx("glass", "Ba")`, for fresh contexts."""
    ctx = _fold_ctx("glass", "Ba")
    return ctx.pool, ctx.dsel


def _usable_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _assert_table_matches_oracle(ctx):
    """The table's bytes equal the serial oracle's on 1, 2, 3 and 8 threads,
    switched as often as the interpreter can."""
    want = ref.rrc_csrc_ref(ctx.supports, ctx.dsel.labels, ctx.n_classes, 64, 5)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 2, 3, 8):
            got = selection_module._rrc_csrc_matrix(ctx.supports, ctx.dsel.labels,
                                                    ctx.n_classes, 64, 5, threads)
            assert got.shape == (ctx.pool_size, ctx.dsel.n_samples)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), threads
    finally:
        sys.setswitchinterval(switch)
    return got


class TestRrcTable:
    """The DES-RRC table against `np.unique` plus the whole (M, n, L) gather,
    drawn serially, on any number of threads."""

    def test_glass_ba_rm_pool_100(self):
        ctx = _fold_ctx("glass", "Ba-RM")
        assert ctx.n_classes == 6
        _assert_table_matches_oracle(ctx)

    def test_ecoli_ba_with_incomplete_bootstraps(self, caplog):
        with caplog.at_level("WARNING"):
            ctx = _fold_ctx("ecoli", "Ba")
        assert "bootstraps still missed a class" in caplog.text
        assert ctx.n_classes == 8
        _assert_table_matches_oracle(ctx)

    def test_supports_equal_to_12_decimals_share_one_draw(self):
        n_classes = 3  # 3 distinct supports, fewer than the most threads
        base = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [1 / 3, 1 / 3, 1 / 3]])
        nudge = np.array([1e-14, -3e-14, 4e-14])
        features = np.arange(12.0)[:, None]
        labels = np.arange(12) % n_classes
        dsel = Dataset("stub", features, labels, ("a", "b", "c"))

        def exact(row):
            return base[int(row[0]) % 3]

        def nudged(row):
            return base[int(row[0]) % 3] + nudge

        pool = Pool(classifiers=(_stub_tree(exact, n_classes, 2), _stub_tree(nudged, n_classes, 2)),
                    variant="Ba", generation_seed=0, n_classes=n_classes)
        ctx = SelectionContext(pool, dsel)
        assert not np.array_equal(ctx.supports[0], ctx.supports[1])
        table = _assert_table_matches_oracle(ctx)
        assert table[0].tobytes() == table[1].tobytes()

    @staticmethod
    def _drawing_threads(monkeypatch):
        """The thread of every `make_rng` call the table makes."""
        idents, make_rng = [], selection_module.make_rng

        def recorded(*parts):
            idents.append(threading.get_ident())
            return make_rng(*parts)

        monkeypatch.setattr(selection_module, "make_rng", recorded)
        return idents

    @pytest.mark.parametrize("cpus, threads, width", [
        (1, None, 1), (2, None, 2), (3, None, 3), (8, None, 8), (8, 1, 1), (1, 2, 2),
    ])
    def test_threads_end_with_the_build(self, glass_ba, monkeypatch, cpus, threads, width):
        """A context draws on one thread per usable CPU unless given `threads`."""
        _usable_cpus(monkeypatch, cpus)
        ctx = SelectionContext(*glass_ba, threads)
        idents = self._drawing_threads(monkeypatch)
        before = threading.active_count()
        ctx.rrc_csrc(seed=1)
        assert threading.active_count() == before
        # this thread draws the first share and a thread of the build each other
        # share (an idle one may take a second), so on one thread only this one
        assert threading.get_ident() in idents
        assert min(width, 2) <= len(set(idents)) <= width

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("nth", [1, 2, 9])
    def test_a_raising_draw_raises_and_leaves_no_thread(self, glass_ba, monkeypatch, cpus,
                                                         nth):
        ctx = SelectionContext(*glass_ba)
        calls, make_rng = [], selection_module.make_rng

        def fails_once(*parts):
            calls.append(parts)
            if len(calls) == nth:
                raise RuntimeError("a draw failed")
            return make_rng(*parts)

        monkeypatch.setattr(selection_module, "make_rng", fails_once)
        _usable_cpus(monkeypatch, cpus)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="a draw failed"):
            ctx.rrc_csrc(seed=1)
        assert threading.active_count() == before
        monkeypatch.setattr(selection_module, "make_rng", make_rng)
        assert ctx.rrc_csrc(seed=1).tobytes() == ref.rrc_csrc_ref(
            ctx.supports, ctx.dsel.labels, ctx.n_classes, RRC_DRAWS, 1).tobytes()


class TestRrcCache:
    @staticmethod
    def _counting(monkeypatch):
        builds = []
        build = selection_module._rrc_csrc_matrix

        def counted(*args):
            builds.append(args[3:5])  # (draws, seed)
            return build(*args)

        monkeypatch.setattr(selection_module, "_rrc_csrc_matrix", counted)
        return builds

    def test_repeated_key_reuses_the_table(self, monkeypatch):
        ctx, features = _rrc_pool_ctx()
        builds = self._counting(monkeypatch)
        table = ctx.rrc_csrc(seed=1)
        assert ctx.rrc_csrc(seed=1) is table
        select_desrrc(ctx, ctx.make_queries(features[0], 5)[0], SelectorConfig(seed=1))
        assert builds == [(RRC_DRAWS, 1)]

    def test_new_key_replaces_the_only_table(self, monkeypatch):
        ctx, features = _rrc_pool_ctx()
        builds = self._counting(monkeypatch)
        one = ctx.rrc_csrc(seed=1)
        two = ctx.rrc_csrc(seed=2)
        assert two is not one
        assert ctx.rrc_csrc(seed=2) is two
        again = ctx.rrc_csrc(seed=1)  # seed 1's table was dropped
        assert again is not one and again.tobytes() == one.tobytes()
        select_desrrc(ctx, ctx.make_queries(features[0], 5)[0], SelectorConfig(seed=3))
        assert builds == [(RRC_DRAWS, 1), (RRC_DRAWS, 2), (RRC_DRAWS, 1), (RRC_DRAWS, 3)]


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
        query = ctx.make_queries(train.features[0], 7)[0]
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

    def test_meta_model_matches_per_class_oracle(self):
        # scales from 1e-6 to 1e3, rounded (tied) columns and 1-40 features
        rng = np.random.default_rng(15)
        for trial in range(400):
            F = int(rng.integers(1, 41))
            n = int(rng.integers(2, 120))
            scale = 10.0 ** rng.uniform(-6, 3, size=F)
            features = rng.normal(size=(n, F)) * scale
            queries = rng.normal(size=(int(rng.integers(1, 30)), F)) * scale
            if trial % 3 == 0:
                features = np.round(features / scale) * scale
            labels = rng.integers(0, 2, size=n)
            labels[:2] = [0, 1]
            meta = MetaClassifier.fit(features, labels)
            priors, means, variances, posteriors = ref.meta_classifier_ref(
                features, labels, queries
            )
            assert np.array_equal(meta.priors, priors)
            assert np.array_equal(meta.means, means)
            assert np.array_equal(meta.variances, variances)
            assert np.array_equal(meta.posterior_competent(queries), posteriors)

    def test_threshold_selection_set(self):
        ctx, train = self._real_ctx(seed=4)
        ctx.meta = train_meta_classifier(ctx, train, k=7, kp=5)
        query = ctx.make_queries(train.features[5], 7)[0]
        posteriors = ctx.meta.posterior_competent(_meta_features_all(
            ctx, query.indices[None], query.predictions[None], query.supports[None], 5
        )[0])
        result = select_metades(ctx, query)
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

    def test_non_prefix_training_raises(self):
        # reversed, the DSEL no longer starts with the training set; a training
        # set whose rows match but whose labels differ is no prefix either
        glass = load_benchmark("glass")
        _rep, _fold, train_idx, _test_idx = next(stratified_5x2(glass, 0).folds())
        train, _, _ = standardize(glass.subset(train_idx))
        pool = generate_pool(train, "Ba-SM", pool_size=10, seed=1)
        dsel = build_dsel(train, "Ba-SM", seed=1)
        reversed_ctx = SelectionContext(pool, dsel.subset(np.arange(dsel.n_samples)[::-1]))
        with pytest.raises(ValueError, match="not a prefix of the DSEL"):
            train_meta_classifier(reversed_ctx, train, k=5, kp=10)
        relabelled = Dataset(train.name, train.features, train.labels[::-1], train.class_names)
        with pytest.raises(ValueError, match="not a prefix of the DSEL"):
            train_meta_classifier(SelectionContext(pool, dsel), relabelled, k=5, kp=10)
        assert train_meta_classifier(SelectionContext(pool, dsel), train, k=5, kp=10).k == 5

    def test_model_records_the_clamped_sizes(self):
        ctx, train = self._real_ctx()  # a DSEL of 32 rows
        meta = train_meta_classifier(ctx, train, k=7, kp=5)
        assert (meta.k, meta.kp) == (7, 5)
        ctx.meta = train_meta_classifier(ctx, train, k=40, kp=40)
        assert (ctx.meta.k, ctx.meta.kp) == (31, 32)  # the other rows; the whole DSEL
        # a query's region holds all 32 rows, and the model reads the first 31
        for query in ctx.make_queries(train.features[:4] + 0.1, 40):
            assert 0 <= select_metades(ctx, query).predicted_class < ctx.n_classes

    def test_query_reads_the_trained_region_size(self):
        ctx, train = self._real_ctx(seed=4)
        ctx.meta = train_meta_classifier(ctx, train, k=7, kp=5)
        x = train.features[5] + 0.1
        seven = select_metades(ctx, ctx.make_queries(x, 7)[0])
        nine = select_metades(ctx, ctx.make_queries(x, 9)[0])
        assert nine.selected.tolist() == seven.selected.tolist()
        assert nine.predicted_class == seven.predicted_class
        with pytest.raises(ValueError, match=r"k=7; the query has 5 neighbours"):
            select_metades(ctx, ctx.make_queries(x, 5)[0])

    def test_model_kp_wins_over_the_run_settings(self):
        ctx, train = self._real_ctx(seed=4)
        ctx.meta = train_meta_classifier(ctx, train, k=7, kp=5)
        query = ctx.make_queries(train.features[5], 7)[0]
        want = select_metades(ctx, query)
        for cfg in (SelectorConfig(meta_kp=3), SelectorConfig(meta_kp=9)):
            got = run_selector("META-DES", ctx, query, cfg)
            assert got.selected.tolist() == want.selected.tolist()

    def test_small_dsel_warns_once_naming_kp(self, caplog):
        rng = np.random.default_rng(5)
        train = Dataset("t", rng.normal(size=(4, 2)), np.array([0, 0, 1, 1]), ("a", "b"))
        ctx = SelectionContext(generate_pool(train, "Ba", pool_size=3, seed=0),
                               build_dsel(train, "Ba", seed=0))
        cfg = SelectorConfig(k=3, meta_kp=5)
        with caplog.at_level("WARNING"):
            ctx.meta = train_meta_classifier(ctx, train, k=cfg.k, kp=cfg.meta_kp)
            for query in ctx.make_queries(rng.normal(size=(6, 2)), cfg.k):
                select_metades(ctx, query)
        assert [r.getMessage() for r in caplog.records if "DSEL holds" in r.getMessage()] == [
            "DSEL holds 4 < kp=5 samples; META-DES profiles use the whole set"]

    def test_requires_trained_meta(self):
        ctx, train = self._real_ctx()
        query = ctx.make_queries(train.features[0], 3)[0]
        with pytest.raises(RuntimeError, match="meta-classifier"):
            select_metades(ctx, query)


class TestCompactProfiles:
    """Output profiles past one byte: agreement counts above 255 (pools of 255
    and 300 classifiers; at 255 the ranking key needs M + 1) and class ids
    above 255 (300 classes)."""

    @staticmethod
    def _table_ctx(pool_size, n_classes, n_dsel=40, seed=0):
        """A context whose classifier i labels a row of value v as
        `table[i, v]`. Column 0 is a base column, column 1 disagrees with it
        on every classifier, and the rest are perturbed copies of it, so
        most classifiers agree; DSEL rows repeat values, so agreements tie."""
        rng = np.random.default_rng(seed)
        n_values = 12
        table = np.repeat(rng.integers(0, n_classes, size=(pool_size, 1)), n_values, axis=1)
        flip = rng.random(table.shape) < rng.uniform(0.0, 0.3, size=n_values)
        flip[:, :2] = False
        table[flip] = rng.integers(0, n_classes, size=int(flip.sum()))
        table[:, 1] = (table[:, 0] + 1) % n_classes
        eye = np.eye(n_classes)
        trees = tuple(
            SimpleNamespace(arity=2, n_classes=n_classes, predict_support=(
                lambda X, labels=labels: eye[labels[np.atleast_2d(X)[:, 0].astype(int)]]))
            for labels in table
        )
        values = rng.integers(0, n_values, size=n_dsel).astype(float)
        values[[0, -1]] = 0, 1
        dsel = Dataset("edge", values[:, None], rng.integers(0, n_classes, size=n_dsel),
                       tuple(str(c) for c in range(n_classes)))
        return SelectionContext(Pool(trees, "Ba", 0, n_classes), dsel)

    @pytest.mark.parametrize("pool_size, n_classes", [(300, 3), (255, 4), (6, 300)])
    def test_counts_ranks_and_exclusion_match_the_oracle(self, pool_size, n_classes,
                                                         monkeypatch):
        ctx = self._table_ctx(pool_size, n_classes)
        n = ctx.dsel.n_samples
        assert ctx.predictions.dtype == np.min_scalar_type(n_classes - 1)
        if n_classes > 256:
            assert ctx.predictions.max() > 255
        ranked = []

        def nearest(dists, k):
            order = _nearest(dists, k)
            ranked.append(order[0].tolist())
            return order

        monkeypatch.setattr(selection_module, "_nearest", nearest)
        for t in range(n):  # row t as a query, and as a training row kept out of its profile
            preds, supports = ctx.predictions[:, t], ctx.supports[:, t]
            counts = _agreement(ctx.predictions, preds)
            sims = [ref.profile_similarity(ctx.predictions[:, j], preds) for j in range(n)]
            assert counts.dtype == np.min_scalar_type(pool_size)
            assert counts[t] == pool_size
            assert np.array_equal(_agreement(ctx.predictions, preds.astype(int)), counts)
            assert (counts / pool_size).tolist() == sims
            assert len(set(sims)) < n  # ties to break
            assert t != 0 or sims[-1] == 0.0  # a full disagreement ranks below row 0
            roc = [j for j in range(n) if j != t][:3]
            for kp, exclude in ((1 + t % 6, None), (1 + t % 6, t), (n, t)):
                got = _meta_features_all(ctx, np.array([roc]), preds[None], supports[None], kp,
                                         None if exclude is None else np.array([exclude]))[0]
                want = ref.meta_features_ref(ctx.hits, ctx.supports, ctx.predictions,
                                             ctx.dsel.labels, roc, preds, supports, kp, exclude)
                assert np.array_equal(got, want)
                # most agreement first, ties to the lower row, the excluded row last
                order = sorted(range(n), key=lambda j: (j == exclude, -sims[j], j))
                assert ranked[-1] == order[:kp]
                assert (exclude in ranked[-1]) == (exclude is not None and kp == n)


class TestDfp:
    def test_single_class_region_keeps_pool(self):
        hits = np.array([[1] * 5, [0] * 5])
        query = _query(hits, np.zeros((2, 5)), np.zeros(5), 2, [0, 0])
        assert np.flatnonzero(query.dfp_mask).tolist() == [0, 1]

    def test_majority_only_classifier_pruned(self):
        dsel_labels = np.array([0, 0, 0, 1, 1])
        # classifier 0 only ever right on class 0; classifier 1 crosses
        hits = np.array([[1, 1, 1, 0, 0], [1, 0, 0, 1, 0]])
        query = _query(hits, np.zeros((2, 5)), dsel_labels, 2, [0, 0])
        assert np.flatnonzero(query.dfp_mask).tolist() == [1]

    def test_oracle(self, oracle_instances):
        for inst in oracle_instances[:50]:
            ctx, query = inst["ctx"], inst["query"]
            got = np.flatnonzero(query.dfp_mask)
            want = ref.dfp_ref(
                ctx.hits, query.indices.tolist(), ctx.dsel.labels
            )
            assert got.tolist() == want


class TestFire:
    def test_noop_prune_equals_base(self, oracle_instances):
        for inst in oracle_instances[:30]:
            query = inst["query"]
            survivors = np.flatnonzero(query.dfp_mask)
            if survivors.size != query.pool_size:
                continue
            fire = select_fire(select_knu, query)
            base = select_knu(query)
            assert fire.selected.tolist() == base.selected.tolist()
            assert fire.predicted_class == base.predicted_class

    def test_single_survivor_decides(self):
        dsel_labels = np.array([0, 0, 0, 1, 1])
        hits = np.array([[1, 1, 1, 0, 0], [1, 0, 0, 1, 0]])
        query = _query(hits, np.zeros((2, 5)), dsel_labels, 2, [0, 1])
        for base in (select_lca, select_kne, select_knu):
            result = select_fire(base, query)
            assert result.selected.tolist() == [1]
            assert result.predicted_class == 1

    def test_fallback_votes_the_pruned_pool(self):
        # classifiers 0 and 1 hit both classes, 2 only class 0 and is pruned;
        # MCB then finds no clear winner between the survivors
        dsel_labels = np.array([0, 0, 0, 1, 1])
        hits = np.array([[1, 0, 0, 1, 0], [0, 1, 0, 0, 1], [1, 1, 1, 0, 0]])
        query = _query(hits, np.zeros((3, 5)), dsel_labels, 2, [1, 0, 0])
        survivors = np.flatnonzero(query.dfp_mask)
        assert survivors.tolist() == [0, 1]  # pool indices equal the pruned query's
        _assert_static(select_fire(select_mcb, query), ref.rows_ref(query, survivors))

    def test_fire_knu_two_step_oracle(self, oracle_instances):
        for inst in oracle_instances[:50]:
            ctx, query = inst["ctx"], inst["query"]
            got = select_fire(select_knu, query)
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
        return run_selector("STATIC", ctx, ctx.make_queries(np.zeros(2), 3)[0],
                            SelectorConfig()).predicted_class

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
        query = ctx.make_queries(rng.normal(size=2), 7)[0]
        assert 1 in select_kne(query).selected.tolist()

    def test_common_rescaling_leaves_selections_unchanged(self, oracle_instances):
        for inst in oracle_instances[:10]:
            ctx, query = inst["ctx"], inst["query"]
            factor = 3.7
            dists = cdist(inst["x"][None] * factor, ctx.dsel.features * factor)[0]
            indices = _nearest(dists, len(query.indices))
            assert indices.tolist() == query.indices.tolist()
            # the region's hits, agreements and labels follow from its indices
            scaled_query = replace(query, indices=indices, distances=dists)
            for fn in (select_rank, select_lca, select_kne, select_knu, select_desp):
                assert fn(query).selected.tolist() == fn(scaled_query).selected.tolist()
