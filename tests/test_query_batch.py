"""The query batch and the per-decision helpers against their earlier forms.

`make_queries` lays its batch out query-major, and each decision reads
contiguous rows of it. Every query must still equal the strided slices of
the old (M, Q, ·) arrays, its region statistics the per-query formulas the
schemes once computed, and every rewritten helper (the sub-ensemble score,
the frienemy rule, MCB's runner-up, FIRE's reduced rows) must give the bytes
of the formula in `tests/reference.py` it replaced.
"""

from dataclasses import fields

import numpy as np
import pytest

import reference as ref
from desbal import selection
from desbal.benchmarks import load_benchmark
from desbal.data import Dataset, standardize, stratified_5x2
from desbal.pool import Pool, build_dsel, generate_pool
from desbal.selection import (
    SELECTOR_NAMES,
    STAT_FIELDS,
    Query,
    SelectionContext,
    SelectorConfig,
    dfp_prune,
    run_selector,
    select_desknn,
    select_fire,
    select_kne,
    select_knu,
    select_lca,
    select_mcb,
    train_meta_classifier,
)
from desbal.tree import DecisionTree, LEAF

FIELDS = [f.name for f in fields(Query)]
REGION_FIELDS = [name for name in FIELDS if name not in STAT_FIELDS]
CFG = SelectorConfig(seed=1)
FIRE_BASES = (select_lca, select_mcb, select_kne, select_knu, select_desknn)


@pytest.fixture(scope="module")
def real_cells():
    """The first fold of glass (Ba-RM) and ecoli (Ba) at pool 100: each
    context with its META-DES model, and the test half's features."""
    cells = []
    for name, variant in (("glass", "Ba-RM"), ("ecoli", "Ba")):
        dataset = load_benchmark(name)
        _, _, train_idx, test_idx = next(iter(stratified_5x2(dataset, 3).folds()))
        train, (test,), _ = standardize(dataset.subset(train_idx), [dataset.subset(test_idx)])
        ctx = SelectionContext(generate_pool(train, variant, 100, seed=3),
                               build_dsel(train, variant, 3))
        ctx.meta = train_meta_classifier(ctx, train)
        cells.append((ctx, test.features))
    return cells


def _constant_pool_ctx(preds, dsel_labels, n_classes):
    """A pool of constant trees (tree i always says `preds[i]`) over a
    one-feature DSEL at 0, 1, 2, ... with `dsel_labels`."""
    trees = []
    for p in preds:
        counts = np.zeros(n_classes)
        counts[p] = 5.0
        trees.append(DecisionTree([LEAF], [0.0], [-1], [-1], [counts], n_classes, arity=1))
    labels = np.asarray(dsel_labels)
    dsel = Dataset("stub", np.arange(len(labels), dtype=float)[:, None], labels,
                   tuple(str(c) for c in range(n_classes)))
    return SelectionContext(Pool(tuple(trees), "Ba", 0, n_classes), dsel)


def _edge_queries():
    """Single-class regions, a pool of one, regions of k beyond the DSEL
    (which hold the whole DSEL), and, last, pools whose best MCB competences
    tie."""
    single = _constant_pool_ctx([0, 1, 0, 2], [1, 1, 1, 1, 1, 0], 3)
    one = _constant_pool_ctx([1], [0, 1, 1, 0, 1], 2)
    tied = _constant_pool_ctx([0, 0, 1, 1], [0, 1, 0, 1, 1], 2)
    return ([single.make_query([1.0], k) for k in (1, 3, 5, 9)]
            + [one.make_query([x], k) for x in (0.0, 2.0) for k in (1, 3, 8)]
            + [tied.make_query([x], 4) for x in (0.5, 2.5)])


def _all_queries(oracle_instances, real_cells):
    queries = [inst["query"] for inst in oracle_instances] + _edge_queries()
    for ctx, X in real_cells:
        queries += ctx.make_queries(X, 7)
    return queries


def _assert_same_fields(got, want: dict, names=FIELDS):
    for name in names:
        a, b = getattr(got, name), want[name]
        assert a.dtype == b.dtype and np.array_equal(a, b) and a.tobytes() == b.tobytes(), name


def _assert_same_result(got, want):
    assert got.selected.dtype == want.selected.dtype
    assert got.selected.tobytes() == want.selected.tobytes()
    assert got.predicted_class == want.predicted_class
    if want.vote_weights is None:
        assert got.vote_weights is None
    else:
        assert got.vote_weights.tobytes() == want.vote_weights.tobytes()


class TestBatchLayout:
    def test_queries_equal_the_strided_slices(self, oracle_instances, real_cells):
        rng = np.random.default_rng(4)
        batches = [(ctx, X, 7) for ctx, X in real_cells]
        for inst in oracle_instances[:60]:
            X = rng.normal(size=(5, inst["x"].size))
            batches.append((inst["ctx"], X, inst["k"]))
            batches.append((inst["ctx"], X, inst["ctx"].dsel.n_samples + 3))  # k beyond the DSEL
        for ctx, X, k in batches:
            got, want = ctx.make_queries(X, k), ref.make_queries_ref(ctx, X, k)
            assert len(got) == len(want)
            for query, fields_ in zip(got, want):
                _assert_same_fields(query, fields_)

    def test_decision_fields_are_contiguous(self, real_cells):
        for ctx, X in real_cells:
            for query in ctx.make_queries(X, 7):
                for name in ("supports", "predictions", "hits", "agrees"):
                    assert getattr(query, name).flags.c_contiguous, name

    def test_statistics_match_the_per_query_formulas(self, real_cells):
        """Every statistic of every batch row is the formula each scheme once
        computed from the query's own hits, in the smallest dtype; the DFP
        mask is also the `np.unique` rule's survivors."""
        queries = _edge_queries() + [q for ctx, X in real_cells for q in ctx.make_queries(X, 7)]
        for query in queries:
            want = ref.region_stats_ref(query.hits, query.labels, query.predictions)
            _assert_same_fields(query, want, STAT_FIELDS)
            assert np.flatnonzero(query.dfp_mask).tobytes() == ref.dfp_unique_ref(query).tobytes()

    def test_hand_built_query_equals_its_batch_row(self, real_cells):
        """A query built from its region fields alone gets the statistics of
        its row of the batch (from a batch of one)."""
        queries = _edge_queries() + [q for ctx, X in real_cells for q in ctx.make_queries(X, 7)]
        for query in queries:
            alone = Query(*(getattr(query, name) for name in REGION_FIELDS))
            _assert_same_fields(alone, {name: getattr(query, name) for name in FIELDS})

    def test_statistics_are_computed_once_per_batch(self, real_cells, monkeypatch):
        """`_region_stats` runs once per `make_queries` call, and no decision
        or score of any scheme runs it again."""
        calls = []
        batch_stats = selection._region_stats
        monkeypatch.setattr(selection, "_region_stats",
                            lambda *args: calls.append(args[0].shape) or batch_stats(*args))
        for ctx, X in real_cells:
            calls.clear()
            queries = ctx.make_queries(X, 7)
            assert calls == [(7, len(X), ctx.pool_size)]
            for name in SELECTOR_NAMES:
                for query in queries:
                    run_selector(name, ctx, query, CFG).aggregate_score(query)
            assert len(calls) == 1
        calls.clear()
        Query(*(getattr(queries[0], name) for name in REGION_FIELDS))
        assert calls == [(7, 1, ctx.pool_size)]  # a hand-built query: a batch of one

    def test_make_query_is_a_row_of_the_batch(self, real_cells):
        for ctx, X in real_cells:
            batch = ctx.make_queries(X, 7)
            for q in (0, 1, len(X) // 2, len(X) - 1):
                one = ctx.make_query(X[q], 7)
                _assert_same_fields(one, {name: getattr(batch[q], name) for name in FIELDS})

    @pytest.mark.parametrize("layout", ["strided", "fortran"])
    def test_any_memory_layout_decides_alike(self, real_cells, layout):
        """Hand-built queries over strided or Fortran-ordered copies make
        the same decisions and the same score bytes under every selector."""
        def copy(a):
            if layout == "fortran":
                return np.asfortranarray(a)
            return np.repeat(a, 2, axis=-1)[..., ::2]  # same values, stride doubled

        for ctx, X in real_cells:
            for query in ctx.make_queries(X, 7)[:25]:
                other = Query(*(copy(getattr(query, name)) for name in FIELDS))
                if layout == "strided":
                    assert not other.hits.flags.c_contiguous
                for name in SELECTOR_NAMES:
                    want = run_selector(name, ctx, query, CFG)
                    got = run_selector(name, ctx, other, CFG)
                    _assert_same_result(got, want)
                    assert got.aggregate_score(other).tobytes() == \
                        want.aggregate_score(query).tobytes(), name


class TestBitwiseOracles:
    def test_scores_match_the_mean_and_the_weighted_sum(self, oracle_instances, real_cells):
        seen = {"full": 0, "partial": 0, "weighted": 0}
        pairs = [(inst["ctx"], inst["query"]) for inst in oracle_instances]
        pairs += [(ctx, q) for ctx, X in real_cells for q in ctx.make_queries(X, 7)]
        pairs += [(None, q) for q in _edge_queries()]
        for ctx, query in pairs:
            full = ctx is not None and ctx.meta is not None  # DES-RRC and META-DES need both
            names = [n for n in SELECTOR_NAMES if full or n not in ("DES-RRC", "META-DES")]
            for name in names:
                result = run_selector(name, ctx, query, CFG)
                got = result.aggregate_score(query)
                want = ref.aggregate_score_ref(query.supports, result.selected,
                                               result.vote_weights)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
                if result.vote_weights is not None:
                    seen["weighted"] += 1
                elif result.selected.size == query.pool_size:
                    seen["full"] += 1
                else:
                    seen["partial"] += 1
        assert min(seen.values()) > 100, seen

    def test_fire_matches_the_replace_form(self, oracle_instances, real_cells):
        reduced = 0
        for query in _all_queries(oracle_instances, real_cells):
            survivors = dfp_prune(query)
            for base in FIRE_BASES:
                _assert_same_result(select_fire(base, query), ref.fire_ref(base, query))
                if survivors.size == query.pool_size:
                    continue
                reduced += 1
                rows = query.rows(survivors)
                local = base(rows)
                assert (local.aggregate_score(rows).tobytes() == ref.aggregate_score_ref(
                    rows.supports, local.selected, local.vote_weights).tobytes())
        assert reduced > 500

    def test_dfp_matches_the_unique_rule(self, oracle_instances, real_cells):
        single = 0
        for query in _all_queries(oracle_instances, real_cells):
            got = dfp_prune(query)
            assert got.dtype == np.intp
            assert got.tobytes() == ref.dfp_unique_ref(query).tobytes()
            single += np.unique(query.labels).size == 1
        assert single >= 5

    def test_dfp_keeps_the_pool_on_an_empty_region(self):
        query = Query(np.zeros(0, dtype=np.intp), np.ones(4), np.array([0, 1, 1]),
                      np.eye(2)[[0, 1, 1]], np.zeros((3, 0), bool), np.zeros((3, 0), bool),
                      np.zeros(0, dtype=int))
        assert dfp_prune(query).tobytes() == ref.dfp_unique_ref(query).tobytes()
        assert dfp_prune(query).tolist() == [0, 1, 2]

    def test_rows_match_replace(self, oracle_instances, real_cells):
        rng = np.random.default_rng(9)
        for query in _all_queries(oracle_instances, real_cells)[::3]:
            M = query.pool_size
            for keep in (np.arange(M), dfp_prune(query),
                         np.sort(rng.choice(M, size=int(rng.integers(1, M + 1)), replace=False))):
                want = ref.rows_ref(query, keep)
                _assert_same_fields(query.rows(keep), {n: getattr(want, n) for n in FIELDS})

    @pytest.mark.parametrize("t_s, t_c", [(0.7, 0.1), (0.0, 0.0), (0.4, 0.05), (0.95, 0.3)])
    def test_mcb_matches_the_delete_runner_up(self, oracle_instances, real_cells, t_s, t_c):
        for query in _all_queries(oracle_instances, real_cells):
            best = ref.mcb_choice_ref(query, t_s, t_c)
            want = np.arange(query.pool_size) if best is None else np.array([best])
            assert select_mcb(query, t_s, t_c).selected.tolist() == want.tolist()

    def test_mcb_tied_best_and_runner_up_vote_the_pool(self):
        tied = _edge_queries()[-2:]
        for query in tied:
            competence = query.hits.sum(axis=1) / query.hits.shape[1]
            top = np.sort(competence)[-2:]
            assert top[0] == top[1]
            assert ref.mcb_choice_ref(query, 0.0, 0.0) is None
            assert select_mcb(query, 0.0, 0.0).selected.tolist() == list(range(query.pool_size))

    def test_pool_of_one(self):
        ones = [query for query in _edge_queries() if query.pool_size == 1]
        assert len(ones) == 6
        for query in ones:
            assert select_mcb(query).selected.tolist() == [0]
            assert dfp_prune(query).tolist() == [0]
            for name in ("STATIC", "MCB", "KNU", "F-KNU", "DES-KNN"):
                result = run_selector(name, None, query)
                assert (result.aggregate_score(query).tobytes()
                        == ref.aggregate_score_ref(query.supports, result.selected,
                                                   result.vote_weights).tobytes())


class TestRegionSizeRefused:
    @pytest.mark.parametrize("k", [0, -1, -2])
    def test_queries_refuse_k_below_one(self, real_cells, k):
        ctx, X = real_cells[0]
        with pytest.raises(ValueError, match=f"k={k}"):
            ctx.make_queries(X, k)
        with pytest.raises(ValueError, match=f"k={k}"):
            ctx.make_query(X[0], k)

    @pytest.mark.parametrize("k, kp", [(0, 5), (-2, 5), (7, 0), (7, -1)])
    def test_meta_training_refuses_sizes_below_one(self, k, kp):
        dataset = load_benchmark("glass")
        _, _, train_idx, test_idx = next(iter(stratified_5x2(dataset, 3).folds()))
        train, _, _ = standardize(dataset.subset(train_idx), [dataset.subset(test_idx)])
        ctx = SelectionContext(generate_pool(train, "Ba", 3, seed=3), build_dsel(train, "Ba", 3))
        with pytest.raises(ValueError, match=f"k={k}, kp={kp}"):
            train_meta_classifier(ctx, train, k=k, kp=kp)
