"""The query batch and the per-decision helpers against their earlier forms.

`make_queries` lays its batch out query-major, and each decision reads
contiguous rows of it. Every query must still equal the strided slices of
the old (M, Q, ·) arrays, its region statistics the per-query formulas the
schemes once computed, and every rewritten helper (the sub-ensemble score,
the frienemy rule, MCB's runner-up, a scheme run on candidates) must give
the bytes of the formula in `tests/reference.py` it replaced.
"""

from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

import reference as ref
from conftest import region_query
from desbal import selection
from desbal.benchmarks import load_benchmark
from desbal.data import Dataset, standardize, stratified_5x2
from desbal.pool import Pool, build_dsel, generate_pool
from desbal.selection import (
    SELECTOR_NAMES,
    Query,
    QueryBatch,
    SelectionContext,
    SelectionResult,
    SelectorConfig,
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

FIELDS = list(QueryBatch._fields)  # the arrays of a batch, and of each of its queries
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
        ctx.meta = train_meta_classifier(ctx, train, CFG.k, CFG.meta_kp)
        cells.append((ctx, test.features))
    return cells


@pytest.fixture(scope="module")
def variant_batches():
    """The queries of the first fold's test half of glass and ecoli, each
    under Ba and Ba-RM at pool 10: DSELs below and above 30·k rows."""
    batches = []
    for name in ("glass", "ecoli"):
        dataset = load_benchmark(name)
        _, _, train_idx, test_idx = next(iter(stratified_5x2(dataset, 3).folds()))
        train, (test,), _ = standardize(dataset.subset(train_idx), [dataset.subset(test_idx)])
        for variant in ("Ba", "Ba-RM"):
            ctx = SelectionContext(generate_pool(train, variant, 10, seed=3),
                                   build_dsel(train, variant, 3))
            batches.append((ctx.dsel.n_samples, ctx.make_queries(test.features, CFG.k)))
    return batches


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


def _edge_cells():
    """(context, query) of single-class regions, a pool of one, regions of k
    beyond the DSEL (which hold the whole DSEL), and, last, pools whose best
    MCB competences tie."""
    single = _constant_pool_ctx([0, 1, 0, 2], [1, 1, 1, 1, 1, 0], 3)
    one = _constant_pool_ctx([1], [0, 1, 1, 0, 1], 2)
    tied = _constant_pool_ctx([0, 0, 1, 1], [0, 1, 0, 1, 1], 2)
    return ([(single, single.make_queries([1.0], k)[0]) for k in (1, 3, 5, 9)]
            + [(one, one.make_queries([x], k)[0]) for x in (0.0, 2.0) for k in (1, 3, 8)]
            + [(tied, tied.make_queries([x], 4)[0]) for x in (0.5, 2.5)])


def _edge_queries():
    return [query for _, query in _edge_cells()]


def _all_cells(oracle_instances, real_cells):
    """(context, query) of every oracle instance, edge case and real test point."""
    cells = [(inst["ctx"], inst["query"]) for inst in oracle_instances] + _edge_cells()
    for ctx, X in real_cells:
        cells += [(ctx, query) for query in ctx.make_queries(X, 7)]
    return cells


def _region_labels(ctx, query):
    """The true classes of the query's region, closest first."""
    return ctx.dsel.labels[query.indices]


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
        assert got.vote_weights.dtype == want.vote_weights.dtype
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

    def test_query_is_a_frozen_dataclass_of_the_batch_fields(self, real_cells):
        assert [f.name for f in fields(Query)] == [*QueryBatch._fields, "batch", "row"]
        assert is_dataclass(Query) and Query.__dataclass_params__.frozen
        ctx, X = real_cells[0]
        query = ctx.make_queries(X[:2], 7)[1]
        with pytest.raises(AttributeError):
            query.row = 0
        moved = replace(query, row=0)
        assert moved.row == 0 and moved.batch is query.batch and moved.hits is query.hits

    def test_every_field_is_a_view_of_its_batch_row(self, variant_batches, oracle_instances):
        """Every array field of every query, over DSELs on both sides of 30·k
        rows and the oracle instances, is its batch's row: the same bytes,
        dtype and shape, in the batch's memory."""
        sizes = [n for n, _ in variant_batches]
        assert min(sizes) < 30 * CFG.k < max(sizes)
        queries = [q for _, batch in variant_batches for q in batch]
        for query in queries + [inst["query"] for inst in oracle_instances]:
            for name in FIELDS:
                got, row = getattr(query, name), getattr(query.batch, name)[query.row]
                assert got.dtype == row.dtype and got.shape == row.shape, name
                assert got.tobytes() == row.tobytes(), name
                assert np.shares_memory(got, getattr(query.batch, name)), name

    def test_decision_fields_are_contiguous(self, real_cells):
        for ctx, X in real_cells:
            for query in ctx.make_queries(X, 7):
                for name in ("supports", "predictions", "hits", "agrees"):
                    assert getattr(query, name).flags.c_contiguous, name

    def test_statistics_match_the_per_query_formulas(self, real_cells):
        """Every statistic of every batch row is the formula each scheme once
        computed from the query's own hits, in the smallest dtype; the DFP
        mask is also the `np.unique` rule's survivors."""
        cells = _edge_cells() + [(ctx, q) for ctx, X in real_cells for q in ctx.make_queries(X, 7)]
        for ctx, query in cells:
            labels = _region_labels(ctx, query)
            want = ref.region_stats_ref(query.hits, labels, query.predictions)
            _assert_same_fields(query, want, want.keys())
            assert (np.flatnonzero(query.dfp_mask).tobytes()
                    == ref.dfp_unique_ref(query, labels).tobytes())

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

    def test_one_point_is_a_row_of_the_batch(self, real_cells):
        """One 1-D point, and a one-row matrix, give the batch's row in all
        eleven array fields, DES-RRC's window among them, as row 0 of a batch
        of one."""
        assert len(FIELDS) == 11
        for ctx, X in real_cells:
            batch = ctx.make_queries(X, 7)
            for q in (0, 1, len(X) // 2, len(X) - 1):
                want = {name: getattr(batch[q], name) for name in FIELDS}
                for point in (X[q], X[q:q + 1]):
                    (one,) = ctx.make_queries(point, 7)
                    _assert_same_fields(one, want)
                    assert one.row == 0 and len(one.batch.indices) == 1

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
                other = Query(*(copy(getattr(query, name)) for name in FIELDS),
                              query.batch, query.row)
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
        for ctx, query in _all_cells(oracle_instances, real_cells):
            survivors = np.flatnonzero(query.dfp_mask)
            labels = _region_labels(ctx, query)
            for base in FIRE_BASES:
                got = select_fire(base, query)
                _assert_same_result(got, ref.fire_ref(base, query, labels))
                if survivors.size == query.pool_size:
                    continue
                reduced += 1
                assert (got.aggregate_score(query).tobytes() == ref.aggregate_score_ref(
                    query.supports, got.selected, got.vote_weights).tobytes())
        assert reduced > 500

    def test_candidates_match_the_reduced_query(self, oracle_instances, real_cells):
        """Each FIRE base on candidates `keep` decides as it does on the query
        cut to their rows by `replace`, its choice mapped through `keep`: for
        one candidate, all but one, random sets, and sets that force KNU's
        (no candidate has a correct neighbour) or MCB's (every candidate has
        the same hits, so the best ties the runner-up) empty selection."""
        rng = np.random.default_rng(11)
        fallbacks = {select_knu: 0, select_mcb: 0}
        for _, query in _all_cells(oracle_instances, real_cells):
            M = query.pool_size
            sets = [np.arange(M), np.sort(rng.choice(M, size=1)),
                    np.sort(rng.choice(M, size=int(rng.integers(1, M + 1)), replace=False))]
            if M > 1:
                sets.append(np.delete(np.arange(M), rng.integers(M)))
            if 0 < (query.n_correct == 0).sum() < M:
                sets.append(np.flatnonzero(query.n_correct == 0))
            _, group, size = np.unique(query.hits, axis=0, return_inverse=True,
                                       return_counts=True)
            if size.max() > 1:
                sets.append(np.flatnonzero(group.ravel() == size.argmax()))
            for keep in sets:
                rows = ref.rows_ref(query, keep)
                for base in FIRE_BASES:
                    got, local = base(query, keep=keep), base(rows)
                    _assert_same_result(got, SelectionResult(
                        keep[local.selected], local.predicted_class, local.vote_weights))
                    assert got.aggregate_score(query).tobytes() == \
                        local.aggregate_score(rows).tobytes()
                    if base in fallbacks and keep.size > 1 and got.selected is keep:
                        fallbacks[base] += 1
        assert min(fallbacks.values()) > 50, fallbacks

    def test_decisions_build_no_query(self, real_cells, monkeypatch):
        """The fifteen schemes decide on the batch's queries without building
        another, FIRE's pruned decisions included."""
        built, init = [], Query.__init__
        queries = [(ctx, query) for ctx, X in real_cells for query in ctx.make_queries(X, 7)]
        monkeypatch.setattr(Query, "__init__", lambda self, *a: built.append(1) or init(self, *a))
        assert sum(not query.dfp_mask.all() for _, query in queries) > 50
        for ctx, query in queries:
            for name in SELECTOR_NAMES:
                run_selector(name, ctx, query, CFG)
        assert not built
        real_cells[0][0].make_queries(real_cells[0][1][:2], 7)
        assert len(built) == 2  # the counter sees every Query built

    def test_dfp_matches_the_unique_rule(self, oracle_instances, real_cells):
        single = 0
        for ctx, query in _all_cells(oracle_instances, real_cells):
            got = np.flatnonzero(query.dfp_mask)
            labels = _region_labels(ctx, query)
            assert got.dtype == np.intp
            assert got.tobytes() == ref.dfp_unique_ref(query, labels).tobytes()
            single += np.unique(labels).size == 1
        assert single >= 5

    def test_dfp_keeps_the_pool_on_an_empty_region(self):
        labels = np.zeros(0, dtype=int)
        query = region_query(np.zeros(0, dtype=np.intp), np.array([0, 1, 1]),
                             np.eye(2)[[0, 1, 1]], np.zeros((3, 0), bool),
                             np.zeros((3, 0), bool), labels)
        survivors = np.flatnonzero(query.dfp_mask)
        assert survivors.tobytes() == ref.dfp_unique_ref(query, labels).tobytes()
        assert survivors.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("t_s, t_c", [(0.7, 0.1), (0.0, 0.0), (0.4, 0.05), (0.95, 0.3)])
    def test_mcb_matches_the_delete_runner_up(self, oracle_instances, real_cells, t_s, t_c):
        for _, query in _all_cells(oracle_instances, real_cells):
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
            assert np.flatnonzero(query.dfp_mask).tolist() == [0]
            for name in ("STATIC", "MCB", "KNU", "F-KNU", "DES-KNN"):
                result = run_selector(name, None, query, CFG)
                assert (result.aggregate_score(query).tobytes()
                        == ref.aggregate_score_ref(query.supports, result.selected,
                                                   result.vote_weights).tobytes())


def _grid_ctx(n, seed):
    """A two-tree constant pool over n DSEL rows drawn from a 3 x 3 integer
    grid, and six query points on a wider grid, so most distances tie."""
    rng = np.random.default_rng(seed)
    trees = tuple(DecisionTree([LEAF], [0.0], [-1], [-1], [5.0 * np.eye(2)[c]], 2, arity=2)
                  for c in (0, 1))
    dsel = Dataset("grid", rng.integers(0, 3, size=(n, 2)).astype(float),
                   rng.integers(0, 2, size=n), ("a", "b"))
    return SelectionContext(Pool(trees, "Ba", 0, 2), dsel), rng.integers(-1, 4, (6, 2)) * 1.0


class TestRrcWindow:
    """DES-RRC's window, which `make_queries` takes from its one neighbour sort."""

    @pytest.mark.parametrize("k, n", [(1, 30), (1, 31), (2, 60), (2, 61), (7, 210),
                                      (7, 211), (3, 200), (7, 5)])
    def test_window_matches_the_per_query_oracle(self, k, n):
        """Rows and distance bytes of each query's window equal the stable
        argsort of its own distance row, cut to m = 30·min(k, n) when m < n
        (its first k columns then the region), or every row in DSEL order.
        With m < n no query field is DSEL-wide."""
        ctx, X = _grid_ctx(n, seed=n + k)
        queries = ctx.make_queries(X, k)
        m = 30 * min(k, n)
        batch = queries[0].batch
        assert batch.rrc_rows.shape == batch.rrc_distances.shape == (len(X), min(m, n))
        ties = 0
        for query, x in zip(queries, X):
            rows, dists = ref.rrc_window_ref(ctx.dsel.features, x, k)
            assert query.rrc_rows.tolist() == rows.tolist()
            assert query.rrc_distances.tobytes() == dists.tobytes()
            ties += len(np.unique(dists)) < len(dists)
            if m < n:
                assert query.indices.tolist() == rows[:k].tolist()
                assert all(n not in getattr(query, name).shape for name in FIELDS)
        assert ties == len(X) or n <= 9  # more than 9 rows on 9 grid points always tie

    def test_k_beyond_the_dsel_warns_once_per_batch(self, caplog):
        ctx, X = _grid_ctx(5, seed=1)
        with caplog.at_level("WARNING", logger="desbal"):
            for k in (5, 7):
                ctx.make_queries(X, k)
                ctx.make_queries(X[0], k)
        assert ([r.getMessage() for r in caplog.records]
                == ["DSEL holds 5 < k=7 samples; using the whole set"] * 2)

    def test_a_lone_point_gets_its_batch_row(self):
        for k, n in ((2, 61), (2, 60), (7, 5)):
            ctx, X = _grid_ctx(n, seed=2)
            batch = ctx.make_queries(X, k)[0].batch
            for q, x in enumerate(X):
                one = ctx.make_queries(x, k)[0].batch
                assert one.rrc_rows.tobytes() == batch.rrc_rows[q].tobytes()
                assert one.rrc_distances.tobytes() == batch.rrc_distances[q].tobytes()
                assert one.rrc_rows.shape == (1, batch.rrc_rows.shape[1])

    def test_ba_rm_decisions_sort_nothing(self, monkeypatch):
        """DES-RRC decides every query of a glass and an ecoli Ba-RM batch,
        whose DSELs exceed 30·k rows, without a call to `_nearest`, and selects
        what the per-decision re-sort of each point's whole distance row selects."""
        calls, nearest = [], selection._nearest
        monkeypatch.setattr(selection, "_nearest", lambda *a: calls.append(1) or nearest(*a))
        for name in ("glass", "ecoli"):
            dataset = load_benchmark(name)
            _, _, train_idx, test_idx = next(iter(stratified_5x2(dataset, 3).folds()))
            train, (test,), _ = standardize(dataset.subset(train_idx), [dataset.subset(test_idx)])
            ctx = SelectionContext(generate_pool(train, "Ba-RM", 20, seed=3),
                                   build_dsel(train, "Ba-RM", 3))
            queries = ctx.make_queries(test.features, CFG.k)
            assert len(calls) == 1  # the counter sees make_queries' one sort
            assert ctx.dsel.n_samples > 30 * CFG.k
            assert queries[0].batch.rrc_rows.shape == (len(queries), 30 * CFG.k)
            calls.clear()
            results = [run_selector("DES-RRC", ctx, query, CFG) for query in queries]
            assert not calls
            for result, x in zip(results, test.features):
                competence = ref.desrrc_competence_ref(ctx, x, CFG.k, CFG.seed)
                want = np.flatnonzero(competence > 0) if (competence > 0).any() \
                    else np.arange(ctx.pool_size)
                assert result.selected.tobytes() == want.tobytes()


class TestRegionSizeRefused:
    @pytest.mark.parametrize("k", [0, -1, -2])
    def test_queries_refuse_k_below_one(self, real_cells, k):
        ctx, X = real_cells[0]
        with pytest.raises(ValueError, match=f"k={k}"):
            ctx.make_queries(X, k)
        with pytest.raises(ValueError, match=f"k={k}"):
            ctx.make_queries(X[0], k)

    @pytest.mark.parametrize("k, kp", [(0, 5), (-2, 5), (7, 0), (7, -1)])
    def test_meta_training_refuses_sizes_below_one(self, k, kp):
        dataset = load_benchmark("glass")
        _, _, train_idx, test_idx = next(iter(stratified_5x2(dataset, 3).folds()))
        train, _, _ = standardize(dataset.subset(train_idx), [dataset.subset(test_idx)])
        ctx = SelectionContext(generate_pool(train, "Ba", 3, seed=3), build_dsel(train, "Ba", 3))
        with pytest.raises(ValueError, match=f"k={k}, kp={kp}"):
            train_meta_classifier(ctx, train, k=k, kp=kp)
