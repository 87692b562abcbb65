"""Acceptance suite: one test per release criterion, one verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines as
they pass; every expected value is either computed by an independent oracle
in this file or derived arithmetic pinned at its stated tolerance.
"""

import math
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import reference as ref
from desbal.data import Dataset
from desbal.experiment import RunConfig, run_experiment
from desbal.metrics import auc_multiclass, f_measure_weighted, g_mean
from desbal.pool import Pool
from desbal.resampling import apply_multiclass, logistic_weight, ramo_weights, smote_exact
from desbal.selection import (
    SelectionContext,
    SelectorConfig,
    dfp_prune,
    select_desknn,
    select_desp,
    select_desrrc,
    select_fire,
    select_kne,
    select_knu,
    select_lca,
    select_mcb,
    select_rank,
)
from desbal.stats import finner_stepdown, sign_test_critical_value


def _verdict(number, name, passed):
    print(f"\nACCEPTANCE {number:02d} ({name}): {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} ({name}) failed"


# -- 1: KNE oracle equivalence ------------------------------------------------


def test_criterion_01_kne_oracle(oracle_instances):
    start = time.perf_counter()
    mismatches = 0
    for inst in oracle_instances:
        ctx, query = inst["ctx"], inst["query"]
        got = select_kne(inst["view"])
        want_sel, want_pred = ref.kne_ref(
            ctx.hits, query.indices.tolist(), query.predictions, ctx.n_classes
        )
        if got.selected.tolist() != want_sel or got.predicted_class != want_pred:
            mismatches += 1
    elapsed = time.perf_counter() - start
    _verdict(1, "KNE oracle equivalence", mismatches == 0 and elapsed < 10.0)


# -- 2: remaining selector oracles ---------------------------------------------


def test_criterion_02_selector_oracles(oracle_instances):
    failures = []
    for n, inst in enumerate(oracle_instances):
        ctx, query, view = inst["ctx"], inst["query"], inst["view"]
        hits, preds_q = ctx.hits, query.predictions
        roc = query.indices.tolist()
        L = ctx.n_classes

        got = select_rank(view)
        want = ref.rank_ref(hits, roc, preds_q)
        if (got.selected.tolist(), got.predicted_class) != want:
            failures.append((n, "RANK"))

        got = select_lca(view)
        want = ref.lca_ref(hits, roc, ctx.dsel.labels, preds_q)
        if (got.selected.tolist(), got.predicted_class) != want:
            failures.append((n, "LCA"))

        t_s, t_c = inst["mcb_ts"], inst["mcb_tc"]
        got = select_mcb(view, t_s=t_s, t_c=t_c)
        want = ref.mcb_ref(hits, roc, ctx.predictions, preds_q, t_s, t_c, L)
        if (got.selected.tolist(), got.predicted_class) != want:
            failures.append((n, "MCB"))

        got = select_knu(view)
        want_sel, want_w, want_pred = ref.knu_ref(hits, roc, preds_q, L)
        got_w = None if got.vote_weights is None else got.vote_weights.tolist()
        if (got.selected.tolist(), got_w, got.predicted_class) != (
            want_sel, want_w, want_pred,
        ):
            failures.append((n, "KNU"))

        got = select_desp(view)
        want = ref.desp_ref(hits, roc, preds_q, L)
        if (got.selected.tolist(), got.predicted_class) != want:
            failures.append((n, "DESP"))

        nn, jj = inst["desknn_n"], inst["desknn_j"]
        got = select_desknn(view, n=nn, j=jj)
        want = ref.desknn_ref(hits, roc, preds_q, nn, jj, L)
        if (got.selected.tolist(), got.predicted_class) != want:
            failures.append((n, "DES-KNN"))

        if dfp_prune(view).tolist() != ref.dfp_ref(hits, roc, ctx.dsel.labels):
            failures.append((n, "DFP"))
    _verdict(2, "selector oracle equivalence", not failures)


# -- 3: resampling contracts ----------------------------------------------------


def test_criterion_03_resampling_contracts():
    rng = np.random.default_rng(31)
    failures = 0
    for _ in range(1000):
        L = int(rng.integers(2, 5))
        counts = rng.integers(2, 30, size=L)
        labels = np.repeat(np.arange(L), counts)
        features = rng.normal(size=(labels.size, 2)) + labels[:, None] * 3.0
        ds = Dataset("trial", features, labels, tuple(map(str, range(L))))

        # SM equalizes every class exactly
        sm = apply_multiclass(ds, "Ba-SM", rng)
        if not (np.bincount(sm.labels, minlength=L) == counts.max()).all():
            failures += 1

        # RB preserves the total exactly on a two-class split of the rows
        split = int(rng.integers(2, labels.size - 1))  # both halves >= 2 rows
        halves = (np.arange(labels.size) >= split).astype(int)
        rb = apply_multiclass(Dataset("halves", features, halves, ("a", "b")), "Ba-RB", rng)
        if rb.n_samples != labels.size or (np.bincount(rb.labels, minlength=2) < 2).any():
            failures += 1

        # every synthetic row is a convex combination of its provenance rows
        # and stays inside its class's bounding box
        cls = int(rng.integers(0, L))
        rows = features[labels == cls]
        batch = smote_exact(rows, int(rng.integers(1, 9)), 5, rng)
        lo, hi = rows.min(axis=0), rows.max(axis=0)
        for sample, (seed, neighbour, gap) in zip(batch.samples, batch.provenance):
            expected = rows[seed] + gap * (rows[neighbour] - rows[seed])
            if not np.allclose(sample, expected, atol=1e-9):
                failures += 1
            if (sample < lo - 1e-9).any() or (sample > hi + 1e-9).any():
                failures += 1
    _verdict(3, "resampling contracts", failures == 0)


# -- 4: closed-form arithmetic ---------------------------------------------------


def test_criterion_04_weight_and_competence_arithmetic():
    checks = []
    # logistic seed weight at m=10, alpha=0.3, plus an end-to-end neighbourhood
    checks.append(abs(logistic_weight(10, 0.3) - 0.952574) <= 1e-6)
    hostile = np.vstack([[0.0, 0.0], np.random.default_rng(0).normal(0, 0.1, (10, 2))])
    friendly = np.random.default_rng(1).normal(100.0, 0.1, (12, 2))
    features = np.vstack([hostile, friendly])
    labels = np.array([1] + [0] * 10 + [1] * 12)
    weights = ramo_weights(np.flatnonzero(labels == 1), features, labels, k1=10, alpha=0.3)
    checks.append(abs(weights[0] - 0.952574) <= 1e-6)
    # competence of a classifier at local accuracy 4/7 with 3 classes
    checks.append(abs((4 / 7 - 1 / 3) - 0.238095) <= 1e-6)
    _verdict(4, "closed-form weight/competence values", all(checks))


# -- 5: metric oracles ------------------------------------------------------------


def test_criterion_05_metric_oracles():
    try:  # an extra cross-check of the trapezoid oracle where available
        from sklearn.metrics import roc_auc_score
    except ImportError:
        roc_auc_score = None
    rng = np.random.default_rng(51)
    failures = []
    for _ in range(100):
        n = int(rng.integers(10, 60))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        raw = rng.uniform(0.01, 1.0, size=(n, 2))
        scores = raw / raw.sum(axis=1, keepdims=True)
        mine = auc_multiclass(scores, labels)
        trapezoid = ref.auc_trapezoid_ref(labels, scores[:, 1])
        if abs(mine - trapezoid) > 1e-9:
            failures.append("auc")
        if roc_auc_score is not None and abs(
            trapezoid - roc_auc_score(labels, scores[:, 1])
        ) > 1e-9:
            failures.append("auc-sklearn")
    for _ in range(100):
        n = int(rng.integers(10, 60))
        labels = rng.integers(0, 3, size=n)
        preds = rng.integers(0, 3, size=n)
        f_sum, sens, present = 0.0, [], 0
        for c in range(3):
            tp = np.sum((preds == c) & (labels == c))
            fp = np.sum((preds == c) & (labels != c))
            fn = np.sum((preds != c) & (labels == c))
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            f_sum += (2 * p * r / (p + r) if p + r else 0.0) * np.mean(labels == c)
            if (labels == c).any():
                sens.append(r)
        if abs(f_measure_weighted(preds, labels) - f_sum) > 1e-12:
            failures.append("fmeasure")
        gm = 0.0 if min(sens) == 0 else float(np.prod(sens) ** (1 / len(sens)))
        if abs(g_mean(preds, labels) - gm) > 1e-12:
            failures.append("gmean")
    # fixed sensitivities (1.0, 0.5, 0.8)
    labels = np.concatenate([np.zeros(4, int), np.ones(4, int), np.full(5, 2)])
    preds = labels.copy()
    preds[4:6] = 0
    preds[8] = 0
    if abs(g_mean(preds, labels) - 0.7368) > 1e-4:
        failures.append("gmean-fixed")
    _verdict(5, "metric oracles", not failures)


# -- 6: statistical machinery ------------------------------------------------------


def test_criterion_06_statistics():
    failures = []
    # exact binomial oracle built from combinatorics alone
    def tail(w, n=26):
        return sum(math.comb(n, k) for k in range(w, n + 1)) / 2**n

    for alpha, expected in ((0.05, 18), (0.01, 20)):
        crit = sign_test_critical_value(26, alpha)
        if crit != expected:
            failures.append(f"critical {alpha}")
        if not (tail(crit) <= alpha < tail(crit - 1)):
            failures.append(f"tail {alpha}")

    rng = np.random.default_rng(61)
    for _ in range(50):
        h = int(rng.integers(1, 9))
        p = rng.uniform(size=h)
        flags = finner_stepdown(p, alpha=0.05)
        order = np.argsort(p)
        adjusted, running = [], 0.0
        for pos, idx in enumerate(order, start=1):
            running = max(running, 1.0 - (1.0 - p[idx]) ** (h / pos))
            adjusted.append(min(running, 1.0))
        expected_flags = np.zeros(h, dtype=bool)
        rejecting = True
        for pos, idx in enumerate(order):
            if adjusted[pos] > 0.05:
                rejecting = False
            expected_flags[idx] = rejecting
        if flags.tolist() != expected_flags.tolist():
            failures.append("finner formula")
        # monotone: rejecting a hypothesis implies rejecting all smaller p
        if flags.any() and not flags[p <= p[flags].max()].all():
            failures.append("finner monotone")
    _verdict(6, "sign test and Finner step-down", not failures)


# -- 7 and 8: end-to-end benchmark runs --------------------------------------------

BENCHMARKS = tuple(
    f"builtin:{name}" for name in ("wine", "glass", "new-thyroid", "ecoli")
)


def _fold_means(results_path, metric):
    rows = [l.split("\t") for l in results_path.read_text().splitlines()[1:]]
    sums, counts = {}, {}
    for r in rows:
        if r[5] != metric:
            continue
        key = (r[0], r[1], r[2])
        sums[key] = sums.get(key, 0.0) + float(r[6])
        counts[key] = counts.get(key, 0) + 1
    return {k: sums[k] / counts[k] for k in sums}


def test_criterion_07_determinism(tmp_path):
    cfg = RunConfig(
        datasets=BENCHMARKS,
        output=str(tmp_path / "a"),
        variants=("Ba", "Ba-RM", "Ba-RB"),
        selectors=("STATIC", "RANK", "KNU", "DESP"),
        metrics=("auc", "fmeasure", "gmean"),
        pool_size=20,
        k=7,
        seed=20240601,
    )
    run_experiment(cfg)
    run_experiment(replace(cfg, output=str(tmp_path / "b")))

    def printed_values(path):
        rows = [l.split("\t") for l in path.read_text().splitlines()[1:]]
        return {tuple(r[:6]): r[6] for r in rows}

    a = printed_values(tmp_path / "a" / "results.tsv")
    b = printed_values(tmp_path / "b" / "results.tsv")
    _verdict(7, "two identical full runs", a == b and len(a) == 4 * 3 * 4 * 3 * 10)


@pytest.fixture(scope="session")
def headline_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("headline")
    cfg = RunConfig(
        datasets=BENCHMARKS,
        output=str(out),
        variants=("Ba", "Ba-RM100", "Ba-RM", "Ba-SM100", "Ba-SM", "Ba-RB"),
        selectors=("STATIC", "KNU"),
        metrics=("auc", "gmean"),
        pool_size=100,
        k=7,
        seed=20240601,
    )
    start = time.perf_counter()
    summary = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    return summary.results_path, elapsed


def test_criterion_08_preprocessing_headline(headline_run):
    results_path, elapsed = headline_run
    gmeans = _fold_means(results_path, "gmean")
    aucs = _fold_means(results_path, "auc")
    datasets = sorted({k[0] for k in gmeans})
    assert len(datasets) == 4

    gmean_wins = sum(
        gmeans[(d, "Ba-RM", "KNU")] >= gmeans[(d, "Ba", "STATIC")] for d in datasets
    )
    preprocessing = ("Ba-RM100", "Ba-RM", "Ba-SM100", "Ba-SM", "Ba-RB")
    auc_wins = sum(
        max(aucs[(d, v, "STATIC")] for v in preprocessing)
        >= aucs[(d, "Ba", "STATIC")]
        for d in datasets
    )
    print(
        f"\n  G-mean Ba-RM+KNU >= Ba+STATIC on {gmean_wins}/4; "
        f"best-preprocessing static AUC >= plain on {auc_wins}/4; "
        f"runtime {elapsed:.0f}s"
    )
    _verdict(
        8,
        "preprocessing improves AUC and G-mean at desk scale",
        gmean_wins >= 3 and auc_wins >= 3 and elapsed < 600.0,
    )


# -- 9: FIRE composition -------------------------------------------------------------


def test_criterion_09_fire_composition(oracle_instances):
    failures = 0
    for inst in oracle_instances:
        ctx, query = inst["ctx"], inst["query"]
        got = select_fire(select_knu, inst["view"])
        want_sel, want_w, want_pred = ref.fire_knu_ref(
            ctx.hits, query.indices.tolist(), query.predictions,
            ctx.dsel.labels, ctx.n_classes,
        )
        got_w = None if got.vote_weights is None else got.vote_weights.tolist()
        if (got.selected.tolist(), got_w, got.predicted_class) != (
            want_sel, want_w, want_pred,
        ):
            failures += 1
    _verdict(9, "FIRE-KNU equals prune-then-KNU", failures == 0)


# -- 10: DES-RRC sanity ----------------------------------------------------------------


def _support_stub(support_fn, n_classes, arity):
    tree = SimpleNamespace(arity=arity, n_classes=n_classes)
    tree.predict_support = lambda X: np.vstack(
        [support_fn(row) for row in np.atleast_2d(X)]
    )
    tree.predict = lambda X: np.argmax(tree.predict_support(X), axis=1)
    return tree


def test_criterion_10_rrc_sanity():
    L, d, n, draws = 3, 2, 25, 1000
    rng = np.random.default_rng(101)
    features = rng.normal(size=(n, d))
    labels = rng.integers(0, L, size=n)
    labels[:L] = np.arange(L)
    dsel = Dataset("stub", features, labels, tuple(str(c) for c in range(L)))

    def perfect(row):
        j = int(np.argmin(((features - row) ** 2).sum(axis=1)))
        out = np.zeros(L)
        out[labels[j]] = 1.0
        return out

    uniform = lambda row: np.full(L, 1.0 / L)
    pool = Pool(
        classifiers=(_support_stub(perfect, L, d), _support_stub(uniform, L, d)),
        variant="Ba", generation_seed=0, n_classes=L,
    )
    x_q = rng.normal(size=d)
    dists = cdist(x_q[None, :], features)[0]
    w = np.exp(-dists**2)

    # the uniform classifier's competence is a single shared Monte-Carlo
    # estimate p_hat aggregated through per-class weight sums, so the null
    # std follows the multinomial covariance of p_hat
    p = 1.0 / L
    W = np.array([w[labels == c].sum() for c in range(L)])
    sigma = np.sqrt((p / draws) * ((W**2).sum() - p * W.sum() ** 2))

    deltas = []
    perfect_always_selected = True
    for trial in range(100):
        ctx = SelectionContext(pool, dsel)
        csrc = ctx.rrc_csrc(draws=draws, seed=9000 + trial)
        deltas.append(float(csrc[1] @ w))
        query = ctx.make_query(x_q, k=7)
        result = select_desrrc(ctx, query, SelectorConfig(seed=9000 + trial), draws=draws)
        if 0 not in result.selected.tolist():
            perfect_always_selected = False
    deltas = np.array(deltas)
    null_ok = (np.abs(deltas) < 3 * sigma).all()
    print(
        f"\n  uniform-support |delta| max {np.abs(deltas).max() / sigma:.2f} sigma; "
        f"mean {deltas.mean():+.5f}"
    )
    _verdict(
        10, "RRC null behaviour and perfect-classifier selection",
        null_ok and perfect_always_selected,
    )
