"""Naive loop-based reference implementations of every selection scheme.

These follow the published algorithm descriptions line by line with plain
Python loops and no shared code with the library (beyond the documented tie
rules: lowest classifier index, lowest class id, lowest DSEL index). They are
the oracles the library's vectorized selectors are checked against. The
output-profile similarity, the META-DES meta-features and its per-class
naive Bayes, the double-fault measure, the single-support RRC probability
and the whole DES-RRC table (as `np.unique` plus a full gather), the
trapezoidal ROC AUC, the mid-rank multi-class AUC and the per-class-mask
G-mean are kept here as oracles too, and so are the per-feature CART split
search, a recursive tree growth that searches every node, and the per-row
SMOTE interpolation that the library computes as arrays. The resampling orchestration is kept here with one branch per
variant family; it calls the library's per-class primitives, which have
their own tests. The bootstrap completeness rule and the parsers' cell
decoding are kept here as set tests and per-cell loops. The report's
statistics keep their scipy.stats formulas here: `rankdata` average ranks,
`2 * norm.sf` rank-test p-values and the `binom.sf` search for the sign
test's critical value. The query-level helpers keep their earlier array
forms here too: the (M, Q, ·) batch slices of `make_queries_ref`, the
per-query region statistics of `region_stats_ref`, the `np.mean`
sub-ensemble score, the `np.unique` frienemy rule, MCB's `np.delete`
runner-up, and `dataclasses.replace` rows and FIRE results.
"""

import logging
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
from scipy.spatial.distance import cdist
from scipy.stats import binom, norm, rankdata


def region_ref(dsel_features, x_q, k):
    """K nearest DSEL indices by (distance, index) sort."""
    dists = [float(np.sqrt(((row - x_q) ** 2).sum())) for row in dsel_features]
    order = sorted(range(len(dists)), key=lambda i: (dists[i], i))
    return order[: min(k, len(order))]


def vote_ref(predictions, n_classes):
    counts = [0] * n_classes
    for p in predictions:
        counts[int(p)] += 1
    best = max(counts)
    return counts.index(best)


def rank_ref(hits, roc, preds_q):
    """(selected ids, prediction): longest initial streak of correct neighbours."""
    runs = []
    for i in range(hits.shape[0]):
        run = 0
        for j in roc:
            if hits[i, j]:
                run += 1
            else:
                break
        runs.append(run)
    best = runs.index(max(runs))
    return [best], int(preds_q[best])


def lca_ref(hits, roc, dsel_labels, preds_q):
    comps = []
    for i in range(hits.shape[0]):
        members = [j for j in roc if dsel_labels[j] == preds_q[i]]
        if members:
            comps.append(sum(1 for j in members if hits[i, j]) / len(members))
        else:
            comps.append(0.0)
    best = comps.index(max(comps))
    return [best], int(preds_q[best])


def mcb_ref(hits, roc, preds_dsel, preds_q, t_s, t_c, n_classes):
    m = hits.shape[0]
    filtered = []
    for j in roc:
        sim = sum(1 for i in range(m) if preds_dsel[i, j] == preds_q[i]) / m
        if sim > t_s:
            filtered.append(j)
    # exact competences, with t_c read as the decimal it is written as
    comps = [Fraction(sum(1 for j in filtered if hits[i, j]), len(roc)) for i in range(m)]
    best = comps.index(max(comps))
    others = [c for i, c in enumerate(comps) if i != best]
    if not others or comps[best] - max(others) > Fraction(str(t_c)):
        return [best], int(preds_q[best])
    return list(range(m)), vote_ref(preds_q, n_classes)


def kne_ref(hits, roc, preds_q, n_classes):
    """Explicit region shrinking: drop the farthest neighbour until some
    classifier is a local oracle; empty region falls back to the whole pool."""
    m = hits.shape[0]
    region = list(roc)
    while region:
        oracles = [i for i in range(m) if all(hits[i, j] for j in region)]
        if oracles:
            return oracles, vote_ref([preds_q[i] for i in oracles], n_classes)
        region = region[:-1]
    return list(range(m)), vote_ref(preds_q, n_classes)


def knu_ref(hits, roc, preds_q, n_classes):
    m = hits.shape[0]
    votes = [sum(1 for j in roc if hits[i, j]) for i in range(m)]
    selected = [i for i in range(m) if votes[i] > 0]
    if not selected:
        return list(range(m)), None, vote_ref(preds_q, n_classes)
    tally = [0] * n_classes
    for i in selected:
        tally[int(preds_q[i])] += votes[i]
    best = max(tally)
    return selected, [votes[i] for i in selected], tally.index(best)


def desknn_ref(hits, roc, preds_q, n, j, n_classes):
    m = hits.shape[0]
    acc = [sum(1 for t in roc if hits[i, t]) for i in range(m)]
    by_acc = sorted(range(m), key=lambda i: (-acc[i], i))
    candidates = by_acc[:n]
    div = {}
    for i in candidates:
        # pairwise double-fault sums; counts rank identically to fractions
        div[i] = sum(
            sum(1 for t in roc if not hits[i, t] and not hits[other, t])
            for other in candidates
            if other != i
        )
    by_div = sorted(candidates, key=lambda i: (div[i], i))
    selected = sorted(by_div[:j])
    return selected, vote_ref([preds_q[i] for i in selected], n_classes)


def desp_ref(hits, roc, preds_q, n_classes):
    m = hits.shape[0]
    selected = [
        i
        for i in range(m)
        if sum(1 for t in roc if hits[i, t]) / len(roc) - 1.0 / n_classes > 0
    ]
    if not selected:
        return list(range(m)), vote_ref(preds_q, n_classes)
    return selected, vote_ref([preds_q[i] for i in selected], n_classes)


def dfp_ref(hits, roc, dsel_labels):
    m = hits.shape[0]
    if len({int(dsel_labels[j]) for j in roc}) < 2:
        return list(range(m))
    pairs = [
        (a, b)
        for a in roc
        for b in roc
        if dsel_labels[a] != dsel_labels[b]
    ]
    kept = [
        i for i in range(m) if any(hits[i, a] and hits[i, b] for a, b in pairs)
    ]
    return kept if kept else list(range(m))


def dfp_unique_ref(query, labels):
    """DFP survivors by `np.unique(return_inverse=True)` class codes of the
    region's true `labels`."""
    everyone = np.arange(query.pool_size)
    classes, member = np.unique(labels, return_inverse=True)
    if classes.size < 2:
        return everyone
    hit_classes = query.hits @ (member[:, None] == np.arange(classes.size))
    survivors = np.flatnonzero(hit_classes.sum(axis=1) >= 2)
    return survivors if survivors.size else everyone


def rows_ref(query, keep):
    """`query` as seen by the classifiers `keep`, by `dataclasses.replace`."""
    return replace(query, predictions=query.predictions[keep], supports=query.supports[keep],
                   hits=query.hits[keep], agrees=query.agrees[keep],
                   n_correct=query.n_correct[keep], streak=query.streak[keep],
                   class_accuracy=query.class_accuracy[keep], dfp_mask=query.dfp_mask[keep])


def region_stats_ref(hits, labels, predictions):
    """One query's statistics by the per-query forms the schemes once used:
    `hits.sum`, the padded-argmax streak, LCA's `np.divide(..., where=)` and
    the `dfp_ref` pair loop as a mask. Counts are cast to the smallest
    unsigned dtype that holds K, after checking that the cast keeps them."""
    M, K = hits.shape
    count = np.min_scalar_type(K)
    n_correct = hits.sum(axis=1)
    padded = np.concatenate([hits, np.zeros((M, 1), dtype=bool)], axis=1)
    streak = (~padded).argmax(axis=1)
    assert (n_correct.astype(count) == n_correct).all() and (streak.astype(count) == streak).all()
    same = labels[None, :] == predictions[:, None]
    n_same = same.sum(axis=1)
    accuracy = np.divide((hits & same).sum(axis=1), n_same, out=np.zeros(M), where=n_same > 0)
    mask = np.zeros(M, dtype=bool)
    mask[dfp_ref(hits, range(K), labels)] = True
    return dict(n_correct=n_correct.astype(count), streak=streak.astype(count),
                class_accuracy=accuracy, dfp_mask=mask)


def fire_ref(base, query, labels):
    """FIRE through the `np.unique` rule, `replace` rows and a `replace`d result."""
    survivors = dfp_unique_ref(query, labels)
    if survivors.size == query.pool_size:
        return base(query)
    local = base(rows_ref(query, survivors))
    return replace(local, selected=survivors[local.selected])


def mcb_choice_ref(query, t_s, t_c):
    """MCB's lone winner, or None when the whole pool votes: `np.mean`
    similarities, the runner-up by `np.delete`, and the margin as a
    `Fraction` against t_c read as the decimal it is written as."""
    sims = query.agrees.mean(axis=0)
    hits = query.hits[:, sims > t_s].sum(axis=1)
    best = int(np.argmax(hits))
    others = np.delete(hits, best)
    if others.size == 0 or Fraction(int(hits[best] - others.max()),
                                    query.hits.shape[1]) > Fraction(str(t_c)):
        return best
    return None


def aggregate_score_ref(supports, selected, weights=None):
    """`np.mean` of the selected supports, or their weighted sum over the weight total."""
    chosen = supports[selected]
    if weights is None:
        return chosen.mean(axis=0)
    w = weights.astype(float)
    return (chosen * w[:, None]).sum(axis=0) / w.sum()


def make_queries_ref(ctx, X, k):
    """Per-query fields as strided slices of the (M, Q, ·) batch arrays, and
    each query's statistics by `region_stats_ref`."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    dists = cdist(X, ctx.dsel.features)
    order = np.argsort(dists, axis=1, kind="stable")[:, :k]
    supports = ctx.pool.support_all(X)  # (M, Q, L)
    predictions = supports.argmax(axis=2)
    hits = ctx.hits[:, order]  # (M, Q, K)
    agrees = ctx.predictions[:, order] == predictions[:, :, None]
    labels = ctx.dsel.labels[order]
    return [
        dict(indices=order[q], distances=dists[q], predictions=predictions[:, q],
             supports=supports[:, q, :], hits=hits[:, q], agrees=agrees[:, q],
             **region_stats_ref(hits[:, q], labels[q], predictions[:, q]))
        for q in range(X.shape[0])
    ]


def fire_knu_ref(hits, roc, preds_q, dsel_labels, n_classes):
    """Two-step oracle: prune first, then run KNU on the survivors only."""
    survivors = dfp_ref(hits, roc, dsel_labels)
    sub_hits = hits[survivors]
    sub_preds = [preds_q[i] for i in survivors]
    sel_local, weights, pred = knu_ref(sub_hits, roc, sub_preds, n_classes)
    return [survivors[i] for i in sel_local], weights, pred


def profile_similarity(u_i, u_j):
    """Fraction of positions where two output profiles agree."""
    if len(u_i) != len(u_j):
        raise ValueError("output profiles must have equal length")
    return sum(1 for a, b in zip(u_i, u_j) if a == b) / len(u_i)


def meta_features_ref(hits, dsel_supports, dsel_preds, dsel_labels, roc,
                      preds_q, supports_q, kp, exclude=None):
    """META-DES meta-feature rows, one per classifier, for one point.

    Per classifier: hit/miss on each region neighbour, its support for each
    neighbour's true class, its accuracy over the region, hit/miss on the kp
    DSEL samples whose output profiles agree most with the point's (ties to
    the lower index; the DSEL row `exclude` is never one of them), and its
    largest support for the point.
    """
    m, n = hits.shape
    sims = [
        -1.0 if j == exclude
        else profile_similarity([dsel_preds[i, j] for i in range(m)], list(preds_q))
        for j in range(n)
    ]
    profile = sorted(range(n), key=lambda j: (-sims[j], j))[:kp]
    rows = []
    for i in range(m):
        on_region = [float(hits[i, j]) for j in roc]
        true_support = [float(dsel_supports[i, j, dsel_labels[j]]) for j in roc]
        accuracy = sum(on_region) / len(on_region)
        on_profile = [float(hits[i, j]) for j in profile]
        rows.append(on_region + true_support + [accuracy] + on_profile
                    + [float(max(supports_q[i]))])
    return np.array(rows)


def meta_classifier_ref(features, labels, queries):
    """The META-DES Gaussian naive Bayes one class at a time: the priors (2,),
    means (2, F) and smoothed variances (2, F) fitted on `features`, and the
    posterior of class 1 for each row of `queries`."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    smoothing = 1e-9 * max(features.var(axis=0).max(), 1.0)
    priors = np.empty(2)
    means = np.empty((2, features.shape[1]))
    variances = np.empty((2, features.shape[1]))
    for c in (0, 1):
        rows = features[labels == c]
        priors[c] = rows.shape[0] / features.shape[0]
        means[c] = rows.mean(axis=0)
        variances[c] = rows.var(axis=0) + smoothing
    log_like = np.empty((queries.shape[0], 2))
    for c in (0, 1):
        log_like[:, c] = np.log(priors[c]) - 0.5 * np.sum(
            np.log(2 * np.pi * variances[c]) + (queries - means[c]) ** 2 / variances[c],
            axis=1,
        )
    probs = np.exp(log_like - log_like.max(axis=1, keepdims=True))
    return priors, means, variances, probs[:, 1] / probs.sum(axis=1)


def double_fault(hits_i, hits_j):
    """Fraction of region samples misclassified by both classifiers."""
    both_wrong = [not a and not b for a, b in zip(hits_i, hits_j)]
    return sum(both_wrong) / len(both_wrong)


def rrc_correct_probability(support, true_class, draws=1000, rng=None):
    """Monte-Carlo probability that a randomized reference model centred on
    `support` ranks the true class first.

    The randomized model is a Dirichlet draw with concentration L * support
    (plus a small floor so zero supports stay admissible); the argmax of the
    gamma variates decides the winner, so no normalization is needed.
    """
    support = np.asarray(support, dtype=float)
    L = support.shape[0]
    if rng is None:
        rng = np.random.default_rng(0)
    gammas = rng.gamma(shape=L * support + 1e-3, size=(draws, L))
    return float(np.mean(np.argmax(gammas, axis=1) == true_class))


def rrc_csrc_ref(supports, labels, n_classes, draws, seed):
    """The centred RRC table as `np.unique` over the rounded support rows and a
    gather of the whole (M, n, L) win tensor: one seeded Monte-Carlo per
    distinct support, the true class's win rate minus 1/L per (classifier,
    DSEL sample)."""
    from desbal.rng import make_rng

    M, n, L = supports.shape
    flat = np.round(supports.reshape(-1, L), 12)
    unique, inverse = np.unique(flat, axis=0, return_inverse=True)
    win = np.empty((unique.shape[0], L))
    for u, support in enumerate(unique):
        rng = make_rng(seed, "rrc", support.tobytes().hex())
        gammas = rng.gamma(shape=L * support + 1e-3, size=(draws, L))
        win[u] = np.bincount(np.argmax(gammas, axis=1), minlength=L) / draws
    prob = win[inverse].reshape(M, n, L)
    return prob[:, np.arange(n), labels] - 1.0 / n_classes


def g_mean_ref(predictions, labels):
    """G-mean from one boolean mask per class present in `labels`."""
    recalls = np.array([np.mean(predictions[labels == c] == c) for c in np.unique(labels)])
    if (recalls == 0).any():
        return 0.0
    return float(np.exp(np.log(recalls).mean()))


def auc_trapezoid_ref(labels, scores):
    """Binary ROC AUC as the trapezoidal area under the empirical ROC curve.

    One ROC point per distinct score threshold t (a score >= t counts as a
    positive call), from (0, 0) to (1, 1), joined by straight lines.
    """
    positives = sum(1 for y in labels if y == 1)
    negatives = len(labels) - positives
    points = [(0.0, 0.0)]
    for t in sorted(set(float(s) for s in scores), reverse=True):
        tp = sum(1 for y, s in zip(labels, scores) if s >= t and y == 1)
        fp = sum(1 for y, s in zip(labels, scores) if s >= t and y != 1)
        points.append((fp / negatives, tp / positives))
    return sum(
        (x1 - x0) * (y0 + y1) / 2.0
        for (x0, y0), (x1, y1) in zip(points, points[1:])
    )


def auc_rank_ref(scores, labels):
    """Multi-class AUC from mid-ranks, pair by pair.

    Each directed AUC ranks the pair's members on the positive class's score
    column: (rank sum of the positives - n_pos (n_pos + 1) / 2) / (n_pos
    n_neg). A pair scores the mean of its two directions, and the AUC is the
    mean over the pairs whose classes are both present.
    """
    def directed(column, positive, negative):
        mask = (labels == positive) | (labels == negative)
        ranks = rankdata(column[mask])  # mean ranks on ties
        n_pos = int(np.sum(labels[mask] == positive))
        n_neg = mask.sum() - n_pos
        rank_sum = ranks[labels[mask] == positive].sum()
        return (rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)

    n_classes = scores.shape[1]
    present = np.bincount(labels, minlength=n_classes) > 0
    values = [
        (directed(scores[:, i], i, j) + directed(scores[:, j], j, i)) / 2
        for i in range(n_classes) for j in range(i + 1, n_classes)
        if present[i] and present[j]
    ]
    return float(np.mean(values))


def _gini_from_counts(counts, n):
    return 1.0 - np.sum((counts / n) ** 2)


def best_split_ref(X, y_onehot, counts, n_total):
    """Best (feature, threshold, weighted decrease) for one node, one
    feature at a time: the first maximum within a feature is its lowest
    threshold, and a strict comparison lets the earlier feature win ties.
    """
    n = X.shape[0]
    parent_gini = _gini_from_counts(counts, n)
    best_gain = -np.inf
    best_feature = None
    best_threshold = None
    for j in range(X.shape[1]):
        col = X[:, j]
        order = np.argsort(col, kind="stable")
        sv = col[order]
        boundaries = np.flatnonzero(sv[:-1] != sv[1:])
        if boundaries.size == 0:
            continue
        cum = np.cumsum(y_onehot[order], axis=0)
        left_counts = cum[boundaries]
        right_counts = counts - left_counts
        n_left = (boundaries + 1).astype(float)[:, None]
        n_right = n - n_left
        gini_left = 1.0 - np.sum((left_counts / n_left) ** 2, axis=1)
        gini_right = 1.0 - np.sum((right_counts / n_right) ** 2, axis=1)
        child = (n_left.ravel() * gini_left + n_right.ravel() * gini_right) / n
        gains = (n / n_total) * (parent_gini - child)
        pos = int(np.argmax(gains))  # first max = lowest threshold
        if gains[pos] > best_gain:  # strict: earlier feature wins ties
            b = boundaries[pos]
            mid = sv[b] + (sv[b + 1] - sv[b]) / 2.0
            if mid >= sv[b + 1]:  # midpoint rounded onto the right value
                mid = sv[b]
            best_gain = gains[pos]
            best_feature = j
            best_threshold = float(mid)
    return best_feature, best_threshold, best_gain


def fit_tree_ref(X, y, n_classes, min_impurity_decrease):
    """CART growth by recursion, searching a split at every node that is
    impure and holds 2+ rows, with no bound to skip a search. Returns the
    node arrays (feature, threshold, left, right, counts) in creation order:
    a split numbers both children, then grows the left subtree first."""
    n_total = X.shape[0]
    onehot = np.eye(n_classes)[y]
    nodes = []

    def new_node():
        nodes.append([-1, 0.0, -1, -1, None])
        return len(nodes) - 1

    def grow(node, idx):
        counts = onehot[idx].sum(axis=0)
        nodes[node][4] = counts
        if len(idx) < 2 or np.count_nonzero(counts) == 1:
            return
        feat, thr, gain = best_split_ref(X[idx], onehot[idx], counts, n_total)
        if feat is None or gain < min_impurity_decrease:
            return
        go_left = X[idx, feat] <= thr
        left, right = new_node(), new_node()
        nodes[node][:4] = feat, thr, left, right
        grow(left, idx[go_left])
        grow(right, idx[~go_left])

    grow(new_node(), np.arange(n_total))
    feature, threshold, left, right, counts = zip(*nodes)
    return (np.array(feature), np.array(threshold), np.array(left), np.array(right),
            np.vstack(counts))


def apply_ref(feature, threshold, left, right, X):
    """Leaf each row of X reaches, one row and one node at a time over a
    tree's saved node arrays: `x[feature] <= threshold` goes left and
    anything else, NaN included, right, until a feature of -1 (a leaf)."""
    leaves = []
    for x in X:
        node = 0
        while feature[node] != -1:
            node = left[node] if x[feature[node]] <= threshold[node] else right[node]
        leaves.append(node)
    return np.array(leaves, dtype=int)


def interpolate_ref(rows, seeds, neighbors, rng):
    """One SMOTE row per seed, row by row: draw a neighbour from the seed's
    row of `neighbors`, then a uniform gap. Returns the samples and their
    seeds, neighbours and gaps."""
    samples = np.empty((len(seeds), rows.shape[1]))
    neighbours = np.empty(len(seeds), dtype=int)
    gaps = np.empty(len(seeds))
    for r, seed in enumerate(seeds):
        neighbours[r] = neighbors[seed, rng.integers(neighbors.shape[1])]
        gaps[r] = rng.uniform()
        samples[r] = rows[seed] + gaps[r] * (rows[neighbours[r]] - rows[seed])
    return samples, np.array(seeds, dtype=int), neighbours, gaps


def _oversample_amounts(counts, majority, double):
    """Synthetic rows per class: up to the majority count, or doubling (capped)."""
    amounts = {}
    for c, n_c in enumerate(counts):
        if c == majority or n_c == 0:
            continue
        amounts[c] = min(n_c, counts[majority] - n_c) if double else counts[majority] - n_c
    return amounts


def _rb_targets(counts, rng):
    """Random class sizes >= 2 with the same total, drawn in random class order."""
    eligible = [c for c, n in enumerate(counts) if n >= 2]
    frozen = {c: int(n) for c, n in enumerate(counts) if 0 < n < 2}
    total = int(sum(counts[c] for c in eligible))
    order = rng.permutation(eligible)
    targets = dict(frozen)
    remaining = total
    for pos, c in enumerate(order):
        rest = len(order) - pos - 1
        if rest == 0:
            targets[int(c)] = remaining
        else:
            targets[int(c)] = int(rng.integers(2, remaining - 2 * rest, endpoint=True))
        remaining -= targets[int(c)]
    return targets


def resample_dataset_ref(dataset, variant, rng):
    """Variant orchestration with one branch per variant family.

    Ba returns every row; RB draws class sizes and resizes each class; SM/RM
    grow every non-majority class (majority: the largest class, ties to the
    lowest id) by its `_oversample_amounts` entry and skip, with a warning,
    any such class of fewer than 2 rows. The per-class primitives are the
    library's `rus`, `smote_exact` (5 neighbours) and `ramo` (its defaults),
    so this checks the orchestration: class order, targets and RNG use.
    Returns (kept indices, synthetic features, synthetic labels).
    """
    from desbal.resampling import normalize_variant, ramo, rus, smote_exact

    variant = normalize_variant(variant)
    counts = dataset.class_counts()
    all_idx = np.arange(dataset.n_samples)
    empty = (np.empty((0, dataset.n_features)), np.empty(0, dtype=int))
    if variant == "Ba":
        return (all_idx, *empty)

    def pack(kept, synth_x, synth_y):
        if synth_x:
            return np.sort(kept), np.vstack(synth_x), np.concatenate(synth_y)
        return (np.sort(kept), *empty)

    majority = int(np.argmax(counts))
    if variant == "Ba-RB":
        targets = _rb_targets(counts, rng)
        kept, synth_x, synth_y = [], [], []
        for c in range(dataset.n_classes):
            idx = np.flatnonzero(dataset.labels == c)
            if idx.size == 0:
                continue
            target = targets[c]
            if target < idx.size:
                kept.append(rus(idx, target, rng))
            else:
                kept.append(idx)
                if target > idx.size:
                    batch = smote_exact(dataset.features[idx], target - idx.size,
                                        5, rng)
                    synth_x.append(batch.samples)
                    synth_y.append(np.full(len(batch), c, dtype=int))
        return pack(np.concatenate(kept), synth_x, synth_y)

    double = variant.endswith("100")
    use_ramo = "RM" in variant
    amounts = _oversample_amounts(counts, majority, double)
    synth_x, synth_y = [], []
    for c in sorted(amounts):
        idx = np.flatnonzero(dataset.labels == c)
        if idx.size < 2:
            logging.getLogger(__name__).warning(
                "%s: class %s has %d sample(s); cannot oversample, skipped",
                dataset.name, dataset.class_names[c], idx.size,
            )
            continue
        if amounts[c] <= 0:
            continue
        if use_ramo:
            batch = ramo(idx, dataset.features, dataset.labels, amounts[c], rng)
        else:
            batch = smote_exact(dataset.features[idx], amounts[c], 5, rng)
        synth_x.append(batch.samples)
        synth_y.append(np.full(len(batch), c, dtype=int))
    return pack(all_idx, synth_x, synth_y)


def bootstrap_ref(labels, size, rng, redraws=10):
    """Half-size bootstrap, redrawn until every class of `labels` is drawn
    (at most `redraws` times); returns (indices, complete flag)."""
    present = np.unique(labels)
    for _ in range(redraws + 1):
        idx = rng.integers(0, len(labels), size=size)
        if np.isin(present, labels[idx]).all():
            return idx, True
    return idx, False


def _parses(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False


def csv_body_ref(rows):
    """The rows a CSV table decodes: without a first row that fails float
    parsing in a column whose cells in the other rows free of `?` all parse."""
    for j in range(len(rows[0])):
        rest = [row[j] for row in rows[1:] if "?" not in row]
        if len(rows) > 1 and not _parses(rows[0][j]) and all(map(_parses, rest)):
            return rows[1:]
    return rows


def decode_ref(rows, label_idx, label_name, specs=None):
    """Row-by-row oracle of the parsers' decoding rules.

    Rows holding `?` are dropped first. A missing spec is read from the kept
    rows: numeric (None) when every cell parses as a float, else the
    categories in first-appearance order. Class names are the class spec
    with repeats removed (a numeric class: one per distinct finite number,
    ordered by value and spelt as its first cell in row order, so `1` and
    `1.0` are one class, a non-number is an unknown class value and a nan or
    inf a non-finite one). A numeric class cell takes the class equal to it
    as a number, every other cell its first matching category; a nominal
    feature becomes one indicator per declared category, and a numeric
    feature cell must be a finite float. Returns (features, labels,
    class_names), or the error message of the first bad cell in row order.
    """
    kept = [row for row in rows if "?" not in row]
    if not kept:
        return "empty data section"
    if specs is None:
        specs = []
        for j in range(len(kept[0])):
            cells = [row[j] for row in kept]
            numeric = all(_parses(c) for c in cells)
            specs.append(None if numeric else tuple(dict.fromkeys(cells)))
    numeric_class = specs[label_idx] is None
    if numeric_class:
        spelt = []  # (value, first spelling) per distinct finite number, in row order
        for row in kept:
            cell = row[label_idx]
            if _parses(cell) and math.isfinite(float(cell)) \
                    and all(float(cell) != value for value, _ in spelt):
                spelt.append((float(cell), cell))
        spelt.sort(key=lambda pair: pair[0])
        class_names = tuple(name for _, name in spelt)
    else:
        class_names = tuple(dict.fromkeys(specs[label_idx]))
    features, labels = [], []
    for row in kept:
        cell = row[label_idx]
        if numeric_class:
            matches = [i for i, (value, _) in enumerate(spelt)
                       if _parses(cell) and float(cell) == value]
        else:
            matches = [i for i, name in enumerate(class_names) if name == cell]
        if not matches:
            if numeric_class and _parses(cell):
                return f"non-finite class value {cell!r} in column {label_name}"
            return f"unknown class value {cell!r} in column {label_name}"
        labels.append(matches[0])
        out = []
        for j, spec in enumerate(specs):
            if j == label_idx:
                continue
            if spec is None:
                if not _parses(row[j]):
                    return f"non-numeric cell {row[j]!r} in numeric column {j}"
                if not math.isfinite(float(row[j])):
                    return f"non-finite cell {row[j]!r} in numeric column {j}"
                out.append(float(row[j]))
            elif row[j] in spec:
                out.extend(1.0 if i == spec.index(row[j]) else 0.0 for i in range(len(spec)))
            else:
                return f"unknown nominal category {row[j]!r} in column {j}"
        features.append(out)
    if len(class_names) < 2:
        return "fewer than 2 classes"
    missing = [c for i, c in enumerate(class_names) if i not in labels]
    if missing:
        return f"classes with no samples: {missing}"
    return features, labels, class_names


def average_ranks_ref(scores):
    """Mean rank of each column (1 = highest score, ties averaged) by
    `rankdata` row by row."""
    return rankdata(-np.asarray(scores, dtype=float), axis=1).mean(axis=0)


def rank_pvalues_ref(avg_ranks, n_datasets):
    """Two-sided `norm.sf` p-values of the Friedman z of every method but
    the best-ranked one, in method order."""
    m = len(avg_ranks)
    best = int(np.argmin(avg_ranks))
    others = [i for i in range(m) if i != best]
    z = (avg_ranks[others] - avg_ranks[best]) / np.sqrt(m * (m + 1) / (6.0 * n_datasets))
    return 2.0 * norm.sf(np.abs(z))


def sign_critical_ref(n, alpha):
    """Smallest w with `binom.sf(w - 1, n, 1/2)` <= alpha (n + 1 if none)."""
    w = np.arange(0, n + 2)
    hits = np.flatnonzero(binom.sf(w - 1, n, 0.5) <= alpha)
    return int(w[hits[0]]) if hits.size else n + 1
