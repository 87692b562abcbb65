"""Naive loop-based reference implementations of every selection scheme.

These follow the published algorithm descriptions line by line with plain
Python loops and no shared code with the library (beyond the documented tie
rules: lowest classifier index, lowest class id, lowest DSEL index). They are
the oracles the library's vectorized selectors are checked against. The
output-profile similarity, the META-DES meta-features, the double-fault
measure, the single-support RRC probability and the trapezoidal ROC AUC are
kept here as oracles too, and so are the per-feature CART split search and
the per-row SMOTE interpolation that the library computes as arrays. The
resampling orchestration is kept here with one branch per variant family; it
calls the library's per-class primitives, which have their own tests.
"""

import logging

import numpy as np


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
    comps = [
        sum(1 for j in filtered if hits[i, j]) / len(roc) for i in range(m)
    ]
    best = comps.index(max(comps))
    others = [c for i, c in enumerate(comps) if i != best]
    if not others or comps[best] - max(others) > t_c:
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


def interpolate_ref(rows, seeds, neighbors, rng):
    """One SMOTE row per seed, row by row: draw a neighbour from the seed's
    row of `neighbors`, then a uniform gap."""
    samples = np.empty((len(seeds), rows.shape[1]))
    provenance = []
    for r, seed in enumerate(seeds):
        neighbour = int(neighbors[seed, rng.integers(neighbors.shape[1])])
        gap = float(rng.uniform())
        samples[r] = rows[seed] + gap * (rows[neighbour] - rows[seed])
        provenance.append((int(seed), neighbour, gap))
    return samples, tuple(provenance)


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
