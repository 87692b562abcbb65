"""Competence regions and the dynamic classifier/ensemble selection schemes.

A `SelectionContext` holds the pool's behaviour over the DSEL, computed once.
Each test point becomes a `Query`: its distances to the DSEL, the pool's
outputs for it, and its region of competence with the pool's behaviour on
it and its statistics, gathered once per batch of queries. A scheme that
judges competence on the region alone reads the query and nothing else.
Determinism rules used throughout: competence ties break to the lowest
classifier index, vote ties to the lowest class id, distance ties to the
lowest DSEL index.
"""

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .cpus import usable_cpus
from .data import Dataset, _catalogue_lookup, _distances, _nearest, _neighbors
from .pool import Pool
from .rng import make_rng

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SelectorConfig:
    """Run-level settings of the selection schemes.

    `k` is the region size callers build queries and the META-DES training set
    with; the schemes themselves read the region from the query. `meta_kp` is
    the kp callers train META-DES with (its model keeps the sizes it was
    trained with), and `seed` seeds DES-RRC.
    """

    k: int = 7
    meta_kp: int = 5
    seed: int = 0


# ---------------------------------------------------------------------------
# Regions, queries, shared context
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    """One test point: its region of competence (the K nearest DSEL rows by
    Euclidean distance, closest first), its distance to every DSEL row,
    every classifier's output for it, and the pool's behaviour on the region.

    `hits[i, j]` tells whether classifier i labels neighbour j correctly and
    `agrees[i, j]` whether it gives neighbour j the label it gives the query;
    `labels` are the neighbours' true classes. The last four fields are the
    region's `_region_stats`, from a batch of one when built without them.
    """

    indices: np.ndarray  # (K,) DSEL rows
    distances: np.ndarray  # (n,) Euclidean distance to each DSEL row
    predictions: np.ndarray  # (M,) class ids
    supports: np.ndarray  # (M, L)
    hits: np.ndarray  # (M, K) bool
    agrees: np.ndarray  # (M, K) bool
    labels: np.ndarray  # (K,) class ids
    n_correct: np.ndarray | None = None  # (M,) correct neighbours
    streak: np.ndarray | None = None  # (M,) initial run of correct neighbours
    class_accuracy: np.ndarray | None = None  # (M,) float, LCA's local class accuracy
    dfp_mask: np.ndarray | None = None  # (M,) bool, the DFP survivors

    def __post_init__(self):
        if self.n_correct is None:
            stats = _region_stats(self.hits.T[:, None], self.labels[None],
                                  self.predictions[None], self.n_classes)
            for name, stat in zip(STAT_FIELDS, stats):
                object.__setattr__(self, name, stat[0])

    @property
    def pool_size(self) -> int:
        return self.predictions.shape[0]

    @property
    def n_classes(self) -> int:
        return self.supports.shape[1]

    def rows(self, keep) -> "Query":
        """The same query as seen by the classifiers `keep` alone."""
        return Query(self.indices, self.distances, self.predictions[keep], self.supports[keep],
                     self.hits[keep], self.agrees[keep], self.labels, self.n_correct[keep],
                     self.streak[keep], self.class_accuracy[keep], self.dfp_mask[keep])


STAT_FIELDS = ("n_correct", "streak", "class_accuracy", "dfp_mask")


def _region_stats(hits, labels, predictions, n_classes) -> tuple:
    """Per-classifier statistics (Q, M) of Q regions, from `hits` laid out
    neighbour-major (K, Q, M), `labels` (Q, K) and `predictions` (Q, M): the
    correct-neighbour count and initial run of correct neighbours, in the
    smallest unsigned dtype that holds K; the local class accuracy, the
    correct share of the neighbours of the classifier's own label (0 with
    none); and the DFP survivor mask. A classifier survives when its correct
    neighbours span two classes or more (it labels both members of some
    frienemy pair correctly). A region where none survives keeps the whole
    pool; so does every single-class or empty region.
    """
    K, Q, M = hits.shape
    count, ids = np.min_scalar_type(K), np.min_scalar_type(n_classes + 1)
    hit = hits.view(np.uint8)
    streak, run = np.zeros((Q, M), count), np.ones((Q, M), bool)
    for row in hits:
        streak += np.logical_and(run, row, out=run)
    lab = labels.T.astype(ids)[:, :, None]  # (K, Q, 1)
    same = lab == predictions.astype(ids)
    accuracy = np.divide((hits & same).sum(axis=0, dtype=count),
                         np.maximum(same.sum(axis=0, dtype=count), 1))
    top = (hit * (lab + 1)).max(axis=0, initial=0)  # 1 + the highest correct class, 0 with none
    bottom = (hit * (n_classes - lab)).max(axis=0, initial=0)  # n_classes - the lowest
    survives = top > n_classes + 1 - bottom
    survives |= ~survives.any(axis=1, keepdims=True)
    return hit.sum(axis=0, dtype=count), streak, accuracy, survives


class SelectionContext:
    """Pool behaviour over a DSEL, precomputed once and queried per point.
    `threads` draw the DES-RRC table: by default one per usable CPU."""

    def __init__(self, pool: Pool, dsel: Dataset, threads: int | None = None):
        self.pool = pool
        self.dsel = dsel
        self.threads = threads
        self.n_classes = pool.n_classes
        self.supports = pool.support_all(dsel.features)  # (M, n, L)
        ids = np.min_scalar_type(self.n_classes - 1)  # the smallest unsigned dtype holding L - 1
        self.predictions = self.supports.argmax(axis=2).astype(ids)  # (M, n) class ids
        self.hits = self.predictions == dsel.labels[None, :]
        self.meta = None
        self._rrc = (None, None)  # seed of the last RRC table, the table

    @property
    def pool_size(self) -> int:
        return self.predictions.shape[0]

    def make_query(self, x_q, k: int = 7) -> Query:
        return self.make_queries(np.asarray(x_q, dtype=float)[None, :], k)[0]

    def make_queries(self, X, k: int = 7) -> list:
        """Queries for a whole test matrix with one pass of the pool over it
        and one gather of the pool's behaviour on every region, laid out
        query-major: each query's fields are contiguous rows of C-ordered
        (Q, M, L) supports, (Q, M) predictions and (Q, M, K) hits/agrees,
        with the statistics of every region from one `_region_stats` call."""
        if k < 1:
            raise ValueError(f"region size k must be at least 1, got k={k}")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        dists = _distances(X, self.dsel.features)
        order = _nearest(dists, k)  # (Q, K)
        supports = self.pool.support_all(X, axis=1)  # (Q, M, L)
        predictions = supports.argmax(axis=2)
        by_neighbour = np.ascontiguousarray(self.hits.T)[order.T]  # (K, Q, M)
        hits = by_neighbour.transpose(1, 2, 0).copy()  # (Q, M, K)
        agrees = (self.predictions[:, order] == predictions.T[:, :, None]).swapaxes(0, 1).copy()
        labels = self.dsel.labels[order]
        stats = _region_stats(by_neighbour, labels, predictions, self.n_classes)
        return [Query(*fields) for fields in zip(order, dists, predictions, supports, hits,
                                                 agrees, labels, *stats)]

    def rrc_csrc(self, seed: int = 0) -> np.ndarray:
        """Centered correct-classification probability of the randomized
        reference model for every (classifier, DSEL sample) pair, from
        `RRC_DRAWS` draws per distinct support.

        Only the table of the last seed is kept: a run uses one seed per
        context, and a table per seed would grow with every new seed.
        """
        if self._rrc[0] != seed:
            self._rrc = seed, _rrc_csrc_matrix(self.supports, self.dsel.labels, self.n_classes,
                                               RRC_DRAWS, seed, self.threads or usable_cpus())
        return self._rrc[1]


# ---------------------------------------------------------------------------
# Results and vote rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectionResult:
    """Chosen sub-ensemble, optional vote weights, and the aggregated label."""

    selected: np.ndarray
    predicted_class: int
    vote_weights: np.ndarray | None = None

    def aggregate_score(self, query: Query) -> np.ndarray:
        """Mean class support of the sub-ensemble (vote-weighted when given),
        the unweighted one as `sum / n`, the bits of `np.mean`. A whole-pool
        selection, which every scheme lists ascending as `arange(M)`, reads
        the supports in place instead of copying them."""
        n = len(self.selected)
        supports = np.ascontiguousarray(  # a C-ordered sum: bits free of the query's layout
            query.supports if n == query.pool_size else query.supports[self.selected])
        if self.vote_weights is None:
            return supports.sum(axis=0) / n
        w = self.vote_weights.astype(float)
        return (supports * w[:, None]).sum(axis=0) / w.sum()


def _vote(query: Query, selected, weights=None) -> SelectionResult:
    """Plurality vote of the selected classifiers, weighted by `weights` when
    given, ties to the lowest class id. An empty selection votes the whole
    pool, unweighted: every scheme's fallback."""
    if selected.size == 0:
        selected, weights = np.arange(query.pool_size), None
    tally = np.bincount(query.predictions[selected], weights=weights, minlength=query.n_classes)
    return SelectionResult(selected, int(tally.argmax()), weights)


def select_static(query: Query) -> SelectionResult:
    """Plurality vote of the whole pool; ties break to the lowest class id."""
    return _vote(query, np.arange(query.pool_size))


# ---------------------------------------------------------------------------
# DCS schemes
# ---------------------------------------------------------------------------


def select_rank(query: Query) -> SelectionResult:
    """Modified classifier rank: longest streak of correct nearest neighbours."""
    return _vote(query, np.array([query.streak.argmax()]))


def select_lca(query: Query) -> SelectionResult:
    """Local class accuracy over the neighbours sharing the predicted label."""
    return _vote(query, np.array([query.class_accuracy.argmax()]))


def select_mcb(query: Query, t_s: float = 0.7, t_c: float = 0.1) -> SelectionResult:
    """Multiple classifier behaviour.

    Neighbours whose output profiles resemble the query's (similarity above
    t_s) form a refined region; accuracy over it, divided by the original
    region size K, is the competence. A single classifier wins only when it
    beats the runner-up by more than t_c, otherwise the whole pool votes. The
    margin is compared in integers, with t_c read to 9 decimals, so it is
    exact: a margin of 1/10 with K = 10 does not beat t_c = 0.1.
    """
    sims = query.agrees.sum(axis=0) / query.pool_size  # the bits of a bool mean
    hits = query.hits[:, sims > t_s].sum(axis=1)  # competence times K
    best = hits.argmax()
    clear = hits.size == 1 or (int(hits[best] - np.partition(hits, -2)[-2]) * 10**9
                               > round(t_c * 10**9) * query.hits.shape[1])
    return _vote(query, np.array([best] if clear else [], dtype=int))


# ---------------------------------------------------------------------------
# DES schemes
# ---------------------------------------------------------------------------


def select_kne(query: Query) -> SelectionResult:
    """KNORA-Eliminate: local oracles over the largest feasible region.

    Equivalent to shrinking the region one neighbour at a time: the longest
    streak of correct closest neighbours any classifier achieves is the final
    region size, and every classifier reaching it is selected. With no streak
    at all every classifier ties at zero, so the whole pool votes.
    """
    return _vote(query, np.flatnonzero(query.streak == query.streak.max()))


def select_knu(query: Query) -> SelectionResult:
    """KNORA-Union: one vote per correctly recognized neighbour."""
    votes = query.n_correct
    selected = np.flatnonzero(votes > 0)
    return _vote(query, selected, votes[selected].astype(int))  # int weights, a bool sum's


def select_desknn(query: Query, n: int | None = None,
                  j: int | None = None) -> SelectionResult:
    """Accuracy pre-selection of N classifiers, then the J most diverse.

    Unset sizes resolve against the effective pool: N = ceil(0.5 * M),
    J = ceil(0.3 * M), both clamped to valid ranges. Diversity is ranked on
    each candidate's integer both-wrong (double-fault) count over the other
    candidates, so exact ties stay exact (the shared 1/K factor cannot change
    the order): its faults dotted with the per-neighbour fault counts, less
    its own faults (the pair it makes with itself).
    """
    M = query.pool_size
    n = max(1, min(int(np.ceil(0.5 * M)) if n is None else n, M))
    j = max(1, min(int(np.ceil(0.3 * M)) if j is None else j, n))
    # hit counts order identically to accuracies and tie exactly; `~` reverses
    # the order of the unsigned counts, where negation would wrap
    by_accuracy = np.argsort(~query.n_correct, kind="stable")
    candidates = by_accuracy[:n]
    wrong = (~query.hits[candidates]).astype(int)
    div_sum = wrong @ wrong.sum(axis=0) - wrong.sum(axis=1)
    by_diversity = np.lexsort((candidates, div_sum))  # ascending = most diverse
    selected = np.sort(candidates[by_diversity[:j]])
    return _vote(query, selected)


def select_desp(query: Query) -> SelectionResult:
    """Keep classifiers whose local accuracy beats a random guesser (1/L)."""
    competence = query.n_correct / query.hits.shape[1] - 1.0 / query.n_classes
    return _vote(query, np.flatnonzero(competence > 0))


# ---------------------------------------------------------------------------
# DES-RRC
# ---------------------------------------------------------------------------


RRC_REGION_FACTOR = 30
RRC_DRAWS = 1000  # Monte-Carlo draws per distinct support


def _rrc_csrc_matrix(supports, labels, n_classes, draws, seed, threads):
    """Centred RRC win probabilities per (classifier, DSEL sample).

    The reference model of a support is a Dirichlet draw with concentration
    L * support + 1e-3, won by its largest gamma variate. Distinct supports
    are few (one per leaf), so Monte-Carlo runs once per unique support with
    a generator seeded by its content, independent of sample order. The
    rounded rows are deduplicated by one lexicographic sort, and only the
    true-class column of each win row is read, so the table's cost is its
    gamma draws. This thread and up to `threads - 1` more draw them in
    strided shares, each into its own rows of `win`, so the bytes are the
    same at any thread count.
    """
    M, n, L = supports.shape
    flat = np.round(supports.reshape(-1, L), 12)
    order = np.lexsort(flat.T[::-1])
    ordered = flat[order]
    first = np.ones(len(ordered), dtype=bool)  # the first row of each run of equal rows
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(ordered), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    unique = ordered[first]
    shapes = L * unique + 1e-3  # the Dirichlet concentrations
    win = np.empty((unique.shape[0], L))

    def draw(share):  # make_rng and numpy only; the gamma draws release the GIL
        for u, support in zip(share, unique[share]):
            rng = make_rng(seed, "rrc", support.tobytes().hex())
            gammas = rng.standard_gamma(shapes[u], size=(draws, L))
            win[u] = np.bincount(np.argmax(gammas, axis=1), minlength=L) / draws

    width = min(threads, max(len(unique), 1))
    with ThreadPoolExecutor(width) as executor:  # starts one thread per submitted share
        others = executor.map(draw, [range(i, len(unique), width) for i in range(1, width)])
        draw(range(0, len(unique), width))
        list(others)  # raises what a share raised; leaving the block joins every thread
    return win[inverse.reshape(M, n), labels] - 1.0 / n_classes


def select_desrrc(ctx: SelectionContext, query: Query,
                  cfg: SelectorConfig = SelectorConfig()) -> SelectionResult:
    """Gaussian-weighted sum of centred RRC probabilities over the DSEL.

    The sum runs over the `RRC_REGION_FACTOR * K` nearest DSEL samples; farther
    weights exp(-d^2) are negligible on standardized features. Classifiers
    with positive competence are selected, otherwise the whole pool votes.
    The Monte-Carlo draws are seeded by `cfg.seed`.
    """
    dists = query.distances
    limit = RRC_REGION_FACTOR * max(len(query.indices), 1)
    if limit < dists.shape[0]:
        nearest = _nearest(dists, limit)
    else:  # DSEL order, which fixes the summation order of the product below
        nearest = np.arange(dists.shape[0])
    weights = np.exp(-dists[nearest] ** 2)
    competence = ctx.rrc_csrc(cfg.seed)[:, nearest] @ weights
    return _vote(query, np.flatnonzero(competence > 0))


# ---------------------------------------------------------------------------
# META-DES
# ---------------------------------------------------------------------------


def _agreement(profiles, predictions) -> np.ndarray:
    """Output-profile agreement: how many classifiers label each sample as
    they label the query. `profiles` (M, n) against `predictions` (..., M)
    gives (..., n) counts, the compare's bytes summed in the smallest
    unsigned dtype that holds M; count / M is the bool mean, bit for bit."""
    same = profiles == predictions.astype(profiles.dtype, copy=False)[..., None]
    return same.view(np.uint8).sum(axis=-2, dtype=np.min_scalar_type(profiles.shape[0]))


def _meta_features_all(ctx, indices, predictions, supports, kp: int,
                       exclude=None) -> np.ndarray:
    """Meta-features (Q, M, F) of every classifier for a batch of Q points.

    Takes each point's region `indices` (Q, K), the pool's `predictions`
    (Q, M) and `supports` (Q, M, L) for it, and optionally the DSEL row
    `exclude` (Q,) of each point, which is kept out of its profile
    neighbours. Layout per classifier: hit/miss on each region neighbour,
    support assigned to each neighbour's true class, local accuracy, hit/miss
    on the kp DSEL samples with the most similar output profiles, and the
    point's support at the classifier's own label (its largest). `kp` is at
    most the DSEL size.
    """
    hits_roc = ctx.hits[:, indices].transpose(1, 0, 2).astype(float)
    true_support = ctx.supports[:, indices, ctx.dsel.labels[indices]].transpose(1, 0, 2)
    accuracy = hits_roc.mean(axis=2, keepdims=True)
    M = ctx.pool_size  # profiles rank by disagreeing classifiers; an excluded row ranks last
    disagree = np.subtract(M, _agreement(ctx.predictions, predictions),
                           dtype=np.min_scalar_type(M + 1))
    if exclude is not None:
        disagree[np.arange(len(exclude)), exclude] = M + 1
    profile_idx = _nearest(disagree, kp)
    hits_profiles = ctx.hits[:, profile_idx].transpose(1, 0, 2).astype(float)
    # a plain gather: `take_along_axis` and `max` both cost more per decision
    own_support = supports[np.arange(len(predictions))[:, None], np.arange(M), predictions, None]
    return np.concatenate(
        [hits_roc, true_support, accuracy, hits_profiles, own_support], axis=2
    )


class MetaClassifier:
    """Two-class Gaussian naive Bayes over meta-features.

    Predicts the probability that a base classifier will label a query
    correctly. Degenerate single-class training collapses to a constant.
    `train_meta_classifier` records on the model the region size `k` and
    profile size `kp` its features were built with.
    """

    def __init__(self, priors, means, variances, constant: float | None = None):
        self.priors = priors
        self.means = means
        self.variances = variances
        self.constant = constant
        if constant is None:  # the log constants of the likelihood, (2, 1) and (2, 1, F)
            self._log_priors = np.log(priors)[:, None]
            self._log_norm = np.log(2 * np.pi * variances[:, None])

    @classmethod
    def fit(cls, features, labels) -> "MetaClassifier":
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels, dtype=int)
        classes = np.unique(labels)
        if classes.size < 2:
            logger.warning(
                "meta-training collapsed to a single class (%s); constant output",
                classes,
            )
            return cls(None, None, None, constant=float(classes[0]))
        smoothing = 1e-9 * max(features.var(axis=0).max(), 1.0)
        groups = [features[labels == c] for c in (0, 1)]
        priors = np.array([rows.shape[0] for rows in groups]) / features.shape[0]
        means = np.array([rows.mean(axis=0) for rows in groups])  # (2, F)
        variances = np.array([rows.var(axis=0) for rows in groups]) + smoothing
        return cls(priors, means, variances)

    def posterior_competent(self, features) -> np.ndarray:
        """P(correct | meta-features) per row."""
        features = np.atleast_2d(np.asarray(features, dtype=float))
        if self.constant is not None:
            return np.full(features.shape[0], self.constant)
        var = self.variances[:, None]  # (2, 1, F)
        log_like = self._log_priors - 0.5 * np.sum(
            self._log_norm + (features - self.means[:, None]) ** 2 / var, axis=2
        )  # (2, Q)
        probs = np.exp(log_like - log_like.max(axis=0))
        return probs[1] / probs.sum(axis=0)


def train_meta_classifier(ctx: SelectionContext, train, k: int = 7,
                          kp: int = 5) -> MetaClassifier:
    """Fit the competence meta-model on every (training sample, classifier) pair.

    `train` must be the DSEL's leading rows, the `build_dsel` layout: its
    supports are read from the context, and each sample's own row is kept out
    of its region and profile neighbours. The region is clamped to the other
    DSEL rows and the profile to the DSEL; the model records both sizes.
    """
    if k < 1 or kp < 1:
        raise ValueError(f"META-DES sizes must be at least 1, got k={k}, kp={kp}")
    n_train, n = train.n_samples, ctx.dsel.n_samples
    if not (np.array_equal(ctx.dsel.features[:n_train], train.features)
            and np.array_equal(ctx.dsel.labels[:n_train], train.labels)):
        raise ValueError("META-DES trains on the DSEL's leading rows (the build_dsel "
                         "layout); the training set is not a prefix of the DSEL")
    if n < kp:
        logger.warning("DSEL holds %d < kp=%d samples; META-DES profiles use the whole set", n, kp)
        kp = n
    own = np.arange(n_train)
    order = _neighbors(ctx.dsel.features, own, k)
    features = _meta_features_all(ctx, order, ctx.predictions[:, :n_train].T,
                                  ctx.supports[:, :n_train].transpose(1, 0, 2), kp, own)
    hits = ctx.hits[:, :n_train].T.ravel().astype(int)
    meta = MetaClassifier.fit(features.reshape(-1, features.shape[2]), hits)
    meta.k, meta.kp = order.shape[1], kp
    return meta


META_THRESHOLD = 0.5  # a classifier is selected when P(correct) exceeds this


def select_metades(ctx: SelectionContext, query: Query) -> SelectionResult:
    """Select classifiers the meta-model deems competent for this query, from
    the meta-features of its first `ctx.meta.k` neighbours and `ctx.meta.kp`
    output-profile neighbours, the sizes the model was trained with."""
    meta = ctx.meta
    if meta is None:
        raise RuntimeError(
            "META-DES needs a trained meta-classifier; call train_meta_classifier "
            "and assign it to ctx.meta"
        )
    if len(query.indices) < meta.k:
        raise ValueError(f"META-DES was trained with k={meta.k}; the query has "
                         f"{len(query.indices)} neighbours")
    features = _meta_features_all(ctx, query.indices[None, :meta.k], query.predictions[None],
                                  query.supports[None], meta.kp)[0]
    return _vote(query, np.flatnonzero(meta.posterior_competent(features) > META_THRESHOLD))


# ---------------------------------------------------------------------------
# FIRE wrapper
# ---------------------------------------------------------------------------


def dfp_prune(query: Query) -> np.ndarray:
    """Dynamic frienemy pruning: the classifiers that recognize the border,
    by `_region_stats`'s survivor rule on a batch of the query alone."""
    return np.flatnonzero(replace(query, **dict.fromkeys(STAT_FIELDS)).dfp_mask)


def select_fire(base, query: Query) -> SelectionResult:
    """Run the scheme `base(query)` on the pool pruned by the query's DFP
    mask; the chosen indices map back to the whole pool."""
    if query.dfp_mask.all():
        return base(query)
    survivors = np.flatnonzero(query.dfp_mask)
    local = base(query.rows(survivors))
    return SelectionResult(survivors[local.selected], local.predicted_class, local.vote_weights)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def _on_region(scheme):
    """`scheme(query)` as a table entry `fn(ctx, query, cfg)`."""
    return lambda ctx, query, cfg: scheme(query)


SELECTORS = {
    "STATIC": _on_region(select_static),
    "RANK": _on_region(select_rank),
    "LCA": _on_region(select_lca),
    "MCB": _on_region(select_mcb),
    "KNE": _on_region(select_kne),
    "KNU": _on_region(select_knu),
    "DES-KNN": _on_region(select_desknn),
    "DESP": _on_region(select_desp),
    "DES-RRC": select_desrrc,
    "META-DES": lambda ctx, query, cfg: select_metades(ctx, query),
    "F-LCA": _on_region(partial(select_fire, select_lca)),
    "F-MCB": _on_region(partial(select_fire, select_mcb)),
    "F-KNE": _on_region(partial(select_fire, select_kne)),
    "F-KNU": _on_region(partial(select_fire, select_knu)),
    "F-DES-KNN": _on_region(partial(select_fire, select_desknn)),
}

SELECTOR_NAMES = tuple(SELECTORS)

normalize_selector = _catalogue_lookup(SELECTOR_NAMES, "selector")


def run_selector(name: str, ctx: SelectionContext, query: Query,
                 cfg: SelectorConfig = SelectorConfig()) -> SelectionResult:
    """Dispatch a canonical selector name on a prepared query."""
    return SELECTORS[normalize_selector(name)](ctx, query, cfg)
