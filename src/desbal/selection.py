"""Competence regions and the dynamic classifier/ensemble selection schemes.

A `SelectionContext` holds the pool's behaviour over the DSEL, computed once.
Each test point becomes a `Query`, a row of its `QueryBatch`: the pool's
outputs for it, its region of competence with the pool's behaviour on it and
its statistics, and DES-RRC's window, gathered once per batch of queries.
Every scheme reads the query; the five FIRE wraps also take candidates `keep`,
and read only their rows. META-DES alone reads the query's whole batch.
Determinism rules used throughout: competence ties break to the lowest
classifier index, vote ties to the lowest class id, distance ties to the
lowest DSEL index.
"""

import logging
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, make_dataclass
from functools import partial

import numpy as np

from .cpus import usable_cpus
from .data import Dataset, _catalogue_lookup, _distances, _nearest, _neighbors
from .pool import Pool
from .rng import make_rng

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SelectorConfig:
    """Run-level settings of the selection schemes, whose defaults live here
    and in `RunConfig` only: `k`, the region size of the queries and of
    META-DES training (the schemes read the region from the query);
    `meta_kp`, the kp META-DES trains with; and `seed`, DES-RRC's."""

    k: int = 7
    meta_kp: int = 5
    seed: int = 0


# ---------------------------------------------------------------------------
# Regions, queries, shared context
# ---------------------------------------------------------------------------


# the (Q, ...) arrays `make_queries` derives for Q points, which its queries are
# rows of: (Q, K) DSEL rows, (Q, M) class ids, (Q, M, L) supports, (Q, M, K) bool
# hits/agrees, the four (Q, M) `_region_stats`, and DES-RRC's window, (Q, m) DSEL
# rows with their (Q, m) distances
QueryBatch = namedtuple("QueryBatch", "indices predictions supports hits agrees n_correct "
                        "streak class_accuracy dfp_mask rrc_rows rrc_distances")

Query = make_dataclass("Query", [*QueryBatch._fields, "batch", "row"], frozen=True, namespace={
    "__module__": __name__,
    "__doc__": """One test point: row `row` of each array of its `batch`, under the
    array's name, each field a view of that row. Its region of competence is
    the K nearest DSEL rows by Euclidean distance, closest first. `hits[i, j]`
    tells whether classifier i labels neighbour j correctly and `agrees[i, j]`
    whether it gives neighbour j the label it gives the query.""",
    "pool_size": property(lambda self: self.predictions.shape[0]),
    "n_classes": property(lambda self: self.supports.shape[1]),
})


def _queries(batch: QueryBatch) -> list:
    """The queries of a batch, one per row: the only place a `Query` is built."""
    return [Query(*fields, batch, row) for row, fields in enumerate(zip(*batch))]


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
    `threads` draw the DES-RRC table: by default one per usable CPU. The pool
    and the DSEL must know the same classes."""

    def __init__(self, pool: Pool, dsel: Dataset, threads: int | None = None):
        if pool.n_classes != dsel.n_classes:
            raise ValueError(f"the pool knows {pool.n_classes} classes and the DSEL "
                             f"{dsel.n_classes}; they must be the same")
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
        self._meta_mask = (None, None, None)  # the last batch, its model, its mask

    @property
    def pool_size(self) -> int:
        return self.predictions.shape[0]

    def make_queries(self, X, k: int) -> list:
        """Queries for a test matrix, or one 1-D point, with one pass of the
        pool over it and one gather of the pool's behaviour on every region,
        laid out query-major: each query's fields are contiguous rows of
        C-ordered (Q, M, L) supports, (Q, M) predictions and (Q, M, K)
        hits/agrees, with every region's statistics from one `_region_stats` call.
        The one neighbour sort also gives DES-RRC's window: the m =
        `RRC_REGION_FACTOR * min(k, n)` nearest DSEL rows, whose first K are
        the region, or every DSEL row in DSEL order when m reaches n."""
        if k < 1:
            raise ValueError(f"region size k must be at least 1, got k={k}")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        dists = _distances(X, self.dsel.features)  # (Q, n)
        Q, n = dists.shape
        m = RRC_REGION_FACTOR * min(k, n)
        if m < n:
            window = _nearest(dists, m)  # (Q, m)
            order, near = window[:, :k], np.take_along_axis(dists, window, axis=1)
        else:  # DSEL order, which fixes the summation order of DES-RRC's product
            order, window, near = _nearest(dists, k), np.broadcast_to(np.arange(n), (Q, n)), dists
        supports = self.pool.support_all(X, axis=1)  # (Q, M, L)
        predictions = supports.argmax(axis=2)
        by_neighbour = np.ascontiguousarray(self.hits.T)[order.T]  # (K, Q, M)
        hits = by_neighbour.transpose(1, 2, 0).copy()  # (Q, M, K)
        agrees = (self.predictions[:, order] == predictions.T[:, :, None]).swapaxes(0, 1).copy()
        stats = _region_stats(by_neighbour, self.dsel.labels[order], predictions, self.n_classes)
        return _queries(QueryBatch(order, predictions, supports, hits, agrees, *stats,
                                   window, near))

    def rrc_csrc(self, seed: int) -> np.ndarray:
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

    def meta_competent(self, batch: QueryBatch) -> np.ndarray:
        """META-DES's (Q, M) selection mask of a batch under `self.meta`, built
        in `_row_blocks`. Like `rrc_csrc`, it keeps only the last mask: a new
        batch or a new model (by identity) replaces it."""
        last, meta, mask = self._meta_mask
        if last is not batch or meta is not self.meta:
            meta = self.meta
            mask = np.empty(batch.predictions.shape, dtype=bool)
            for rows in _row_blocks(*mask.shape, self.dsel.n_samples):
                features = _meta_features_all(self, batch.indices[rows, :meta.k],
                                              batch.predictions[rows], batch.supports[rows],
                                              meta.kp)
                mask[rows] = (meta.posterior_competent(features.reshape(-1, features.shape[2]))
                              > META_THRESHOLD).reshape(-1, mask.shape[1])
            self._meta_mask = batch, meta, mask
        return mask


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


def _rows(a, keep):
    """The candidates' rows of a per-classifier array: `a[keep]`, or `a` itself
    when `keep` is None, the whole pool."""
    return a if keep is None else a[keep]


def _vote(query: Query, selected, weights=None, keep=None) -> SelectionResult:
    """Plurality vote of the selected classifiers, weighted by `weights` when
    given, ties to the lowest class id. `selected` indexes the candidates
    `keep`, ascending pool indices (the whole pool when None). An empty
    selection votes every candidate, unweighted: every scheme's fallback."""
    if selected.size == 0:
        selected, weights = np.arange(query.pool_size) if keep is None else keep, None
    elif keep is not None:
        selected = keep[selected]
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


def select_lca(query: Query, keep=None) -> SelectionResult:
    """Local class accuracy over the neighbours sharing the predicted label."""
    return _vote(query, np.array([_rows(query.class_accuracy, keep).argmax()]), keep=keep)


def select_mcb(query: Query, t_s: float = 0.7, t_c: float = 0.1, keep=None) -> SelectionResult:
    """Multiple classifier behaviour.

    Neighbours whose output profiles resemble the query's (similarity above
    t_s) form a refined region; accuracy over it, divided by the original
    region size K, is the competence. A single classifier wins only when it
    beats the runner-up by more than t_c, otherwise every candidate votes. The
    margin is compared in integers, with t_c read to 9 decimals, so it is
    exact: a margin of 1/10 with K = 10 does not beat t_c = 0.1.
    """
    agrees = _rows(query.agrees, keep)
    sims = agrees.sum(axis=0) / len(agrees)  # the bits of a bool mean over the candidates
    hits = _rows(query.hits, keep)[:, sims > t_s].sum(axis=1)  # competence times K
    best = hits.argmax()
    clear = hits.size == 1 or (int(hits[best] - np.partition(hits, -2)[-2]) * 10**9
                               > round(t_c * 10**9) * query.hits.shape[1])
    return _vote(query, np.array([best] if clear else [], dtype=int), keep=keep)


# ---------------------------------------------------------------------------
# DES schemes
# ---------------------------------------------------------------------------


def select_kne(query: Query, keep=None) -> SelectionResult:
    """KNORA-Eliminate: local oracles over the largest feasible region.

    Equivalent to shrinking the region one neighbour at a time: the longest
    streak of correct closest neighbours any classifier achieves is the final
    region size, and every classifier reaching it is selected. With no streak
    at all every candidate ties at zero, so every candidate votes.
    """
    streak = _rows(query.streak, keep)
    return _vote(query, (streak == streak.max()).nonzero()[0], keep=keep)


def select_knu(query: Query, keep=None) -> SelectionResult:
    """KNORA-Union: one vote per correctly recognized neighbour."""
    votes = _rows(query.n_correct, keep)
    selected = (votes > 0).nonzero()[0]
    return _vote(query, selected, votes[selected].astype(int), keep)  # int weights, a bool sum's


def select_desknn(query: Query, n: int | None = None,
                  j: int | None = None, keep=None) -> SelectionResult:
    """Accuracy pre-selection of N classifiers, then the J most diverse.

    Unset sizes resolve against the M candidates: N = ceil(0.5 * M),
    J = ceil(0.3 * M), both clamped to valid ranges. Diversity is ranked on
    each pre-selected classifier's integer both-wrong (double-fault) count over
    the other N - 1, so exact ties stay exact (the shared 1/K factor cannot change
    the order): its faults dotted with the per-neighbour fault counts, less
    its own faults (the pair it makes with itself).
    """
    n_correct = _rows(query.n_correct, keep)
    M = len(n_correct)
    n = max(1, min(int(np.ceil(0.5 * M)) if n is None else n, M))
    j = max(1, min(int(np.ceil(0.3 * M)) if j is None else j, n))
    # hit counts order identically to accuracies and tie exactly; `~` reverses
    # the order of the unsigned counts, where negation would wrap
    accurate = np.argsort(~n_correct, kind="stable")[:n]
    wrong = (~query.hits[accurate if keep is None else keep[accurate]]).astype(int)
    div_sum = wrong @ wrong.sum(axis=0) - wrong.sum(axis=1)
    by_diversity = np.lexsort((accurate, div_sum))  # ascending = most diverse
    selected = np.sort(accurate[by_diversity[:j]])
    return _vote(query, selected, keep=keep)


def select_desp(query: Query) -> SelectionResult:
    """Keep classifiers whose local accuracy beats a random guesser (1/L)."""
    competence = query.n_correct / query.hits.shape[1] - 1.0 / query.n_classes
    return _vote(query, (competence > 0).nonzero()[0])


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


def select_desrrc(ctx: SelectionContext, query: Query, cfg: SelectorConfig) -> SelectionResult:
    """Gaussian-weighted sum of centred RRC probabilities over the DSEL.

    The sum runs over the query's window (`make_queries`): the
    `RRC_REGION_FACTOR * K` nearest DSEL samples, or the whole DSEL when it
    is no larger. Farther weights exp(-d^2) are negligible on standardized
    features. Classifiers with positive competence are selected, otherwise
    the whole pool votes. The Monte-Carlo draws are seeded by `cfg.seed`.
    """
    weights = np.exp(-query.rrc_distances ** 2)
    competence = ctx.rrc_csrc(cfg.seed)[:, query.rrc_rows] @ weights
    return _vote(query, (competence > 0).nonzero()[0])


# ---------------------------------------------------------------------------
# META-DES
# ---------------------------------------------------------------------------


_BLOCK_BYTES = 1 << 21  # the largest (rows, M, n) profile compare held at once


def _row_blocks(Q: int, M: int, n: int) -> list:
    """Q rows in slices of one row or more, as many as keep (rows, M, n) in `_BLOCK_BYTES`."""
    step = max(1, _BLOCK_BYTES // max(M * n, 1))
    return [slice(r, r + step) for r in range(0, Q, step)]


def _agreement(profiles, predictions) -> np.ndarray:
    """Output-profile agreement: how many classifiers label each sample as
    they label the query. `profiles` (M, n) against `predictions` (..., M)
    gives (..., n) counts, the compare's bytes summed in the smallest
    unsigned dtype that holds M; count / M is the bool mean, bit for bit.
    The compare runs in `_row_blocks`."""
    M, n = profiles.shape
    rows = predictions.astype(profiles.dtype, copy=False).reshape(-1, M)
    counts = np.empty((len(rows), n), dtype=np.min_scalar_type(M))
    for block in _row_blocks(len(rows), M, n):
        same = profiles == rows[block, :, None]
        same.view(np.uint8).sum(axis=1, dtype=counts.dtype, out=counts[block])
    return counts.reshape(*predictions.shape[:-1], n)


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
        """P(correct | meta-features) per row of (Q, F) float features."""
        if self.constant is not None:
            return np.full(features.shape[0], self.constant)
        terms = features - self.means[:, None]  # (2, Q, F), in place from here
        terms **= 2
        terms /= self.variances[:, None]
        terms += self._log_norm
        log_like = self._log_priors - 0.5 * terms.sum(axis=2)  # (2, Q)
        probs = np.exp(log_like - log_like.max(axis=0))
        return probs[1] / probs.sum(axis=0)


def train_meta_classifier(ctx: SelectionContext, train, k: int, kp: int) -> MetaClassifier:
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
    output-profile neighbours, the sizes the model was trained with. The
    first decision of a batch decides the whole batch (`meta_competent`)."""
    meta = ctx.meta
    if meta is None:
        raise RuntimeError(
            "META-DES needs a trained meta-classifier; call train_meta_classifier "
            "and assign it to ctx.meta"
        )
    if len(query.indices) < meta.k:
        raise ValueError(f"META-DES was trained with k={meta.k}; the query has "
                         f"{len(query.indices)} neighbours")
    return _vote(query, ctx.meta_competent(query.batch)[query.row].nonzero()[0])


# ---------------------------------------------------------------------------
# FIRE wrapper
# ---------------------------------------------------------------------------


def select_fire(base, query: Query) -> SelectionResult:
    """Run the scheme `base` on the classifiers that survive dynamic frienemy
    pruning, `query.dfp_mask`, as its candidates `keep`."""
    mask = query.dfp_mask
    return base(query) if mask.all() else base(query, keep=mask.nonzero()[0])


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
                 cfg: SelectorConfig) -> SelectionResult:
    """Dispatch a canonical selector name on a prepared query."""
    return SELECTORS[normalize_selector(name)](ctx, query, cfg)
