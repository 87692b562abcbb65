"""Competence regions and the dynamic classifier/ensemble selection schemes.

A `SelectionContext` holds the pool's behaviour over the DSEL, computed once.
Each test point becomes a `Query` (its distances to the DSEL, its region of
competence and the pool's outputs for it), and `SelectionContext.view`
gathers the pool's behaviour on the query's neighbours into a `RegionView`,
the input of every scheme that judges competence on the region alone.
Determinism rules used throughout: competence ties break to the lowest
classifier index, vote ties to the lowest class id, distance ties to the
lowest DSEL index.
"""

import logging
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy.spatial.distance import cdist

from .data import Dataset
from .pool import Pool
from .rng import make_rng

logger = logging.getLogger(__name__)


def normalize_selector(name: str) -> str:
    try:
        return _CANONICAL[name.strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown selector {name!r}; choose from {SELECTOR_NAMES}"
        ) from None


@dataclass(frozen=True)
class SelectorConfig:
    """Run-level settings of the selection schemes.

    `k` is the region size callers build queries and the META-DES training set
    with; the schemes themselves read the region from the query. `meta_kp` is
    the number of META-DES output-profile neighbours and `seed` seeds DES-RRC.
    """

    k: int = 7
    meta_kp: int = 5
    seed: int = 0


# ---------------------------------------------------------------------------
# Regions, queries, shared context
# ---------------------------------------------------------------------------


def _nearest(dists, k: int) -> np.ndarray:
    """Columns of the k smallest distances of each row, closest first.

    Distance ties go to the lower column; a k beyond the number of columns
    takes them all, with a warning.
    """
    n = dists.shape[-1]
    if n < k:
        logger.warning("DSEL holds %d < k=%d samples; using the whole set", n, k)
    return np.argsort(dists, axis=-1, kind="stable")[..., :k]


@dataclass(frozen=True)
class Query:
    """One test point: its region of competence (the K nearest DSEL rows by
    Euclidean distance, closest first), its distance to every DSEL row, and
    every classifier's output for it."""

    indices: np.ndarray  # (K,) DSEL rows
    distances: np.ndarray  # (n,) Euclidean distance to each DSEL row
    predictions: np.ndarray  # (M,) class ids
    supports: np.ndarray  # (M, L)


@dataclass(frozen=True)
class RegionView:
    """The pool's behaviour on one query's K nearest DSEL neighbours.

    `hits[i, j]` tells whether classifier i labels neighbour j correctly and
    `profiles[i, j]` is that label; `labels` are the neighbours' true classes
    and `predictions` the classifiers' labels for the query itself.
    """

    hits: np.ndarray  # (M, K) bool
    profiles: np.ndarray  # (M, K) class ids
    labels: np.ndarray  # (K,) class ids
    predictions: np.ndarray  # (M,) class ids
    n_classes: int

    @property
    def pool_size(self) -> int:
        return self.hits.shape[0]

    def rows(self, keep) -> "RegionView":
        """The same region as seen by the classifiers `keep` alone."""
        return replace(self, hits=self.hits[keep], profiles=self.profiles[keep],
                       predictions=self.predictions[keep])


class SelectionContext:
    """Pool behaviour over a DSEL, precomputed once and queried per point."""

    def __init__(self, pool: Pool, dsel: Dataset):
        self.pool = pool
        self.dsel = dsel
        self.n_classes = pool.n_classes
        self.supports = pool.support_all(dsel.features)  # (M, n, L)
        self.predictions = self.supports.argmax(axis=2)  # (M, n)
        self.hits = self.predictions == dsel.labels[None, :]
        self.meta = None
        self._rrc = (None, None)  # (draws, seed) of the last RRC table, the table

    @property
    def pool_size(self) -> int:
        return self.predictions.shape[0]

    def make_query(self, x_q, k: int = 7) -> Query:
        return self.make_queries(np.asarray(x_q, dtype=float)[None, :], k)[0]

    def make_queries(self, X, k: int = 7) -> list:
        """Queries for a whole test matrix with one pass of the pool over it."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        dists = cdist(X, self.dsel.features)
        order = _nearest(dists, k)
        supports = self.pool.support_all(X)
        predictions = supports.argmax(axis=2)
        return [
            Query(indices=order[q], distances=dists[q],
                  predictions=predictions[:, q], supports=supports[:, q, :])
            for q in range(X.shape[0])
        ]

    def view(self, query: Query) -> RegionView:
        """The pool's behaviour on the query's region of competence."""
        idx = query.indices
        return RegionView(
            hits=self.hits[:, idx],
            profiles=self.predictions[:, idx],
            labels=self.dsel.labels[idx],
            predictions=query.predictions,
            n_classes=self.n_classes,
        )

    def rrc_csrc(self, draws: int = 1000, seed: int = 0) -> np.ndarray:
        """Centered correct-classification probability of the randomized
        reference model for every (classifier, DSEL sample) pair.

        Only the table of the last (draws, seed) is kept: a run uses one seed
        per context, and a table per seed would grow with every new seed.
        """
        key = (draws, seed)
        if self._rrc[0] != key:
            self._rrc = (key, _rrc_csrc_matrix(
                self.supports, self.dsel.labels, self.n_classes, draws, seed
            ))
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
        """Mean class support of the sub-ensemble (vote-weighted when given)."""
        supports = query.supports[self.selected]
        if self.vote_weights is None:
            return supports.mean(axis=0)
        w = self.vote_weights.astype(float)
        return (supports * w[:, None]).sum(axis=0) / w.sum()


def majority_vote(predictions, n_classes: int) -> int:
    """Plurality class id; ties break to the lowest id."""
    return int(np.argmax(np.bincount(predictions, minlength=n_classes)))


def _vote(selected, predictions, n_classes: int) -> SelectionResult:
    """Plurality vote of the selected classifiers; an empty selection falls
    back to the whole pool."""
    if selected.size == 0:
        selected = np.arange(predictions.shape[0])
    return SelectionResult(
        selected=selected,
        predicted_class=majority_vote(predictions[selected], n_classes),
    )


def _singleton(index: int, predictions) -> SelectionResult:
    return SelectionResult(
        selected=np.array([index]),
        predicted_class=int(predictions[index]),
    )


def select_static(view: RegionView) -> SelectionResult:
    """Plurality vote of the whole pool; ties break to the lowest class id."""
    return _vote(np.arange(view.pool_size), view.predictions, view.n_classes)


# ---------------------------------------------------------------------------
# Output profiles
# ---------------------------------------------------------------------------


def _agreement(profiles, predictions) -> np.ndarray:
    """Output-profile similarity: the fraction of classifiers whose label for
    each sample equals their label for the query. `profiles` (M, n) against
    `predictions` (..., M) gives (..., n)."""
    return (profiles == predictions[..., None]).mean(axis=-2)


# ---------------------------------------------------------------------------
# DCS schemes
# ---------------------------------------------------------------------------


def _consecutive_hits(hits) -> np.ndarray:
    """Length of each classifier's initial run of correct neighbours."""
    padded = np.concatenate([hits, np.zeros((hits.shape[0], 1), dtype=bool)], axis=1)
    return np.argmax(~padded, axis=1)


def select_rank(view: RegionView) -> SelectionResult:
    """Modified classifier rank: longest streak of correct nearest neighbours."""
    runs = _consecutive_hits(view.hits)
    return _singleton(int(np.argmax(runs)), view.predictions)


def select_lca(view: RegionView) -> SelectionResult:
    """Local class accuracy over the neighbours sharing the predicted label."""
    same = view.labels[None, :] == view.predictions[:, None]  # (M, K)
    n_same = same.sum(axis=1)
    competence = np.divide(
        (view.hits & same).sum(axis=1), n_same,
        out=np.zeros(view.pool_size), where=n_same > 0,
    )
    return _singleton(int(np.argmax(competence)), view.predictions)


def select_mcb(view: RegionView, t_s: float = 0.7, t_c: float = 0.1) -> SelectionResult:
    """Multiple classifier behaviour.

    Neighbours whose output profiles resemble the query's (similarity above
    t_s) form a refined region; accuracy over it, divided by the original
    region size, is the competence. A single classifier wins only when it
    beats the runner-up by more than t_c, otherwise the whole pool votes.
    """
    sims = _agreement(view.profiles, view.predictions)
    competence = view.hits[:, sims > t_s].sum(axis=1) / view.hits.shape[1]
    best = int(np.argmax(competence))
    others = np.delete(competence, best)
    if others.size == 0 or competence[best] - others.max() > t_c:
        return _singleton(best, view.predictions)
    return select_static(view)


# ---------------------------------------------------------------------------
# DES schemes
# ---------------------------------------------------------------------------


def select_kne(view: RegionView) -> SelectionResult:
    """KNORA-Eliminate: local oracles over the largest feasible region.

    Equivalent to shrinking the region one neighbour at a time: the longest
    streak of correct closest neighbours any classifier achieves is the final
    region size, and every classifier reaching it is selected. With no streak
    at all every classifier ties at zero, so the whole pool votes.
    """
    runs = _consecutive_hits(view.hits)
    return _vote(np.flatnonzero(runs == runs.max()), view.predictions, view.n_classes)


def select_knu(view: RegionView) -> SelectionResult:
    """KNORA-Union: one vote per correctly recognized neighbour."""
    votes = view.hits.sum(axis=1)
    selected = np.flatnonzero(votes > 0)
    if selected.size == 0:
        return select_static(view)
    weights = votes[selected]
    tally = np.bincount(
        view.predictions[selected], weights=weights, minlength=view.n_classes
    )
    return SelectionResult(
        selected=selected,
        predicted_class=int(np.argmax(tally)),
        vote_weights=weights,
    )


def select_desknn(view: RegionView, n: int | None = None,
                  j: int | None = None) -> SelectionResult:
    """Accuracy pre-selection of N classifiers, then the J most diverse.

    Unset sizes resolve against the effective pool: N = ceil(0.5 * M),
    J = ceil(0.3 * M), both clamped to valid ranges. Diversity is ranked on
    integer both-wrong (double-fault) counts (the shared 1/K factor cannot
    change the order) so exact ties stay exact.
    """
    M = view.pool_size
    n = max(1, min(int(np.ceil(0.5 * M)) if n is None else n, M))
    j = max(1, min(int(np.ceil(0.3 * M)) if j is None else j, n))
    # hit counts order identically to accuracies and tie exactly
    by_accuracy = np.lexsort((np.arange(M), -view.hits.sum(axis=1)))
    candidates = by_accuracy[:n]
    wrong = (~view.hits[candidates]).astype(int)
    pair_faults = wrong @ wrong.T
    div_sum = pair_faults.sum(axis=1) - np.diag(pair_faults)
    by_diversity = np.lexsort((candidates, div_sum))  # ascending = most diverse
    selected = np.sort(candidates[by_diversity[:j]])
    return _vote(selected, view.predictions, view.n_classes)


def select_desp(view: RegionView) -> SelectionResult:
    """Keep classifiers whose local accuracy beats a random guesser (1/L)."""
    competence = view.hits.mean(axis=1) - 1.0 / view.n_classes
    return _vote(np.flatnonzero(competence > 0), view.predictions, view.n_classes)


# ---------------------------------------------------------------------------
# DES-RRC
# ---------------------------------------------------------------------------


RRC_REGION_FACTOR = 30


def _rrc_csrc_matrix(supports, labels, n_classes, draws, seed):
    """Centred RRC win probabilities per (classifier, DSEL sample).

    The reference model of a support is a Dirichlet draw with concentration
    L * support + 1e-3, won by its largest gamma variate. Distinct supports
    are few (one per leaf), so Monte-Carlo runs once per unique support with
    a generator seeded by its content, independent of sample order.
    """
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


def select_desrrc(ctx: SelectionContext, query: Query, cfg: SelectorConfig = SelectorConfig(),
                  draws: int = 1000) -> SelectionResult:
    """Gaussian-weighted sum of centred RRC probabilities over the DSEL.

    The sum runs over the `RRC_REGION_FACTOR * K` nearest DSEL samples; farther
    weights exp(-d^2) are negligible on standardized features. Classifiers
    with positive competence are selected, otherwise the whole pool votes.
    The Monte-Carlo draws are seeded by `cfg.seed`.
    """
    csrc = ctx.rrc_csrc(draws=draws, seed=cfg.seed)
    dists = query.distances
    limit = RRC_REGION_FACTOR * max(len(query.indices), 1)
    if limit < dists.shape[0]:
        nearest = _nearest(dists, limit)
    else:  # DSEL order, which fixes the summation order of the product below
        nearest = np.arange(dists.shape[0])
    weights = np.exp(-dists[nearest] ** 2)
    competence = csrc[:, nearest] @ weights
    return _vote(np.flatnonzero(competence > 0), query.predictions, ctx.n_classes)


# ---------------------------------------------------------------------------
# META-DES
# ---------------------------------------------------------------------------


def _meta_features_all(ctx, indices, predictions, supports, kp: int,
                       exclude=None) -> np.ndarray:
    """Meta-features (Q, M, F) of every classifier for a batch of Q points.

    Takes each point's region `indices` (Q, K), the pool's `predictions`
    (Q, M) and `supports` (Q, M, L) for it, and optionally the DSEL row
    `exclude` (Q,) of each point, which is kept out of its profile
    neighbours. Layout per classifier: hit/miss on each region neighbour,
    support assigned to each neighbour's true class, local accuracy, hit/miss
    on the kp DSEL samples with the most similar output profiles, and the
    maximum support for the point itself.
    """
    hits_roc = ctx.hits[:, indices].transpose(1, 0, 2).astype(float)
    true_support = ctx.supports[:, indices, ctx.dsel.labels[indices]].transpose(1, 0, 2)
    accuracy = hits_roc.mean(axis=2, keepdims=True)
    sims = _agreement(ctx.predictions, predictions)  # (Q, n)
    if exclude is not None:
        sims[np.arange(len(exclude)), exclude] = -1.0
    profile_idx = np.argsort(-sims, axis=1, kind="stable")[:, :kp]
    hits_profiles = ctx.hits[:, profile_idx].transpose(1, 0, 2).astype(float)
    max_support = supports.max(axis=2, keepdims=True)
    return np.concatenate(
        [hits_roc, true_support, accuracy, hits_profiles, max_support], axis=2
    )


class MetaClassifier:
    """Two-class Gaussian naive Bayes over meta-features.

    Predicts the probability that a base classifier will label a query
    correctly. Degenerate single-class training collapses to a constant.
    """

    def __init__(self, priors, means, variances, constant: float | None = None):
        self.priors = priors
        self.means = means
        self.variances = variances
        self.constant = constant

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
        priors = np.empty(2)
        means = np.empty((2, features.shape[1]))
        variances = np.empty((2, features.shape[1]))
        for c in (0, 1):
            rows = features[labels == c]
            priors[c] = rows.shape[0] / features.shape[0]
            means[c] = rows.mean(axis=0)
            variances[c] = rows.var(axis=0) + smoothing
        return cls(priors, means, variances)

    def posterior_competent(self, features) -> np.ndarray:
        """P(correct | meta-features) per row."""
        features = np.atleast_2d(np.asarray(features, dtype=float))
        if self.constant is not None:
            return np.full(features.shape[0], self.constant)
        log_like = np.empty((features.shape[0], 2))
        for c in (0, 1):
            log_like[:, c] = np.log(self.priors[c]) - 0.5 * np.sum(
                np.log(2 * np.pi * self.variances[c])
                + (features - self.means[c]) ** 2 / self.variances[c],
                axis=1,
            )
        shifted = log_like - log_like.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        return probs[:, 1] / probs.sum(axis=1)


def train_meta_classifier(ctx: SelectionContext, train, k: int = 7,
                          kp: int = 5) -> MetaClassifier:
    """Fit the competence meta-model on every (training sample, classifier) pair.

    Training samples are located inside the DSEL by prefix alignment (the
    standard `build_dsel` layout) so each sample's own row is excluded from
    its region and profile neighbours.
    """
    n_train = train.features.shape[0]
    aligned = ctx.dsel.n_samples >= n_train and np.array_equal(
        ctx.dsel.features[:n_train], train.features
    )
    dists = cdist(train.features, ctx.dsel.features)
    own = np.arange(n_train)
    if aligned:
        supports = ctx.supports[:, :n_train]
        predictions = ctx.predictions[:, :n_train]
        hits = ctx.hits[:, :n_train]
        dists[own, own] = np.inf
    else:
        logger.warning("training set is not a prefix of DSEL; no self-exclusion")
        supports = ctx.pool.support_all(train.features)
        predictions = supports.argmax(axis=2)
        hits = predictions == train.labels[None, :]
    order = _nearest(dists, min(k, ctx.dsel.n_samples - aligned))
    features = _meta_features_all(
        ctx, order, predictions.T, supports.transpose(1, 0, 2), kp,
        exclude=own if aligned else None,
    )
    return MetaClassifier.fit(
        features.reshape(-1, features.shape[2]), hits.T.ravel().astype(int)
    )


def select_metades(ctx: SelectionContext, query: Query, cfg: SelectorConfig = SelectorConfig(),
                   threshold: float = 0.5) -> SelectionResult:
    """Select classifiers the meta-model deems competent for this query,
    with `cfg.meta_kp` output-profile neighbours in the meta-features."""
    if ctx.meta is None:
        raise RuntimeError(
            "META-DES needs a trained meta-classifier; call train_meta_classifier "
            "and assign it to ctx.meta"
        )
    features = _meta_features_all(
        ctx, query.indices[None], query.predictions[None], query.supports[None],
        cfg.meta_kp,
    )[0]
    competence = ctx.meta.posterior_competent(features)
    return _vote(np.flatnonzero(competence > threshold), query.predictions, ctx.n_classes)


# ---------------------------------------------------------------------------
# FIRE wrapper
# ---------------------------------------------------------------------------


def dfp_prune(view: RegionView) -> np.ndarray:
    """Dynamic frienemy pruning: keep classifiers that recognize the border.

    A classifier survives when its correctly labelled region samples span at
    least two classes (equivalently, it labels both members of some frienemy
    pair correctly). Single-class regions and empty survivor sets keep the
    whole pool.
    """
    everyone = np.arange(view.pool_size)
    classes, member = np.unique(view.labels, return_inverse=True)
    if classes.size < 2:
        return everyone
    # (M, C): does the classifier label some neighbour of class c correctly
    hit_classes = view.hits @ (member[:, None] == np.arange(classes.size))
    survivors = np.flatnonzero(hit_classes.sum(axis=1) >= 2)
    return survivors if survivors.size else everyone


def select_fire(base, view: RegionView) -> SelectionResult:
    """Run the scheme `base(view)` on the DFP-pruned pool; the chosen indices
    map back to the whole pool."""
    survivors = dfp_prune(view)
    if survivors.size == view.pool_size:
        return base(view)
    local = base(view.rows(survivors))
    return replace(local, selected=survivors[local.selected])


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def _on_region(scheme):
    """`scheme(view)` as a table entry `fn(ctx, query, cfg)`."""
    def run(ctx, query, cfg):
        return scheme(ctx.view(query))
    return run


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
    "META-DES": select_metades,
    "F-LCA": _on_region(partial(select_fire, select_lca)),
    "F-MCB": _on_region(partial(select_fire, select_mcb)),
    "F-KNE": _on_region(partial(select_fire, select_kne)),
    "F-KNU": _on_region(partial(select_fire, select_knu)),
    "F-DES-KNN": _on_region(partial(select_fire, select_desknn)),
}

SELECTOR_NAMES = tuple(SELECTORS)

_CANONICAL = {n.lower(): n for n in SELECTOR_NAMES}


def run_selector(name: str, ctx: SelectionContext, query: Query,
                 cfg: SelectorConfig = SelectorConfig()) -> SelectionResult:
    """Dispatch a canonical selector name on a prepared query."""
    return SELECTORS[normalize_selector(name)](ctx, query, cfg)
