"""Nonparametric comparison machinery: average ranks, the Finner step-down
procedure against the best-ranked method, and the exact-binomial sign test."""

from dataclasses import dataclass

import numpy as np
from scipy.stats import binom, norm, rankdata


def average_ranks(scores) -> np.ndarray:
    """Average rank of each method (column) over the datasets (rows) of a
    score table: rank 1 is the highest score, and ties get mean ranks."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2:
        raise ValueError("scores must be a (n_datasets, n_methods) table")
    if np.isnan(scores).any():
        raise ValueError("score table has missing cells")
    return rankdata(-scores, axis=1).mean(axis=0)


def rank_test_pvalues(avg_ranks, n_datasets: int):
    """Two-sided normal p-values of each method against the best-ranked one.

    Uses the Friedman z statistic z = (R_i - R_best) / sqrt(m(m+1) / (6 n)).
    Returns (best index, p-values for the other methods in method order,
    indices of those methods).
    """
    avg_ranks = np.asarray(avg_ranks, dtype=float)
    m = avg_ranks.shape[0]
    best = int(np.argmin(avg_ranks))
    others = np.array([i for i in range(m) if i != best])
    scale = np.sqrt(m * (m + 1) / (6.0 * n_datasets))
    z = (avg_ranks[others] - avg_ranks[best]) / scale
    return best, 2.0 * norm.sf(np.abs(z)), others


def finner_stepdown(p_values, alpha: float = 0.05) -> np.ndarray:
    """Step-down rejection flags (original order) for the Finner adjustment.

    Sorted p-values are adjusted to 1 - (1 - p_(j))^(h/j) with h hypotheses,
    monotonized by a running maximum, and rejected while adjusted <= alpha.
    """
    return finner_adjusted_pvalues(p_values) <= alpha


def finner_adjusted_pvalues(p_values) -> np.ndarray:
    """Monotonized adjusted p-values, returned in the original order."""
    p_values = np.asarray(p_values, dtype=float)
    if p_values.size == 0:
        raise ValueError("empty input")
    h = p_values.size
    order = np.argsort(p_values, kind="stable")
    ranks = np.arange(1, h + 1)
    adjusted = np.minimum(
        np.maximum.accumulate(1.0 - (1.0 - p_values[order]) ** (h / ranks)), 1.0
    )
    out = np.empty(h)
    out[order] = adjusted
    return out


@dataclass(frozen=True)
class SignTestResult:
    significant: bool
    critical_value: int
    wins_adjusted: int


def sign_test_critical_value(n: int, alpha: float) -> int:
    """Smallest w with P(W >= w | Binomial(n, 1/2)) <= alpha (n+1 if none)."""
    if n <= 0:
        raise ValueError("sign test needs n > 0")
    w = np.arange(0, n + 2)
    tail = binom.sf(w - 1, n, 0.5)  # P(W >= w)
    hits = np.flatnonzero(tail <= alpha)
    return int(w[hits[0]]) if hits.size else n + 1


def sign_test(wins: int, ties: int, losses: int, alpha: float = 0.05) -> SignTestResult:
    """Exact binomial sign test over win/tie/loss counts.

    Ties are split evenly between the two sides; an odd tie goes to the
    losses (the conservative direction).
    """
    n = wins + ties + losses
    if n == 0:
        raise ValueError("sign test needs n > 0")
    wins_adjusted = wins + ties // 2
    critical = sign_test_critical_value(n, alpha)
    return SignTestResult(
        significant=wins_adjusted >= critical,
        critical_value=critical,
        wins_adjusted=wins_adjusted,
    )
