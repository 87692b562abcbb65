"""Nonparametric comparison machinery: average ranks, the Finner step-down
procedure against the best-ranked method, and the exact-binomial sign test.
Ranks, rank-test p-values and Finner flags also take a stack of tables and
work on each one, so a report ranks all its tables in one call."""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, prod

import numpy as np
from scipy.special import ndtr


def average_ranks(scores) -> np.ndarray:
    """Average rank of each method (column) over the datasets (rows) of a
    score table: rank 1 is the highest score, and ties get mean ranks. A
    stack (..., datasets, methods) of tables gives (..., methods)."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim < 2 or not scores.shape[-2]:
        raise ValueError("scores must be a (n_datasets, n_methods) table, n_datasets >= 1")
    if np.isnan(scores).any():
        raise ValueError("score table has missing cells")
    *stack, n, m = scores.shape
    tables = prod(stack)
    rows = scores.reshape(tables * n, m)
    order = np.argsort(-rows, axis=1, kind="stable")
    ordered = np.take_along_axis(rows, order, axis=1)
    starts = np.ones(rows.shape, dtype=bool)
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    group = np.cumsum(starts) - 1  # tie groups, numbered across rows
    positions = np.bincount(group, np.tile(np.arange(1.0, m + 1), len(rows)))
    group_rank = positions / np.bincount(group)  # the mean position, an exact half
    column = order + (np.arange(len(rows)) // n * m)[:, None]  # numbered across tables
    sums = np.bincount(column.ravel(), group_rank[group], minlength=tables * m)
    return (sums / n).reshape(*stack, m)  # exact sums of halves, so any order


def rank_test_pvalues(avg_ranks, n_datasets: int):
    """Two-sided normal p-values of each method against the best-ranked one.

    Uses the Friedman z statistic z = (R_i - R_best) / sqrt(m(m+1) / (6 n)).
    Returns (best index, p-values for the other methods in method order,
    indices of those methods). For a stack (..., methods) of rank vectors
    the best indices are an array and every output keeps the stack axes.
    """
    if n_datasets < 1:
        raise ValueError(f"n_datasets must be >= 1, got {n_datasets}")
    avg_ranks = np.asarray(avg_ranks, dtype=float)
    m = avg_ranks.shape[-1]
    best = np.argmin(avg_ranks, axis=-1)
    at_best = np.expand_dims(best, -1)
    others = np.arange(m - 1) + (np.arange(m - 1) >= at_best)  # every index but best
    scale = np.sqrt(m * (m + 1) / (6.0 * n_datasets))
    z = (
        np.take_along_axis(avg_ranks, others, axis=-1)
        - np.take_along_axis(avg_ranks, at_best, axis=-1)
    ) / scale
    return best if best.ndim else int(best), 2.0 * ndtr(-np.abs(z)), others


def finner_stepdown(p_values, alpha: float = 0.05) -> np.ndarray:
    """Step-down rejection flags (original order) for the Finner adjustment.

    Sorted p-values are adjusted to 1 - (1 - p_(j))^(h/j) with h hypotheses,
    monotonized by a running maximum, and rejected while adjusted <= alpha.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return finner_adjusted_pvalues(p_values) <= alpha


def finner_adjusted_pvalues(p_values) -> np.ndarray:
    """Monotonized adjusted p-values, returned in the original order; each
    row of a stack (..., hypotheses) is adjusted on its own."""
    p_values = np.asarray(p_values, dtype=float)
    if p_values.size == 0:
        raise ValueError("empty input")
    h = p_values.shape[-1]
    order = np.argsort(p_values, axis=-1, kind="stable")
    ranks = np.arange(1, h + 1)
    ordered = np.take_along_axis(p_values, order, axis=-1)
    adjusted = np.minimum(
        np.maximum.accumulate(1.0 - (1.0 - ordered) ** (h / ranks), axis=-1), 1.0
    )
    out = np.empty_like(adjusted)
    np.put_along_axis(out, order, adjusted, axis=-1)
    return out


@dataclass(frozen=True)
class SignTestResult:
    significant: bool
    critical_value: int
    wins_adjusted: int


@cache
def sign_test_critical_value(n: int, alpha: float) -> int:
    """Smallest w with P(W >= w | Binomial(n, 1/2)) <= alpha (n+1 if none),
    from the exact tail counts sum_{j >= w} C(n, j) against alpha * 2^n.
    Each (n, alpha) is computed once per process."""
    if n <= 0:
        raise ValueError("sign test needs n > 0")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    bound, tail = Fraction(float(alpha)) * 2**n, 0
    for w in range(n, 0, -1):
        tail += comb(n, w)  # the outcomes with W >= w
        if tail > bound:
            return w + 1
    return 1  # P(W >= 0) = 1 > alpha


def sign_test(wins: int, ties: int, losses: int, alpha: float = 0.05) -> SignTestResult:
    """Exact binomial sign test over win/tie/loss counts.

    Ties are split evenly between the two sides; an odd tie goes to the
    losses (the conservative direction).
    """
    wins_adjusted = wins + ties // 2
    critical = sign_test_critical_value(wins + ties + losses, alpha)
    return SignTestResult(
        significant=wins_adjusted >= critical,
        critical_value=critical,
        wins_adjusted=wins_adjusted,
    )
