"""Rank aggregation, Finner step-down and the exact sign test."""

import numpy as np
import pytest
from scipy.stats import binom

import reference as ref
from desbal import experiment
from desbal.stats import (
    average_ranks,
    finner_adjusted_pvalues,
    finner_stepdown,
    rank_test_pvalues,
    sign_test,
    sign_test_critical_value,
)


def _fuzz_tables(seed=4, count=2000):
    """Seeded score tables of 1-30 datasets by 1-15 methods; quarter-step
    scores force ties, and -0.0 must tie with 0.0."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        shape = (int(rng.integers(1, 31)), int(rng.integers(1, 16)))
        scores = rng.integers(-4, 5, size=shape) / 4.0 * rng.choice([-1.0, 1.0], size=shape)
        if rng.uniform() < 0.5:
            scores = np.where(rng.uniform(size=shape) < 0.5, scores, rng.uniform(size=shape))
        yield scores


class TestAverageRanks:
    def test_dominant_method(self):
        scores = np.array([[0.9, 0.5], [0.8, 0.4], [0.7, 0.2]])
        assert average_ranks(scores).tolist() == [1.0, 2.0]

    def test_exact_tie_mean_rank(self):
        assert average_ranks(np.array([[0.5, 0.5]])).tolist() == [1.5, 1.5]

    def test_sort_based_oracle(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(size=(4, 3))
        expected = np.empty_like(scores)
        for row, ranks in zip(scores, expected):
            for pos, idx in enumerate(sorted(range(3), key=lambda i: -row[i])):
                ranks[idx] = pos + 1  # no ties in random floats
        for row, ranks in zip(scores, expected):
            assert np.array_equal(average_ranks(row[None]), ranks)
        assert np.array_equal(average_ranks(scores), expected.mean(axis=0))

    def test_missing_cells_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            average_ranks(np.array([[1.0, np.nan]]))

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match=r"table, n_datasets >= 1"):
            average_ranks(np.empty((0, 3)))

    def test_rankdata_oracle_bitwise(self):
        for scores in _fuzz_tables():
            shape = scores.shape
            got = average_ranks(scores)
            assert got.tobytes() == ref.average_ranks_ref(scores).tobytes()
            if shape[1] > 1:
                pvals = rank_test_pvalues(got, shape[0])[1]
                assert pvals.tobytes() == ref.rank_pvalues_ref(got, shape[0]).tobytes()


class TestStacked:
    """A stack of tables gives, byte for byte, what each table gives alone."""

    def test_stack_equals_per_table_calls(self):
        rng = np.random.default_rng(6)
        for scores in _fuzz_tables():
            n, m = scores.shape
            stack = np.stack([  # rows and columns reordered, and rounded to halves
                scores, scores[rng.permutation(n)], scores[:, rng.permutation(m)],
                np.round(scores * 2) / 2,
            ])
            ranks = average_ranks(stack)
            assert ranks.shape == (4, m)
            for table, row in zip(stack, ranks):
                assert row.tobytes() == average_ranks(table).tobytes()
            if m == 1:
                continue
            best, pvals, others = rank_test_pvalues(ranks, n)
            flags = finner_stepdown(pvals, alpha=0.05)
            adjusted = finner_adjusted_pvalues(pvals)
            for s, row in enumerate(ranks):
                want = rank_test_pvalues(row, n)
                assert best[s] == want[0]
                assert pvals[s].tobytes() == want[1].tobytes()
                assert others[s].tobytes() == want[2].tobytes()
                assert flags[s].tobytes() == finner_stepdown(want[1], alpha=0.05).tobytes()
                assert adjusted[s].tobytes() == finner_adjusted_pvalues(want[1]).tobytes()

    def test_two_stack_axes(self):
        scores = np.random.default_rng(7).uniform(size=(2, 3, 5, 4))
        ranks = average_ranks(scores)
        assert ranks.shape == (2, 3, 4)
        assert np.array_equal(ranks[1, 2], average_ranks(scores[1, 2]))

    def test_single_table_outputs_keep_their_types(self):
        best, pvals, others = rank_test_pvalues(np.array([2.0, 1.0, 3.0]), 4)
        assert type(best) is int and best == 1
        assert pvals.shape == (2,) and others.tolist() == [0, 2]

    def test_one_method_has_no_others(self):
        best, pvals, others = rank_test_pvalues(np.array([1.0]), 3)
        assert (best, pvals.size, others.size, others.dtype) == (0, 0, 0, np.intp)

    def test_one_variant_stack_skips_the_rank_test(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("rank test run on one method")

        monkeypatch.setattr(experiment, "rank_test_pvalues", refuse)
        monkeypatch.setattr(experiment, "finner_stepdown", refuse)
        tables = np.random.default_rng(8).uniform(size=(15, 4, 1))
        ranks, best, equivalent = experiment._ranked(tables)
        assert ranks.tolist() == [[1.0]] * 15
        assert best.tolist() == [0] * 15 and equivalent.all()

    def test_stack_equals_per_table_ranked(self):
        tables = np.round(np.random.default_rng(9).uniform(size=(15, 6, 6)) * 4) / 4
        ranks, best, equivalent = experiment._ranked(tables)
        for s, table in enumerate(tables):
            one = experiment._ranked(table)
            assert ranks[s].tobytes() == one[0].tobytes()
            assert best[s] == one[1]
            assert equivalent[s].tolist() == one[2].tolist()


class TestFinner:
    def test_single_hypothesis_reduces_to_alpha(self):
        assert finner_stepdown([0.04], alpha=0.05).tolist() == [True]
        assert finner_stepdown([0.06], alpha=0.05).tolist() == [False]

    def test_all_ones_no_rejection(self):
        assert not finner_stepdown([1.0, 1.0, 1.0]).any()

    def test_direct_formula_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            h = int(rng.integers(1, 9))
            p = rng.uniform(size=h)
            flags = finner_stepdown(p, alpha=0.05)
            # independent recomputation: sort, adjust, step down
            order = np.argsort(p)
            adjusted, running = [], 0.0
            for pos, idx in enumerate(order, start=1):
                value = 1.0 - (1.0 - p[idx]) ** (h / pos)
                running = max(running, value)
                adjusted.append(min(running, 1.0))
            expected = np.zeros(h, dtype=bool)
            rejecting = True
            for pos, idx in enumerate(order):
                if adjusted[pos] > 0.05:
                    rejecting = False
                expected[idx] = rejecting
            assert flags.tolist() == expected.tolist()

    def test_rejections_monotone_in_p(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = rng.uniform(size=6)
            flags = finner_stepdown(p, alpha=0.1)
            if flags.any():
                threshold = p[flags].max()
                assert flags[p <= threshold].all()

    def test_adjusted_pvalues_order(self):
        p = np.array([0.001, 0.02, 0.04, 0.5])
        adj = finner_adjusted_pvalues(p)
        assert (np.diff(adj[np.argsort(p)]) >= 0).all()
        assert (adj >= p - 1e-12).all()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            finner_stepdown([])

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.05, 1.5, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must lie in"):
            finner_stepdown([0.01, 0.2], alpha=alpha)


class TestRankPvalues:
    def test_z_statistic(self):
        avg = np.array([1.2, 2.8, 2.0])
        best, pvals, others = rank_test_pvalues(avg, n_datasets=10)
        assert best == 0
        assert others.tolist() == [1, 2]
        scale = np.sqrt(3 * 4 / (6.0 * 10))
        from scipy.stats import norm

        want = 2 * norm.sf((avg[1] - avg[0]) / scale)
        assert pvals[0] == want

    @pytest.mark.parametrize("n_datasets", [0, -1])
    def test_no_datasets_rejected(self, n_datasets):
        with pytest.raises(ValueError, match="n_datasets must be >= 1"):
            rank_test_pvalues(np.array([1.0, 2.0]), n_datasets=n_datasets)


class TestSignTest:
    def test_critical_values_n26(self):
        assert sign_test_critical_value(26, 0.05) == 18
        assert sign_test_critical_value(26, 0.01) == 20

    def test_binomial_cdf_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(5, 40))
            alpha = float(rng.uniform(0.001, 0.2))
            crit = sign_test_critical_value(n, alpha)
            # crit is the smallest w whose upper tail is <= alpha
            assert binom.sf(crit - 1, n, 0.5) <= alpha
            if crit > 0:
                assert binom.sf(crit - 2, n, 0.5) > alpha

    def test_binom_sf_search_oracle(self):
        rng = np.random.default_rng(5)
        alphas = [0.1, 0.05, 0.01, *rng.uniform(1e-4, 0.5, size=20)]
        for n in range(1, 81):
            for alpha in alphas:
                assert sign_test_critical_value(n, alpha) == ref.sign_critical_ref(n, alpha)

    def test_exact_tail_at_one_half(self):
        # n = 35: P(W >= 18) is exactly 1/2, which binom.sf rounds above 0.5
        assert sign_test_critical_value(35, 0.5) == 18
        assert ref.sign_critical_ref(35, 0.5) == 19

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.05, 1.5, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must lie in"):
            sign_test_critical_value(10, alpha)
        with pytest.raises(ValueError, match="alpha must lie in"):
            sign_test(6, 2, 2, alpha=alpha)

    def test_critical_value_computed_once(self):
        sign_test_critical_value(41, 0.07)
        before = sign_test_critical_value.cache_info()
        assert sign_test_critical_value(41, 0.07) == ref.sign_critical_ref(41, 0.07)
        after = sign_test_critical_value.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_maximal_wins_significant(self):
        assert sign_test(26, 0, 0, alpha=0.01).significant

    def test_balanced_never_significant(self):
        for n_half in (5, 10, 13):
            assert not sign_test(n_half, 0, n_half, alpha=0.05).significant

    def test_tie_splitting_conservative(self):
        result = sign_test(10, 3, 0, alpha=0.05)
        assert result.wins_adjusted == 11  # extra half-tie goes to losses

    def test_critical_non_increasing_in_alpha(self):
        alphas = np.linspace(0.001, 0.3, 25)
        values = [sign_test_critical_value(26, a) for a in alphas]
        assert (np.diff(values) <= 0).all()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sign_test(0, 0, 0)
