"""RUS / SMOTE / RAMO / Random Balance and the multi-class rule."""

import copy

import numpy as np
import pytest

import reference as ref
from desbal.benchmarks import load_benchmark
from desbal.data import Dataset, _neighbors, standardize, stratified_5x2
from desbal.pool import BOOTSTRAP_FRACTION, _bootstrap
from desbal.resampling import (
    VARIANTS,
    _synthesize,
    apply_multiclass,
    logistic_weight,
    normalize_variant,
    ramo,
    ramo_weights,
    resample_dataset,
    rus,
    smote_exact,
)
from desbal.rng import derive_seed, make_rng


def _dataset(counts, seed=0, d=2, spread=1.0):
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.full(c, i) for i, c in enumerate(counts)])
    centers = rng.normal(scale=4.0, size=(len(counts), d))
    features = centers[labels] + rng.normal(scale=spread, size=(labels.size, d))
    return Dataset(
        "toy", features, labels, tuple(str(i) for i in range(len(counts)))
    )


class TestRus:
    def test_identity(self):
        rng = np.random.default_rng(0)
        idx = np.arange(10)
        assert np.array_equal(rus(idx, 10, rng), idx)

    def test_cardinality_and_subset(self):
        rng = np.random.default_rng(1)
        out = rus(np.arange(10, 20), 4, rng)
        assert out.shape == (4,)
        assert len(set(out.tolist())) == 4
        assert set(out.tolist()) <= set(range(10, 20))

    def test_empty_target(self):
        rng = np.random.default_rng(2)
        assert rus(np.arange(10), 0, rng).size == 0

    def test_oversized_target_rejected(self):
        with pytest.raises(ValueError):
            rus(np.arange(3), 4, np.random.default_rng(0))


class TestSmote:
    def test_full_round_count(self):
        rng = np.random.default_rng(3)
        batch = smote_exact(np.random.default_rng(0).normal(size=(5, 2)), 5, 5, rng)
        assert len(batch) == 5
        assert batch.seeds.tolist() == list(range(5))  # each row once

    def test_under_100_subset_branch(self):
        rng = np.random.default_rng(4)
        batch = smote_exact(np.random.default_rng(0).normal(size=(4, 2)), 2, 5, rng)
        assert len(batch) == 2
        assert len(set(batch.seeds.tolist())) == 2  # two distinct randomly chosen seeds

    def test_convexity_on_segment(self):
        minority = np.array([[0.0, 0.0], [1.0, 1.0]])
        rng = np.random.default_rng(5)
        for _ in range(1000):
            batch = smote_exact(minority, 2, 1, rng)
            for row, seed, neighbour, gap in zip(batch.samples, batch.seeds,
                                                 batch.neighbours, batch.gaps):
                assert row[0] == pytest.approx(row[1], abs=1e-12)
                assert 0.0 <= row[0] <= 1.0
                expected = minority[seed] + gap * (minority[neighbour] - minority[seed])
                assert np.allclose(row, expected, atol=1e-12)

    def test_needs_two_seeds(self):
        with pytest.raises(ValueError, match=">= 2 seeds"):
            smote_exact(np.zeros((1, 2)), 1, 5, np.random.default_rng(0))

    def test_exact_amount(self):
        rng = np.random.default_rng(6)
        rows = np.random.default_rng(1).normal(size=(7, 3))
        for amount in (0, 1, 6, 7, 13, 29):
            batch = smote_exact(rows, amount, 5, rng)
            assert len(batch) == amount
            assert batch.samples.shape == (amount, 3)
            for index in (batch.seeds, batch.neighbours):
                assert index.shape == (amount,) and index.dtype.kind == "i"
            assert batch.gaps.shape == (amount,)


class TestInterpolateOracle:
    # the oracle draws its gaps with uniform() and the library with random()
    @staticmethod
    def _check(k, seed, size):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(8, 3))
        seeds = np.sort(rng.integers(0, 8, size=size))  # seeds repeat
        table = _neighbors(rows, np.arange(8), k)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        batch = _synthesize(rows, seeds, k, got_rng)
        want = ref.interpolate_ref(rows, seeds, table, want_rng)
        got = (batch.samples, batch.seeds, batch.neighbours, batch.gaps)
        for got_array, want_array in zip(got, want):
            assert got_array.dtype == want_array.dtype
            assert np.array_equal(got_array, want_array)
        assert got_rng.random() == want_rng.random()  # same draws consumed

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_row_loop(self, k, seed):
        self._check(k, seed, 25)

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_row_loop_many_draws(self, k, seed):
        self._check(k, seed, 5000)


class TestRamoWeights:
    def test_logistic_at_zero(self):
        assert logistic_weight(0, 0.3) == pytest.approx(0.5)

    def test_logistic_at_ten(self):
        assert logistic_weight(10, 0.3) == pytest.approx(0.952574, abs=1e-6)

    def test_monotone(self):
        w = logistic_weight(np.arange(10), 0.3)
        assert (np.diff(w) > 0).all()

    def test_end_to_end_hostile_neighbourhood(self):
        # minority point inside a tight majority cluster -> m = k1 = 10;
        # a far minority cluster of 12 keeps its own company -> m = 0
        hostile = np.vstack([[0.0, 0.0], np.random.default_rng(0).normal(0, 0.1, (10, 2))])
        friendly = np.random.default_rng(1).normal(100.0, 0.1, (12, 2))
        features = np.vstack([hostile, friendly])
        labels = np.array([1] + [0] * 10 + [1] * 12)
        minority = np.flatnonzero(labels == 1)
        weights = ramo_weights(minority, features, labels, k1=10, alpha=0.3)
        assert weights[0] == pytest.approx(0.952574, abs=1e-6)
        assert np.allclose(weights[1:], 0.5)


class TestRamo:
    def test_uniform_weights_uniform_seeds(self):
        from scipy.stats import chisquare

        # one tight minority cluster: every weight is 0.5, draws are uniform
        features = np.vstack([
            np.random.default_rng(2).normal(0, 0.1, (8, 2)),
            np.random.default_rng(3).normal(50, 0.1, (20, 2)),
        ])
        labels = np.array([1] * 8 + [0] * 20)
        rng = np.random.default_rng(7)
        batch = ramo(np.flatnonzero(labels == 1), features, labels, 10000, rng, k1=5)
        counts = np.bincount(batch.seeds, minlength=8)
        assert chisquare(counts).pvalue > 0.01

    def test_zero_amount(self):
        features = np.random.default_rng(0).normal(size=(10, 2))
        labels = np.array([1] * 5 + [0] * 5)
        batch = ramo(np.arange(5), features, labels, 0, rng=np.random.default_rng(0))
        assert len(batch) == 0
        assert batch.samples.shape == (0, 2)
        for index in (batch.seeds, batch.neighbours):
            assert index.shape == (0,) and index.dtype.kind == "i"

    def test_draw_frequency_proportional_to_weights(self):
        # point A sits among 4 majority samples (m = 4 at k1 = 4), the tight
        # cluster of 5 minority rows keeps m = 0; expected frequency of A is
        # w_A / (w_A + 5 * 0.5) with w_A = logistic_weight(4, 0.3)
        cluster = np.random.default_rng(4).normal(0, 0.05, (5, 2))
        a = np.array([[50.0, 50.0]])
        majority = np.random.default_rng(5).normal(50, 0.05, (4, 2))
        features = np.vstack([a, cluster, majority])
        labels = np.array([1] * 6 + [0] * 4)
        w_a = logistic_weight(4, 0.3)
        expected = w_a / (w_a + 5 * 0.5)
        rng = np.random.default_rng(8)
        batch = ramo(np.arange(6), features, labels, 10000, rng, k1=4, k2=3)
        freq = np.mean(batch.seeds == 0)
        assert freq == pytest.approx(expected, abs=0.02)


class TestRandomBalance:
    def test_size_preserved_over_draws(self):
        rng = np.random.default_rng(9)
        for trial in range(200):
            counts = (int(rng.integers(2, 30)), int(rng.integers(2, 30)))
            ds = _dataset(counts, seed=int(rng.integers(1 << 30)))
            new = np.bincount(apply_multiclass(ds, "Ba-RB", rng).labels, minlength=2)
            assert new.sum() == sum(counts)
            assert (new >= 2).all()

    def test_total_below_four_unchanged(self):
        # a one-row class cannot seed SMOTE, so it keeps its size, and the
        # other class, alone in the draw, keeps the rest
        ds = _dataset((1, 2))
        out = apply_multiclass(ds, "Ba-RB", np.random.default_rng(0))
        assert np.array_equal(out.features, ds.features)
        assert np.array_equal(out.labels, ds.labels)

    def test_extreme_ratio_possible(self):
        # scan seeds for the boundary draw of a class of 2
        ds = _dataset((60, 40))
        found = False
        for seed in range(300):
            new = np.bincount(
                apply_multiclass(ds, "Ba-RB", np.random.default_rng(seed)).labels, minlength=2
            )
            if new[0] == 2:
                assert new[1] == 98
                found = True
                break
        assert found


class TestApplyMulticlass:
    def test_variant_names(self):
        assert normalize_variant("ba-sm100") == "Ba-SM100"
        with pytest.raises(ValueError, match="unknown resampling variant"):
            normalize_variant("SMOTEBOOST")

    def test_sm_equalizes(self):
        ds = _dataset((50, 20, 10))
        out = apply_multiclass(ds, "Ba-SM", np.random.default_rng(0))
        assert np.bincount(out.labels).tolist() == [50, 50, 50]

    def test_sm100_doubles_capped(self):
        ds = _dataset((50, 20, 10))
        out = apply_multiclass(ds, "Ba-SM100", np.random.default_rng(0))
        assert np.bincount(out.labels).tolist() == [50, 40, 20]

    def test_rm100_cap_rule(self):
        ds = _dataset((50, 30, 5))
        out = apply_multiclass(ds, "Ba-RM100", np.random.default_rng(0))
        assert np.bincount(out.labels).tolist() == [50, 50, 10]

    def test_ba_identity(self):
        ds = _dataset((10, 5))
        out = apply_multiclass(ds, "Ba", np.random.default_rng(0))
        assert np.array_equal(out.features, ds.features)
        assert np.array_equal(out.labels, ds.labels)

    def test_majority_rows_untouched(self):
        ds = _dataset((30, 12, 8))
        for variant in ("Ba-SM", "Ba-SM100", "Ba-RM", "Ba-RM100"):
            out = apply_multiclass(ds, variant, np.random.default_rng(1))
            majority_in = ds.features[ds.labels == 0]
            majority_out = out.features[out.labels == 0]
            assert np.array_equal(majority_in, majority_out)

    def test_rb_preserves_total(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            counts = tuple(int(rng.integers(3, 25)) for _ in range(3))
            ds = _dataset(counts, seed=int(rng.integers(1 << 30)))
            out = apply_multiclass(ds, "Ba-RB", rng)
            assert out.n_samples == ds.n_samples
            assert (np.bincount(out.labels, minlength=3) >= 2).all()

    def test_degenerate_class_skipped(self, caplog):
        ds = _dataset((10, 1, 5))
        with caplog.at_level("WARNING"):
            out = apply_multiclass(ds, "Ba-SM", np.random.default_rng(0))
        counts = np.bincount(out.labels, minlength=3)
        assert counts[1] == 1  # left alone
        assert counts[0] == counts[2] == 10
        assert any("cannot oversample" in r.message for r in caplog.records)

    def test_synthetic_rows_inside_class_bbox(self):
        rng = np.random.default_rng(11)
        for variant in ("Ba-SM", "Ba-RM", "Ba-RB"):
            for _ in range(30):
                counts = tuple(int(rng.integers(4, 20)) for _ in range(3))
                ds = _dataset(counts, seed=int(rng.integers(1 << 30)), d=3)
                result = resample_dataset(ds, variant, rng)
                for row, label in zip(result.synthetic_features, result.synthetic_labels):
                    real = ds.features[ds.labels == label]
                    assert (row >= real.min(axis=0) - 1e-9).all()
                    assert (row <= real.max(axis=0) + 1e-9).all()

    def test_deterministic_given_seed(self):
        ds = _dataset((20, 9, 6))
        for variant in ("Ba-SM", "Ba-RM", "Ba-RB", "Ba-SM100"):
            a = apply_multiclass(ds, variant, np.random.default_rng(42))
            b = apply_multiclass(ds, variant, np.random.default_rng(42))
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.labels, b.labels)


def _assert_matches_ref(ds, variant, rng, **kwargs):
    """Library and oracle give the same rows, labels and leave the same RNG."""
    got_rng, want_rng = copy.deepcopy(rng), copy.deepcopy(rng)
    got = resample_dataset(ds, variant, got_rng, **kwargs)
    kept, synth_x, synth_y = ref.resample_dataset_ref(ds, variant, want_rng)
    assert np.array_equal(got.kept_indices, kept)
    assert np.array_equal(got.synthetic_features, synth_x)
    assert np.array_equal(got.synthetic_labels, synth_y)
    assert got.synthetic_labels.dtype == synth_y.dtype
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestResampleOracle:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_random_datasets(self, variant):
        # sizes from a small menu, so empty classes, one-row classes and tied
        # majorities all come up often
        rng = np.random.default_rng(2024)
        for trial in range(250):
            n_classes = int(rng.integers(2, 6))
            counts = rng.choice([0, 1, 1, 2, 3, 5, 8, 8, 13], size=n_classes)
            if counts.sum() == 0:
                counts[-1] = 1
            ds = _dataset(tuple(counts.tolist()), seed=trial, d=int(rng.integers(1, 4)))
            _assert_matches_ref(ds, variant, np.random.default_rng(int(rng.integers(1 << 30))))

    def test_degenerate_count_patterns(self):
        patterns = [(0, 1), (1, 1, 1), (1, 2), (2, 2), (0, 5, 5), (5, 1, 5, 0), (3, 0, 1, 3)]
        for counts in patterns:
            for variant in VARIANTS:
                for seed in range(5):
                    _assert_matches_ref(_dataset(counts, seed=seed), variant,
                                        np.random.default_rng(seed))

    @pytest.mark.parametrize("name", ["glass", "ecoli"])
    def test_pipeline_bootstraps_and_dsel(self, name):
        # the bootstraps generate_pool draws and the DSEL input build_dsel
        # resamples, at run_experiment's seeds (seed 20240601, replication 1)
        ds = load_benchmark(name)
        plan = stratified_5x2(ds, derive_seed(20240601, "split", ds.name))
        for rep, fold, train_idx, _ in list(plan.folds())[:2]:
            train, _, _ = standardize(ds.subset(train_idx), [])
            size = int(np.ceil(BOOTSTRAP_FRACTION * train.n_samples))
            for variant in VARIANTS:
                seed = derive_seed(20240601, ds.name, variant, rep, fold)
                for i in range(10):
                    rng = make_rng(seed, "tree", i)
                    idx, _ = _bootstrap(train, size, rng)
                    _assert_matches_ref(train.subset(idx), variant, rng,
                                        warn_degenerate=False)
                _assert_matches_ref(train, variant, make_rng(seed, "dsel"))

    def test_all_one_row_classes_are_silent(self, caplog):
        # no class needs to grow, so nothing warns that it cannot oversample
        ds = _dataset((1, 1, 1))
        for variant in VARIANTS:
            with caplog.at_level("DEBUG"):
                out = apply_multiclass(ds, variant, np.random.default_rng(0))
            assert np.array_equal(out.labels, ds.labels)
        assert not any("cannot oversample" in r.message for r in caplog.records)

    def test_empty_class_stays_empty_and_silent(self, caplog):
        ds = _dataset((0, 5, 2))
        for variant in VARIANTS:
            with caplog.at_level("DEBUG"):
                out = apply_multiclass(ds, variant, np.random.default_rng(0))
            assert np.bincount(out.labels, minlength=3)[0] == 0
        assert not any("cannot oversample" in r.message for r in caplog.records)
