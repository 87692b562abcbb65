"""Metric definitions against independent oracles."""

import numpy as np
import pytest

import reference as ref
from desbal.metrics import auc_multiclass, f_measure_weighted, g_mean


def _simplex_scores(rng, n, L):
    raw = rng.uniform(0.01, 1.0, size=(n, L))
    return raw / raw.sum(axis=1, keepdims=True)


def _concordance_auc(scores, labels, i, j):
    """Brute-force pairwise concordance A(i|j) using score column i."""
    s_i = scores[labels == i][:, i]
    s_j = scores[labels == j][:, i]
    total = 0.0
    for a in s_i:
        for b in s_j:
            if a > b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (len(s_i) * len(s_j))


class TestAuc:
    def test_perfect_binary_separation(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([[0.9, 0.1], [0.8, 0.2], [0.2, 0.8], [0.1, 0.9]])
        assert auc_multiclass(scores, labels) == pytest.approx(1.0)

    def test_identical_scores_half(self):
        rng = np.random.default_rng(0)
        for L in (2, 3, 5):
            labels = rng.integers(0, L, size=30)
            labels[:L] = np.arange(L)
            scores = np.full((30, L), 1.0 / L)
            assert auc_multiclass(scores, labels) == pytest.approx(0.5)

    def test_three_class_concordance_oracle(self):
        rng = np.random.default_rng(1)
        labels = np.repeat([0, 1, 2], 4)
        scores = _simplex_scores(rng, 12, 3)
        expected = np.mean(
            [
                (_concordance_auc(scores, labels, i, j)
                 + _concordance_auc(scores, labels, j, i)) / 2
                for i, j in ((0, 1), (0, 2), (1, 2))
            ]
        )
        assert auc_multiclass(scores, labels) == pytest.approx(expected, abs=1e-12)

    def test_binary_matches_trapezoidal(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(10, 60))
            labels = rng.integers(0, 2, size=n)
            labels[:2] = [0, 1]
            scores = _simplex_scores(rng, n, 2)
            want = ref.auc_trapezoid_ref(labels, scores[:, 1])
            assert auc_multiclass(scores, labels) == pytest.approx(want, abs=1e-9)
            # the trapezoid oracle against pair counting on the positive column
            assert _concordance_auc(scores, labels, 1, 0) == pytest.approx(want, abs=1e-9)

    def test_matches_mid_rank_oracle_bitwise(self):
        """Heavily tied supports, as a pool of small trees gives them, with
        some classes absent: the counted U statistics equal the mid-rank
        AUC to the last bit."""
        rng = np.random.default_rng(5)
        for _ in range(300):
            L = int(rng.integers(2, 9))
            n = int(rng.integers(2, 151))
            labels = rng.integers(0, int(rng.integers(2, L + 1)), size=n)
            labels[:2] = [0, 1]
            raw = rng.integers(0, 4, size=(n, L)).astype(float)
            raw[raw.sum(axis=1) == 0] = 1.0
            scores = raw / raw.sum(axis=1, keepdims=True)
            got = auc_multiclass(scores, labels)
            assert got.hex() == ref.auc_rank_ref(scores, labels).hex()

    def test_absent_pair_skipped(self, caplog):
        labels = np.array([0, 0, 1, 1])
        scores = _simplex_scores(np.random.default_rng(3), 4, 3)
        with caplog.at_level("WARNING"):
            value = auc_multiclass(scores, labels)
        assert 0.0 <= value <= 1.0
        assert any("skipped" in r.message for r in caplog.records)

    def test_rows_must_be_simplex(self):
        with pytest.raises(ValueError):
            auc_multiclass(np.array([[0.9, 0.9], [0.1, 0.1]]), np.array([0, 1]))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 3, size=30)
        labels[:3] = [0, 1, 2]
        scores = _simplex_scores(rng, 30, 3)
        perm = rng.permutation(30)
        assert auc_multiclass(scores, labels) == pytest.approx(
            auc_multiclass(scores[perm], labels[perm])
        )


class TestFMeasure:
    def test_perfect(self):
        labels = np.array([0, 1, 2, 1])
        assert f_measure_weighted(labels, labels) == pytest.approx(1.0)

    def test_weighted_sum_example(self):
        # class 0 (90 samples) perfect; class 1 (10 samples) never predicted
        labels = np.concatenate([np.zeros(90, int), np.ones(10, int)])
        preds = np.zeros(100, int)
        # F1(class 0): precision 0.9, recall 1.0 -> 18/19; F1(class 1) = 0
        expected = 0.9 * (2 * 0.9 * 1.0 / 1.9)
        assert f_measure_weighted(preds, labels) == pytest.approx(expected, abs=1e-12)

    def test_confusion_matrix_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(10, 60))
            labels = rng.integers(0, 3, size=n)
            preds = rng.integers(0, 3, size=n)
            f_sum = 0.0
            for c in range(3):
                tp = np.sum((preds == c) & (labels == c))
                fp = np.sum((preds == c) & (labels != c))
                fn = np.sum((preds != c) & (labels == c))
                p = tp / (tp + fp) if tp + fp else 0.0
                r = tp / (tp + fn) if tp + fn else 0.0
                f1 = 2 * p * r / (p + r) if p + r else 0.0
                f_sum += f1 * np.mean(labels == c)
            assert f_measure_weighted(preds, labels) == pytest.approx(f_sum, abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 3, size=40)
        preds = rng.integers(0, 3, size=40)
        perm = rng.permutation(40)
        assert f_measure_weighted(preds, labels) == pytest.approx(
            f_measure_weighted(preds[perm], labels[perm]), abs=1e-12
        )


class TestGMean:
    def test_perfect(self):
        labels = np.array([0, 1, 2])
        assert g_mean(labels, labels) == pytest.approx(1.0)

    def test_known_sensitivities(self):
        # recalls 1.0, 0.5, 0.8 -> (0.4)^(1/3)
        labels = np.concatenate([np.zeros(4, int), np.ones(4, int), np.full(5, 2)])
        preds = labels.copy()
        preds[4:6] = 0  # class 1 recall 0.5
        preds[8] = 0  # class 2 recall 0.8
        assert g_mean(preds, labels) == pytest.approx(0.7368, abs=1e-4)
        assert g_mean(preds, labels) == pytest.approx(0.4 ** (1 / 3), abs=1e-12)

    def test_zero_recall_annihilates(self):
        labels = np.array([0, 0, 1, 1])
        preds = np.array([0, 0, 0, 0])
        assert g_mean(preds, labels) == 0.0

    def test_matches_per_class_mask_oracle(self):
        # absent classes, predictions of classes never labelled, one sample
        rng = np.random.default_rng(8)
        for _ in range(500):
            n = int(rng.integers(1, 60))
            L = int(rng.integers(1, 7))
            labels = rng.integers(0, L, size=n)
            preds = np.where(rng.random(n) < 0.7, labels, rng.integers(0, L + 2, size=n))
            assert g_mean(preds, labels) == ref.g_mean_ref(preds, labels)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            g_mean([], [])
        with pytest.raises(ValueError, match="empty"):
            f_measure_weighted([], [])

    def test_bounds_and_zero_iff(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(8, 40))
            labels = rng.integers(0, 3, size=n)
            labels[:3] = [0, 1, 2]
            preds = rng.integers(0, 3, size=n)
            recalls = np.array(
                [np.mean(preds[labels == c] == c) for c in range(3)]
            )
            value = g_mean(preds, labels)
            assert 0.0 <= value <= recalls.max() + 1e-12
            assert (value == 0.0) == (recalls == 0).any()
