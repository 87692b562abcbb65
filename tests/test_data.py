"""Parsing (with one-hot encoding of nominal attributes), scaling and
splitting contracts."""

import numpy as np
import pytest

from desbal.data import (
    DataFormatError,
    Dataset,
    ImbalanceProfile,
    ScalingParams,
    parse_csv,
    parse_keel,
    standardize,
    stratified_5x2,
)
from desbal.experiment import RunConfig, resolve_dataset

KEEL_MIXED = """@relation toy
@attribute width real [0.0, 10.0]
@attribute colour {red, green, blue}
@attribute cls {a, b}
@inputs width, colour
@outputs cls
@data
1.0, red, a
2.0, green, b
3.0, blue, a
4.0, red, b
5.0, green, a
"""


def _wine_keel_text():
    sklearn = pytest.importorskip("sklearn.datasets")
    raw = sklearn.load_wine()
    lines = ["@relation wine"]
    for j in range(raw.data.shape[1]):
        lines.append(f"@attribute a{j} real")
    lines.append("@attribute class {0, 1, 2}")
    lines.append("@data")
    for row, label in zip(raw.data, raw.target):
        lines.append(",".join(repr(float(v)) for v in row) + f",{label}")
    return "\n".join(lines)


class TestParseKeel:
    def test_wine_shape(self):
        ds = parse_keel(_wine_keel_text(), name="wine")
        assert ds.n_samples == 178
        assert ds.n_features == 13
        assert ds.n_classes == 3

    def test_mixed_attributes_and_outputs(self):
        ds = parse_keel(KEEL_MIXED)
        assert ds.n_samples == 5
        assert ds.n_features == 1 + 3  # width, then red / green / blue
        assert ds.class_names == ("a", "b")
        assert ds.features[:, 0].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        # class ids follow declaration order
        assert ds.labels.tolist() == [0, 1, 0, 1, 0]

    def test_empty_data_section(self):
        header = KEEL_MIXED.split("@data")[0] + "@data\n"
        with pytest.raises(DataFormatError, match="empty data section"):
            parse_keel(header)

    def test_missing_data_marker(self):
        with pytest.raises(DataFormatError, match="missing @data"):
            parse_keel("@relation x\n@attribute a real\n1.0\n")

    def test_row_arity_mismatch(self):
        with pytest.raises(DataFormatError, match="row"):
            parse_keel(KEEL_MIXED + "9.0, red\n")

    def test_unknown_nominal_category(self):
        with pytest.raises(DataFormatError, match="unknown"):
            parse_keel(KEEL_MIXED + "9.0, purple, a\n")

    def test_missing_values_dropped(self):
        ds = parse_keel(KEEL_MIXED + "9.0, ?, a\n")
        assert ds.n_samples == 5


class TestParseCsv:
    def test_numeric_table(self):
        ds = parse_csv("1,2,0\n3,4,1\n5,6,0\n7,8,1\n", label_column=2)
        assert ds.n_samples == 4
        assert ds.n_features == 2
        assert ds.labels.tolist() == [0, 1, 0, 1]

    def test_single_class_rejected(self):
        with pytest.raises(DataFormatError, match="fewer than 2 classes"):
            parse_csv("1,2,0\n3,4,0\n", label_column=2)

    def test_header_skipped(self):
        ds = parse_csv("a,b,class\n1,2,0\n3,4,1\n", label_column=-1)
        assert ds.n_samples == 2

    def test_ragged_rows(self):
        with pytest.raises(DataFormatError, match="ragged"):
            parse_csv("1,2,0\n3,4\n", label_column=2)


KEEL_TWO_NOMINALS = """@relation twonom
@attribute size real [0.0, 10.0]
@attribute colour {red, green, red, blue}
@attribute shape{round,square}
@attribute cls {a, b, c}
@inputs size, colour, shape
@outputs cls
@data
1.0, red, round, a
2.5, green, square, b
3.0, blue, round, c
4.0, red, square, a
5.0, ?, round, b
6.5, blue, square, b
7.0, green, round, c
"""

CSV_NOMINAL = """w,colour,h,label
1.5,sun,2.0,x
2.5,rain,3.0,y
3.5,snow,1.0,x
4.5,rain,?,y
5.5,sun,0.5,y
6.5,snow,4.0,x
"""


class TestEncodeNominals:
    """The parsers write a nominal feature as one indicator column per
    category, in place: declared order for Keel, first appearance for CSV."""

    def test_one_nominal_column(self):
        ds = parse_keel(KEEL_MIXED)
        assert np.array_equal(ds.features[:, 1:], [
            [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0], [0, 1, 0],
        ])

    def test_all_numeric_identity(self):
        ds = parse_csv("1,2,0\n3,4,1\n", label_column=2)
        assert np.array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_feature_growth(self):
        text = (
            "@relation t\n@attribute a {p, q}\n@attribute b {w, x, y, z}\n"
            "@attribute c real\n@attribute cls {m, n}\n@data\n"
            "p, w, 1.0, m\nq, x, 2.0, n\np, y, 3.0, m\nq, z, 4.0, n\n"
        )
        ds = parse_keel(text)
        assert np.array_equal(ds.features, [
            [1, 0, 1, 0, 0, 0, 1.0],
            [0, 1, 0, 1, 0, 0, 2.0],
            [1, 0, 0, 0, 1, 0, 3.0],
            [0, 1, 0, 0, 0, 1, 4.0],
        ])

    def test_roundtrip_preserves_rows_and_labels(self):
        ds = parse_keel(KEEL_MIXED)
        scaled, _, _ = standardize(ds)
        assert scaled.n_samples == ds.n_samples
        assert np.array_equal(scaled.labels, ds.labels)

    def test_resolved_keel_and_csv_matrices(self, tmp_path):
        # a category declared twice keeps its column and sets the first
        # match; the row holding `?` is dropped
        (tmp_path / "twonom.dat").write_text(KEEL_TWO_NOMINALS)
        (tmp_path / "toy.csv").write_text(CSV_NOMINAL)
        cfg = RunConfig(datasets=(), output="")
        keel = resolve_dataset(str(tmp_path / "twonom.dat"), cfg)
        assert keel.features.tolist() == [
            [1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0],
            [2.5, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
            [3.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0],
            [4.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            [6.5, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0],
            [7.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
        ]
        assert keel.labels.tolist() == [0, 1, 2, 0, 1, 2]
        assert keel.class_names == ("a", "b", "c")
        csv = resolve_dataset(str(tmp_path / "toy.csv"), cfg)
        assert csv.features.tolist() == [  # colour: sun, rain, snow
            [1.5, 1.0, 0.0, 0.0, 2.0],
            [2.5, 0.0, 1.0, 0.0, 3.0],
            [3.5, 0.0, 0.0, 1.0, 1.0],
            [5.5, 1.0, 0.0, 0.0, 0.5],
            [6.5, 0.0, 0.0, 1.0, 4.0],
        ]
        assert csv.labels.tolist() == [0, 1, 0, 1, 0]
        assert csv.class_names == ("x", "y")


class TestStandardize:
    def test_zscore_values(self):
        ds = Dataset("t", np.array([[1.0], [2.0], [3.0]]), [0, 1, 0], ("a", "b"))
        scaled, _, _ = standardize(ds)
        expected = np.array([-1.22474487, 0.0, 1.22474487])
        assert np.allclose(scaled.features[:, 0], expected, atol=1e-8)

    def test_constant_column_maps_to_zero(self):
        ds = Dataset("t", np.array([[5.0], [5.0], [5.0]]), [0, 1, 0], ("a", "b"))
        scaled, _, _ = standardize(ds)
        assert np.array_equal(scaled.features, np.zeros((3, 1)))

    def test_others_use_train_parameters(self):
        train = Dataset("t", np.array([[0.0], [10.0]]), [0, 1], ("a", "b"))
        other = Dataset("o", np.array([[5.0], [20.0]]), [0, 1], ("a", "b"))
        scaled_train, (scaled_other,), params = standardize(train, [other])
        # second pass with fresh parameters differs: proof the map is train's
        rescaled, _, _ = standardize(scaled_other)
        assert not np.allclose(scaled_other.features, rescaled.features)
        assert np.allclose(scaled_other.features, (other.features - 5.0) / 5.0)
        # first pass did standardize train itself
        assert np.allclose(scaled_train.features.mean(axis=0), 0.0)

    def test_params_text_roundtrip(self):
        params = ScalingParams(mean=np.array([1.5, -2.0]), std=np.array([0.5, 0.0]))
        back = ScalingParams.from_text(params.to_text())
        assert np.array_equal(back.mean, params.mean)
        assert np.array_equal(back.std, params.std)


def _toy_dataset(counts, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.full(c, i) for i, c in enumerate(counts)])
    return Dataset(
        "toy",
        rng.normal(size=(labels.size, 3)),
        labels,
        tuple(str(i) for i in range(len(counts))),
    )


class TestStratified5x2:
    def test_even_split(self):
        ds = _toy_dataset((6, 4))
        plan = stratified_5x2(ds, seed=3)
        for fold_a, fold_b in plan.replications:
            counts_a = np.bincount(ds.labels[fold_a], minlength=2)
            counts_b = np.bincount(ds.labels[fold_b], minlength=2)
            assert counts_a.tolist() == [3, 2]
            assert counts_b.tolist() == [3, 2]

    def test_odd_count_alternates(self):
        ds = _toy_dataset((3, 4))
        plan = stratified_5x2(ds, seed=1)
        sizes = [
            np.bincount(ds.labels[fold_a], minlength=2)[0]
            for fold_a, _ in plan.replications
        ]
        assert sizes == [2, 1, 2, 1, 2]

    def test_partition_exhaustive(self):
        ds = _toy_dataset((7, 5, 3))
        plan = stratified_5x2(ds, seed=9)
        everything = set(range(ds.n_samples))
        for fold_a, fold_b in plan.replications:
            assert set(fold_a) | set(fold_b) == everything
            assert set(fold_a) & set(fold_b) == set()

    def test_deterministic(self):
        ds = _toy_dataset((6, 4))
        one = stratified_5x2(ds, seed=5)
        two = stratified_5x2(ds, seed=5)
        for (a1, b1), (a2, b2) in zip(one.replications, two.replications):
            assert np.array_equal(a1, a2)
            assert np.array_equal(b1, b2)

    def test_singleton_class_goes_to_fold_a(self):
        ds = _toy_dataset((5, 1))
        plan = stratified_5x2(ds, seed=2)
        assert plan.singleton_classes == (1,)
        singleton = int(np.flatnonzero(ds.labels == 1)[0])
        for fold_a, _ in plan.replications:
            assert singleton in fold_a


class TestImbalanceProfile:
    @pytest.mark.parametrize(
        "counts,expected_ir",
        [
            ((59, 71, 48), 1.48),  # wine
            ((70, 76, 17, 13, 9, 29), 8.44),  # glass
            ((150, 35, 30), 5.00),  # new-thyroid
            ((143, 77, 52, 35, 20, 5, 2, 2), 71.50),  # ecoli
        ],
    )
    def test_table_ratios(self, counts, expected_ir):
        profile = ImbalanceProfile.from_counts(counts)
        assert profile.imbalance_ratio == pytest.approx(expected_ir, abs=0.01)

    def test_majority_tie_breaks_low(self):
        profile = ImbalanceProfile.from_counts((4, 4, 2))
        assert profile.majority_class == 0

    def test_from_dataset(self):
        ds = _toy_dataset((8, 2))
        profile = ImbalanceProfile.from_dataset(ds)
        assert profile.class_counts == (8, 2)
        assert profile.imbalance_ratio == pytest.approx(4.0)
