"""Parsing (with one-hot encoding of nominal attributes), scaling and
splitting contracts."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference as ref
from desbal.benchmarks import synthetic_like
from desbal.data import (
    DataFormatError,
    Dataset,
    ImbalanceProfile,
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
    raw = synthetic_like("wine")
    lines = ["@relation wine"]
    for j in range(raw.n_features):
        lines.append(f"@attribute a{j} real")
    lines.append("@attribute class {0, 1, 2}")
    lines.append("@data")
    for row, label in zip(raw.features, raw.labels):
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

    @pytest.mark.parametrize("file, text, name", [
        ("bom.csv", "1.0,2.0,a\n2.0,1.0,b\n3.0,0.5,a\n0.5,3.0,b\n", "bom"),
        ("bom.dat", "@relation named\n@attribute x real\n@attribute cls {a, b}\n@data\n"
                    "1.0, a\n2.0, b\n3.0, a\n0.5, b\n", "named"),
    ])
    def test_a_byte_order_mark_is_not_data(self, tmp_path, file, text, name):
        # as some editors save UTF-8: a headerless CSV keeps its first row, and
        # a Keel file its @relation line
        cfg = RunConfig(datasets=(), output="")
        (tmp_path / file).write_bytes(b"\xef\xbb\xbf" + text.encode())
        ds = resolve_dataset(str(tmp_path / file), cfg)
        (tmp_path / file).write_bytes(text.encode())
        plain = resolve_dataset(str(tmp_path / file), cfg)
        assert ds.n_samples == 4 and ds.name == plain.name == name
        assert ds.features.tolist() == plain.features.tolist()
        assert ds.labels.tolist() == plain.labels.tolist()


class TestDecodeRules:
    """Rows holding `?` are dropped before any column is read, and the class
    column decodes like every nominal column: first match."""

    def test_keel_class_declared_twice_is_one_class(self):
        text = "@relation t\n@attribute x real\n@attribute cls {a, b, a}\n@data\n"
        ds = parse_keel(text + "1.0, a\n2.0, b\n3.0, a\n")
        assert ds.class_names == ("a", "b")
        assert ds.labels.tolist() == [0, 1, 0]

    def test_csv_category_only_in_a_dropped_row_has_no_column(self):
        ds = parse_csv("1,sun,x\n2,rain,y\n3,hail,?\n4,sun,y\n5,rain,x\n")
        assert ds.features.tolist() == [  # sun, rain; no hail
            [1.0, 1.0, 0.0], [2.0, 0.0, 1.0], [4.0, 1.0, 0.0], [5.0, 0.0, 1.0],
        ]

    def test_csv_class_only_in_a_dropped_row_is_no_class(self):
        ds = parse_csv("1,x\n2,y\n?,z\n4,x\n5,y\n")
        assert ds.class_names == ("x", "y")
        assert ds.labels.tolist() == [0, 1, 0, 1]

    def test_csv_header_judged_by_the_kept_rows(self):
        # `zz` sits only in a row dropped for its `?`, so it hides no header
        with_dropped = parse_csv("a,cls\n1,x\nzz,?\n3,y\n5,x\n")
        without = parse_csv("a,cls\n1,x\n3,y\n5,x\n")
        assert with_dropped.class_names == without.class_names == ("x", "y")
        assert with_dropped.features.tolist() == without.features.tolist() == [[1.0], [3.0], [5.0]]

    def test_keel_numeric_class_non_number_is_unknown_class(self):
        head = "@relation t\n@attribute x real\n@attribute cls real\n@data\n"
        with pytest.raises(DataFormatError, match="unknown class value 'a' in column cls"):
            parse_keel(head + "1.0, a\n2.0, 1\n3.0, 2\n")
        with pytest.raises(DataFormatError, match="unknown class value 'a' in column cls"):
            parse_keel(head + "1.0, 1\nz, a\n3.0, 2\n")  # a class cell before its features

    def test_equal_numeric_classes_are_one_class(self):
        ds = parse_csv("0.5,1\n0.7,1.0\n0.1,2\n0.2,2\n0.3,1\n")
        assert ds.class_names == ("1", "2")
        assert ds.labels.tolist() == [0, 0, 1, 1, 0]
        head = "@relation t\n@attribute x real\n@attribute cls real\n@data\n"
        ds = parse_keel(head + "1.0, 2\n2.0, -0.0\n3.0, 0\n4.0, 2.0\n5.0, 0e0\n")
        assert ds.class_names == ("-0.0", "2")  # by value, each spelt as it first appears
        assert ds.labels.tolist() == [1, 0, 0, 1, 0]

    def test_numeric_class_ties_keep_row_order_under_any_hash_seed(self):
        # `0` and `-0.0` are equal as numbers, so they are one class spelt as
        # it first appears, never as a set order that PYTHONHASHSEED sets
        code = (
            "import reference as ref\n"
            "from desbal.data import parse_keel\n"
            "head = '@relation t\\n@attribute x real\\n@attribute cls real\\n@data\\n'\n"
            "ds = parse_keel(head + '1.0, 0\\n2.0, -0.0\\n3.0, 0\\n4.0, 1\\n')\n"
            "rows = [['1.0', '0'], ['2.0', '-0.0'], ['3.0', '0'], ['4.0', '1']]\n"
            "_, labels, names = ref.decode_ref(rows, 1, 'cls', [None, None])\n"
            "print(ds.class_names, ds.labels.tolist(), names, labels)\n"
        )
        tests = Path(__file__).resolve().parent
        path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
        runs = [
            subprocess.Popen(
                [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=str(seed)),
            )
            for seed in range(1, 5)
        ]
        outputs = [run.communicate(timeout=60)[0] for run in runs]
        assert [run.returncode for run in runs] == [0] * 4
        assert set(outputs) == {"('0', '1') [0, 0, 0, 1] ('0', '1') [0, 0, 0, 1]\n"}

    def test_first_bad_cell_in_row_order(self):
        head = (
            "@relation t\n@attribute x real\n@attribute c {p, q}\n"
            "@attribute cls {a, b}\n@data\n"
        )
        with pytest.raises(DataFormatError, match="unknown nominal category 'r' in column 1"):
            parse_keel(head + "1.0, p, a\n2.0, r, b\nz, p, d\n")
        with pytest.raises(DataFormatError, match="unknown class value 'd' in column cls"):
            parse_keel(head + "1.0, p, a\nz, r, d\n")

    def test_non_finite_numeric_cell_is_bad(self):
        # float() reads nan, inf and -inf, but a feature value is finite; the
        # first bad cell in row order is reported, a non-number included
        rows = [f"{i}.0,{i % 3}.5,{'ab'[i % 2]}" for i in range(60)]
        rows[30], rows[7] = "2.0,inf,a", "nan,1.0,b"
        with pytest.raises(DataFormatError, match="^non-finite cell 'nan' in numeric column 0$"):
            parse_csv("\n".join(rows))
        rows[7] = "1.0,1.0,b"
        with pytest.raises(DataFormatError, match="^non-finite cell 'inf' in numeric column 1$"):
            parse_csv("\n".join(rows))
        head = "@relation t\n@attribute x real\n@attribute y real\n@attribute cls {a, b}\n@data\n"
        with pytest.raises(DataFormatError, match="^non-finite cell '-inf' in numeric column 1$"):
            parse_keel(head + "1.0, 2.0, a\n3.0, -inf, b\nnan, z, a\n")
        rows = [["1", "2", "a"], ["3", "Infinity", "b"], ["NaN", "4", "a"]]
        text = "".join(",".join(row) + "\n" for row in rows)
        assert _outcome(lambda: parse_csv(text)) == ref.decode_ref(rows, 2, "col2") == (
            "non-finite cell 'Infinity' in numeric column 1")
        # the class column keeps its own rules
        ds = parse_keel("@relation t\n@attribute x real\n@attribute cls {nan, inf}\n@data\n"
                        "1.0, nan\n2.0, inf\n")
        assert ds.class_names == ("nan", "inf") and ds.labels.tolist() == [0, 1]

    def test_non_finite_class_cell_is_bad(self):
        # a numeric class column's classes are its finite numbers: a nan among
        # them, unordered, would take its id from row order
        for text in ("2,1\n1,nan\n3,0\n", "3,0\n2,1\n1,nan\n", "1,0\n2,nan\n3,inf\n"):
            rows = [line.split(",") for line in text.splitlines()]
            assert _outcome(lambda: parse_csv(text)) == ref.decode_ref(rows, 1, "col1") == (
                "non-finite class value 'nan' in column col1")
        with pytest.raises(DataFormatError, match="^non-finite class value 'inf' in column col1$"):
            parse_csv("1,0\n2,1\n3,inf\n")
        head = "@relation t\n@attribute x real\n@attribute cls real\n@data\n"
        text = head + "1.0, 1\n2.0, -inf\nz, nan\n3.0, 0\n"
        rows = [["1.0", "1"], ["2.0", "-inf"], ["z", "nan"], ["3.0", "0"]]
        want = ref.decode_ref(rows, 1, "cls", [None, None])
        assert _outcome(lambda: parse_keel(text)) == want == (
            "non-finite class value '-inf' in column cls")
        with pytest.raises(DataFormatError, match="^non-finite class value 'nan' in column cls$"):
            parse_keel(head + "1.0, 1\n2.0, 0\n3.0, nan\n")


NUMBERS = ("0", "1", "2.5", "-0.0", "1e3", "0.1", "7", "-3.25")
WORDS = ("sun", "rain", "hail", "snow", "fog")


def random_table(rng):
    """A seeded random table for the decoding fuzz.

    Returns (rows, keel_specs, label_idx): 2-12 rows of 1-4 columns (one of
    them the class) that are numeric, nominal or mostly numeric, with about
    one `?` cell in ten. `keel_specs` declares each column for a Keel file:
    None (real) or categories that may repeat one or miss a used one; a real
    column, the class included, may hold a word.
    """
    n_rows, width = int(rng.integers(2, 13)), int(rng.integers(1, 5))
    label_idx = int(rng.integers(width))
    columns, specs = [], []
    for j in range(width):
        kind = rng.choice(["numeric", "nominal", "mixed"])
        pool = NUMBERS[: rng.integers(2, 5)] if j == label_idx else NUMBERS
        words = WORDS[: rng.integers(1, 6)]
        cells = [
            str(rng.choice(words)) if kind == "nominal" or (kind == "mixed" and rng.random() < 0.2)
            else str(rng.choice(pool))
            for _ in range(n_rows)
        ]
        if kind == "nominal":
            declared = [str(w) for w in rng.permutation(list(dict.fromkeys(cells)))]
            if rng.random() < 0.3:
                declared.insert(int(rng.integers(len(declared) + 1)), str(rng.choice(declared)))
            if len(declared) > 1 and rng.random() < 0.1:
                declared.pop()
            if rng.random() < 0.3:
                declared.append("spare")
            specs.append(tuple(declared))
        else:
            specs.append(None)
        columns.append(cells)
    rows = [[col[i] if rng.random() > 0.1 else "?" for col in columns] for i in range(n_rows)]
    return rows, specs, label_idx


def keel_text(rows, specs, label_idx, outputs=True):
    """`rows` as a Keel file; without `outputs` the class must be last."""
    lines = ["@relation fuzz"]
    for j, spec in enumerate(specs):
        kind = "real" if spec is None else "{" + ", ".join(spec) + "}"
        lines.append(f"@attribute a{j} {kind}")
    if outputs:
        lines.append(f"@outputs a{label_idx}")
    lines.append("@data")
    return "\n".join(lines + [", ".join(row) for row in rows]) + "\n"


def _outcome(parse):
    """(features, labels, class names) of a parse, or its error message."""
    try:
        ds = parse()
    except DataFormatError as exc:
        return str(exc)
    return ds.features.tolist(), ds.labels.tolist(), ds.class_names


class TestDecodeFuzz:
    """Seeded random tables decode as the row-by-row oracle says."""

    def test_keel(self):
        rng = np.random.default_rng(20240601)
        for _ in range(600):
            rows, specs, label_idx = random_table(rng)
            outputs = label_idx != len(specs) - 1 or rng.random() < 0.5
            text = keel_text(rows, specs, label_idx, outputs)
            want = ref.decode_ref(rows, label_idx, f"a{label_idx}", list(specs))
            assert _outcome(lambda: parse_keel(text)) == want, text

    def test_csv(self):
        rng = np.random.default_rng(20240602)
        for _ in range(600):
            rows, _, label_idx = random_table(rng)
            text = "\n".join(",".join(row) for row in rows) + "\n"
            want = ref.decode_ref(ref.csv_body_ref(rows), label_idx, f"col{label_idx}")
            assert _outcome(lambda: parse_csv(text, label_idx)) == want, text


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

    def test_constant_train_column_maps_to_zero_on_every_set(self):
        # a column of 0.1s has a rounded mean and a numpy std of about 1e-17
        train = Dataset("t", np.array([[5.0, 0.1, 1.0]] * 7 + [[5.0, 0.1, 3.0]]),
                        [0, 1] * 4, ("a", "b"))
        other = Dataset("o", np.array([[105.0, 0.2, 1.0], [5.0, 0.1, 3.0]]),
                        [0, 1], ("a", "b"))
        scaled_train, (scaled_other,), params = standardize(train, [other])
        assert params.std[:2].tolist() == [0.0, 0.0]
        assert np.array_equal(scaled_train.features[:, :2], np.zeros((8, 2)))
        assert np.array_equal(scaled_other.features[:, :2], np.zeros((2, 2)))
        assert np.array_equal(params.transform(other.features), scaled_other.features)
        assert scaled_other.features[:, 2].tolist() == [
            (v - params.mean[2]) / params.std[2] for v in (1.0, 3.0)
        ]

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

    def test_singleton_class_goes_to_fold_a(self, caplog):
        ds = _toy_dataset((5, 1))
        plan = stratified_5x2(ds, seed=2)
        assert "classes (1,) have a single sample" in caplog.text
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


class TestSubset:
    def _four_rows(self):
        return Dataset("four", np.arange(4.0)[:, None], np.array([0, 1, 0, 1]), ("a", "b"))

    def test_boolean_mask_selects_its_true_rows(self):
        ds = self._four_rows()
        sub = ds.subset([True, False, True, False])
        assert sub.features[:, 0].tolist() == [0.0, 2.0]
        assert sub.labels.tolist() == [0, 0]
        assert ds.subset(np.zeros(4, dtype=bool)).n_samples == 0

    def test_boolean_mask_of_the_wrong_length_raises(self):
        with pytest.raises(ValueError, match=r"boolean row mask needs shape \(4,\)"):
            self._four_rows().subset([True, False, True])

    def test_row_numbers_and_empty_list(self):
        ds = self._four_rows()
        assert ds.subset([3, 1, 1]).features[:, 0].tolist() == [3.0, 1.0, 1.0]
        assert ds.subset([]).n_samples == 0
