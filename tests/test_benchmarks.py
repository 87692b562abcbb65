"""Benchmark catalogue resolution and synthetic stand-in shapes."""

import sys
import types

import numpy as np
import pytest

from desbal.benchmarks import CATALOG, load_benchmark, synthetic_like
from desbal.data import ImbalanceProfile


TABLE_SHAPES = {
    "wine": (178, 13, 3, 1.48),
    "glass": (214, 9, 6, 8.44),
    "new-thyroid": (215, 5, 3, 5.00),
    "ecoli": (336, 7, 8, 71.50),
}


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_synthetic_matches_published_shape(name):
    ds = synthetic_like(name)
    n, d, L, ir = TABLE_SHAPES[name]
    assert ds.n_samples == n
    assert ds.n_features == d
    assert ds.n_classes == L
    profile = ImbalanceProfile.from_dataset(ds)
    assert profile.imbalance_ratio == pytest.approx(ir, abs=0.01)


def test_synthetic_deterministic():
    a = synthetic_like("glass")
    b = synthetic_like("glass")
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_wine_ignores_installed_packages(monkeypatch):
    # the config alone picks the source: an importable dataset package
    # (here a stub scikit-learn with 4 rows of wine) changes nothing
    stub = types.ModuleType("sklearn.datasets")
    stub.load_wine = lambda: types.SimpleNamespace(
        data=np.zeros((4, 13)), target=np.array([0, 1, 2, 0]),
        target_names=np.array(["a", "b", "c"]))
    monkeypatch.setitem(sys.modules, "sklearn", types.ModuleType("sklearn"))
    monkeypatch.setitem(sys.modules, "sklearn.datasets", stub)
    ds = load_benchmark("wine")
    assert ds.name == "wine-synthetic"
    assert ds.features.tobytes() == synthetic_like("wine").features.tobytes()


def test_missing_keel_file_raises(tmp_path):
    # with a data directory, a missing file is an error naming its path,
    # never a silent switch to the stand-in
    with pytest.raises(FileNotFoundError, match="glass.dat"):
        load_benchmark("glass", data_dir=tmp_path)


def test_keel_file_preferred(tmp_path):
    text = (
        "@relation mini\n@attribute a real\n@attribute b real\n"
        "@attribute c real\n@attribute d real\n@attribute e real\n"
        "@attribute cls {x, y}\n@data\n"
        + "\n".join(f"{i}.0,1,2,3,4,{'x' if i % 2 else 'y'}" for i in range(10))
    )
    (tmp_path / "new-thyroid.dat").write_text(text)
    ds = load_benchmark("new-thyroid", data_dir=tmp_path)
    assert ds.n_samples == 10  # the dropped-in file wins over the stand-in


def test_a_keel_file_with_a_byte_order_mark_keeps_its_relation(tmp_path):
    text = "@relation mini\n@attribute a real\n@attribute cls {x, y}\n@data\n1.0, x\n2.0, y\n"
    (tmp_path / "wine.dat").write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert load_benchmark("wine", data_dir=tmp_path).name == "mini"


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_keel_round_trip_of_the_catalogue(tmp_path, name):
    # every shape the catalogue holds, up to 8 classes and 2-row classes,
    # through the data_dir path: repr-written numbers come back exactly
    ds = synthetic_like(name)
    lines = [f"@relation {name}"]
    lines += [f"@attribute x{j} real" for j in range(ds.n_features)]
    lines += ["@attribute class {" + ", ".join(ds.class_names) + "}", "@data"]
    lines += [
        ", ".join(repr(float(v)) for v in row) + f", {ds.class_names[label]}"
        for row, label in zip(ds.features, ds.labels)
    ]
    (tmp_path / f"{name}.dat").write_text("\n".join(lines) + "\n")
    loaded = load_benchmark(name, data_dir=tmp_path)
    assert loaded.features.tobytes() == ds.features.tobytes()
    assert np.array_equal(loaded.labels, ds.labels)
    assert loaded.class_names == ds.class_names


def test_unknown_name():
    with pytest.raises(ValueError, match="unknown benchmark"):
        load_benchmark("abalone")
