"""Pool generation, DSEL construction and persistence."""

import json
import math

import numpy as np
import pytest

import reference as ref
from desbal.benchmarks import load_benchmark
from desbal.data import Dataset, stratified_5x2
from desbal.pool import (
    BOOTSTRAP_FRACTION,
    MAX_BOOTSTRAP_REDRAWS,
    _bootstrap,
    build_dsel,
    generate_pool,
    load_pool,
    save_pool,
)
from desbal.rng import derive_seed, make_rng
from desbal.tree import TreeConfig, fit_tree


def _train(counts=(30, 12, 8), seed=0):
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.full(c, i) for i, c in enumerate(counts)])
    centers = rng.normal(scale=3.0, size=(len(counts), 3))
    features = centers[labels] + rng.normal(size=(labels.size, 3))
    return Dataset("train", features, labels, tuple("abc"[: len(counts)]))


class TestGeneratePool:
    def test_pool_size_100(self):
        pool = generate_pool(_train(), "Ba", pool_size=100, seed=1)
        assert len(pool) == 100

    @pytest.mark.parametrize("size", [0, -1])
    def test_empty_pool_refused_before_any_draw(self, size, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a generator was made")

        monkeypatch.setattr("desbal.pool.make_rng", no_draw)
        with pytest.raises(ValueError, match="pool_size must be >= 1"):
            generate_pool(_train(), "Ba-SM", pool_size=size, seed=1)

    def test_all_trees_share_schema(self):
        train = _train()
        pool = generate_pool(train, "Ba-SM", pool_size=10, seed=2)
        assert all(t.n_classes == train.n_classes for t in pool.classifiers)
        assert all(t.arity == train.n_features for t in pool.classifiers)

    def test_ba_uses_raw_bootstrap(self):
        # pool of one: the single tree must equal a tree fit on the bootstrap
        # drawn with the same derived generator and no preprocessing
        train = _train()
        pool = generate_pool(train, "Ba", pool_size=1, seed=3)
        rng = make_rng(3, "tree", 0)
        size = math.ceil(0.5 * train.n_samples)
        idx = rng.integers(0, train.n_samples, size=size)
        manual = fit_tree(
            train.features[idx], train.labels[idx], TreeConfig(),
            n_classes=train.n_classes,
        )
        probe = np.random.default_rng(9).normal(size=(40, 3))
        assert np.array_equal(
            pool.classifiers[0].predict_support(probe).argmax(-1),
            manual.predict_support(probe).argmax(-1),
        )

    def test_deterministic(self):
        train = _train()
        probe = np.random.default_rng(5).normal(size=(30, 3))
        one = generate_pool(train, "Ba-RM", pool_size=8, seed=7)
        two = generate_pool(train, "Ba-RM", pool_size=8, seed=7)
        assert np.array_equal(one.predict_all(probe), two.predict_all(probe))

    def test_bootstraps_keep_every_class(self):
        # rare class: redraws should still deliver it to (almost) every tree
        train = _train(counts=(30, 2))
        pool = generate_pool(train, "Ba", pool_size=20, seed=11)
        with_both = sum(
            1 for tree in pool.classifiers if len(np.unique(np.argmax(tree.counts, axis=1))) > 1
        )
        assert with_both >= 18

    def test_predictions_pure(self):
        train = _train()
        pool = generate_pool(train, "Ba-SM100", pool_size=5, seed=13)
        probe = np.random.default_rng(1).normal(size=(20, 3))
        assert np.array_equal(pool.predict_all(probe), pool.predict_all(probe))

    def test_supports_sample_major(self):
        pool = generate_pool(_train(), "Ba-RM", pool_size=6, seed=4)
        probe = np.random.default_rng(3).normal(size=(15, 3))
        by_tree, by_sample = pool.support_all(probe), pool.support_all(probe, axis=1)
        assert by_sample.shape == (15, 6, 3) and by_sample.flags.c_contiguous
        assert by_sample.tobytes() == np.ascontiguousarray(by_tree.swapaxes(0, 1)).tobytes()

    def test_supports_refuse_a_lone_row(self):
        # (n, d) rows only, as `tree.predict_support` takes them
        pool = generate_pool(_train(), "Ba", pool_size=3, seed=4)
        for X in (np.zeros(3), np.zeros((2, 4))):
            with pytest.raises(ValueError, match="arity mismatch"):
                pool.support_all(X)


class TestBootstrap:
    @pytest.mark.parametrize("name", ["glass", "ecoli"])
    def test_class_count_rule_matches_set_rule(self, name):
        # ecoli's 2-row classes leave one row in a training half, so some
        # draws redraw to the cap and come back incomplete
        ds = load_benchmark(name)
        plan = stratified_5x2(ds, derive_seed(20240601, "split", ds.name))
        flags = []
        for rep, fold, train_idx, _ in list(plan.folds())[:2]:
            train = ds.subset(train_idx)
            size = math.ceil(BOOTSTRAP_FRACTION * train.n_samples)
            for i in range(60):
                got_rng, want_rng = make_rng(rep, fold, i), make_rng(rep, fold, i)
                idx, complete = _bootstrap(train, size, got_rng)
                want_idx, want_complete = ref.bootstrap_ref(
                    train.labels, size, want_rng, MAX_BOOTSTRAP_REDRAWS
                )
                assert np.array_equal(idx, want_idx)
                assert complete == want_complete
                flags.append(complete)
        assert any(flags)
        if name == "ecoli":
            assert not all(flags)

    def test_a_class_missing_from_train_is_not_required(self):
        train = _train(counts=(6, 0, 4))
        idx, complete = _bootstrap(train, 5, np.random.default_rng(0))
        assert complete
        assert set(train.labels[idx].tolist()) == {0, 2}


class TestBuildDsel:
    def test_ba_identity(self):
        train = _train()
        dsel = build_dsel(train, "Ba", seed=1)
        assert np.array_equal(dsel.features, train.features)
        assert np.array_equal(dsel.labels, train.labels)

    def test_sm_equalizes_counts(self):
        train = _train((50, 20, 10))
        dsel = build_dsel(train, "Ba-SM", seed=1)
        assert np.bincount(dsel.labels).tolist() == [50, 50, 50]

    def test_train_is_prefix_for_every_variant(self):
        train = _train((20, 10, 6))
        for variant in ("Ba", "Ba-SM", "Ba-SM100", "Ba-RM", "Ba-RM100", "Ba-RB"):
            dsel = build_dsel(train, variant, seed=2)
            assert dsel.n_samples >= train.n_samples
            assert np.array_equal(dsel.features[: train.n_samples], train.features)
            assert np.array_equal(dsel.labels[: train.n_samples], train.labels)

    def test_rb_appends_only_synthetics(self):
        train = _train((20, 10, 6))
        dsel = build_dsel(train, "Ba-RB", seed=3)
        extra = dsel.n_samples - train.n_samples
        # RB synthesizes at most (total - 2 * (L - 1)) - n_c rows per class
        assert 0 <= extra <= train.n_samples


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        train = _train()
        pool = generate_pool(train, "Ba-SM", pool_size=4, seed=5)
        save_pool(pool, tmp_path / "pool")
        loaded = load_pool(tmp_path / "pool")
        assert loaded.variant == pool.variant
        assert loaded.generation_seed == pool.generation_seed
        assert len(loaded) == len(pool)
        probe = np.random.default_rng(2).normal(size=(25, 3))
        assert np.array_equal(loaded.predict_all(probe), pool.predict_all(probe))
        assert np.allclose(loaded.support_all(probe), pool.support_all(probe))

    def test_save_load_save_writes_the_same_bytes(self, tmp_path):
        pool = generate_pool(_train(), "Ba-RM", pool_size=3, seed=2)
        save_pool(pool, tmp_path / "a")
        save_pool(load_pool(tmp_path / "a"), tmp_path / "b")
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == ["manifest.json", "tree_000.json", "tree_001.json", "tree_002.json"]
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == names
        for name in names:
            assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert list(manifest) == ["variant", "generation_seed", "pool_size", "n_classes",
                                  "arity"]
        assert manifest["arity"] == 3

    def test_a_manifest_with_the_old_scaling_key_loads(self, tmp_path):
        # pools saved before the key was dropped name a scaling file in it
        pool = generate_pool(_train(), "Ba", pool_size=2, seed=4)
        save_pool(pool, tmp_path)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    "scaling_params": "scaling.txt"}, indent=2))
        probe = np.random.default_rng(2).normal(size=(10, 3))
        assert np.array_equal(load_pool(tmp_path).predict_all(probe), pool.predict_all(probe))

    def test_a_tampered_tree_is_refused(self, tmp_path):
        pool = generate_pool(_train(), "Ba", pool_size=2, seed=4)
        save_pool(pool, tmp_path)
        path = tmp_path / "tree_000.json"
        saved = json.loads(path.read_text())
        assert saved["feature"][0] != -1
        saved["left"][0] = 0  # the root becomes its own left child
        path.write_text(json.dumps(saved))
        with pytest.raises(ValueError, match="not greater than its parent's"):
            load_pool(tmp_path)

    @pytest.mark.parametrize("field", ["n_classes", "arity"])
    def test_a_tree_that_disagrees_with_the_manifest_is_refused(self, tmp_path, field):
        pool = generate_pool(_train(), "Ba", pool_size=2, seed=4)
        save_pool(pool, tmp_path)
        path = tmp_path / "tree_001.json"
        saved = json.loads(path.read_text())
        saved[field] += 1  # still a walkable tree on its own
        if field == "n_classes":
            saved["counts"] = [row + [0.0] for row in saved["counts"]]
        path.write_text(json.dumps(saved))
        with pytest.raises(ValueError, match=f"tree_001.json: {field} is"):
            load_pool(tmp_path)
