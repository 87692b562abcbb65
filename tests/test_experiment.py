"""Runner configuration, record persistence, resumption and reporting."""

import logging
import multiprocessing
import os
import threading
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import desbal.experiment as experiment
from desbal.experiment import (
    HEADER_LINE,
    RECORD_COLUMNS,
    RESULTS_FILE,
    ConfigError,
    IncompleteGridError,
    RunConfig,
    _plan,
    config_hash,
    make_report,
    parse_config_text,
    resolve_dataset,
    run_experiment,
    validate_config,
)
from desbal.metrics import METRIC_NAMES

CONFIG_TEXT = """# desk benchmark
datasets = {path}
variants = Ba, Ba-SM
selectors = STATIC, KNU, RANK
metrics = auc, fmeasure, gmean
pool_size = 4
k = 3
seed = 11
output = {out}
"""


@pytest.fixture
def csv_dataset(tmp_path):
    rng = np.random.default_rng(0)
    rows = []
    for label, (count, center) in enumerate([(20, 0.0), (10, 2.0)]):
        for _ in range(count):
            x = rng.normal(center, 1.0, size=3)
            rows.append(f"{x[0]:.6f},{x[1]:.6f},{x[2]:.6f},{label}")
    path = tmp_path / "toy.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


# two CSV datasets that 5x2 cross-validation cannot fully score
ONE_AND_FIVE = "0.1,0.2,a\n0.5,0.1,b\n0.7,0.3,b\n0.2,0.9,b\n0.4,0.4,b\n0.8,0.6,b\n"
TWO_ONES = "0.1,0.2,a\n0.5,0.1,b\n"


def _small_run(csv_path, out_dir, metrics) -> RunConfig:
    """`csv_path`, then wine: Ba and KNU over pools of 3 trees."""
    return RunConfig(datasets=(str(csv_path), "builtin:wine"), output=str(out_dir),
                     variants=("Ba",), selectors=("KNU",), metrics=metrics, pool_size=3)


def _config(csv_path, out_dir, **overrides) -> RunConfig:
    cfg = parse_config_text(
        CONFIG_TEXT.format(path=csv_path, out=out_dir)
    )
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


class TestConfig:
    def test_parse_roundtrip(self, csv_dataset, tmp_path):
        cfg = _config(csv_dataset, tmp_path / "r")
        assert cfg.variants == ("Ba", "Ba-SM")
        assert cfg.pool_size == 4
        assert cfg.seed == 11
        reparsed = parse_config_text(cfg.canonical_text())
        assert reparsed == cfg
        assert config_hash(reparsed) == config_hash(cfg)

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("datasets = x\noutput = y\nbogus = 1\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="datasets"):
            parse_config_text("output = y\n")

    def test_validation_catches_bad_names(self, csv_dataset, tmp_path):
        cfg = _config(csv_dataset, tmp_path / "r", selectors=("KNU", "NOPE"))
        problems = validate_config(cfg)
        assert any("NOPE" in p for p in problems)
        cfg = _config(csv_dataset, tmp_path / "r", variants=("Ba", "SMOTEBOOST"))
        assert validate_config(cfg)
        cfg = _config(csv_dataset, tmp_path / "r", metrics=("auc", "accuracy"))
        assert any("accuracy" in p for p in problems) or validate_config(cfg)

    def test_unknown_names_keep_their_messages(self, csv_dataset, tmp_path):
        cfg = _config(csv_dataset, tmp_path / "r", variants=(" smoteboost ",),
                      selectors=("NOPE",))
        assert validate_config(cfg) == [
            "unknown resampling variant ' smoteboost '; choose from "
            "('Ba', 'Ba-RM100', 'Ba-RM', 'Ba-SM100', 'Ba-SM', 'Ba-RB')",
            "unknown selector 'NOPE'; choose from ('STATIC', 'RANK', 'LCA', 'MCB', "
            "'KNE', 'KNU', 'DES-KNN', 'DESP', 'DES-RRC', 'META-DES', 'F-LCA', 'F-MCB', "
            "'F-KNE', 'F-KNU', 'F-DES-KNN')",
        ]

    def test_entries_repeated_after_normalization_rejected(self, csv_dataset, tmp_path):
        # a repeated variant would be run and ranked twice in the report
        text = CONFIG_TEXT.format(path=csv_dataset, out=tmp_path / "r").replace(
            "variants = Ba, Ba-SM", "variants = Ba, ba, Ba-SM"
        ).replace("selectors = STATIC, KNU, RANK", "selectors = STATIC, knu, KNU").replace(
            "metrics = auc, fmeasure, gmean", "metrics = auc, AUC"
        )
        problems = validate_config(parse_config_text(text))
        assert "variants lists Ba more than once" in problems
        assert "selectors lists KNU more than once" in problems
        assert "metrics lists auc more than once" in problems
        cfg = _config(csv_dataset, tmp_path / "r", datasets=(str(csv_dataset),) * 2)
        assert validate_config(cfg) == [f"datasets lists {csv_dataset} more than once"]
        with pytest.raises(ConfigError, match="more than once"):
            run_experiment(cfg)
        assert not (tmp_path / "r").exists()

    def test_key_given_twice_rejected(self):
        text = "datasets = x\nseed = 1\noutput = y\n\n# again\nSeed = 2\n"
        with pytest.raises(ConfigError, match=r"^line 6: key 'seed' already set on line 2$"):
            parse_config_text(text)

    def test_empty_output_rejected(self, csv_dataset, tmp_path):
        text = CONFIG_TEXT.format(path=csv_dataset, out="")
        problems = validate_config(parse_config_text(text))
        assert problems == ["output is empty; name the directory to write into"]
        cfg = _config(csv_dataset, tmp_path / "r", output="  ")
        assert validate_config(cfg) == problems
        with pytest.raises(ConfigError, match="output is empty"):
            run_experiment(cfg)

    @pytest.mark.parametrize("key", ["variants", "selectors", "metrics"])
    def test_empty_list_rejected(self, csv_dataset, tmp_path, key):
        # an empty list would run nothing and write no record
        text = CONFIG_TEXT.format(path=csv_dataset, out=tmp_path / "r")
        line = next(line for line in text.splitlines() if line.startswith(key))
        cfg = parse_config_text(text.replace(line, f"{key} ="))
        assert getattr(cfg, key) == ()
        assert validate_config(cfg) == [f"no {key} configured"]
        with pytest.raises(ConfigError, match=f"^no {key} configured$"):
            run_experiment(cfg)
        assert not (tmp_path / "r").exists()

    def test_config_hash_is_pinned(self):
        # the hash names an output directory: a new RunConfig field, or any
        # change to canonical_text, would lock every existing one out
        cfg = RunConfig(
            datasets=("builtin:glass", "data/toy.csv"), output="out", variants=("Ba", "Ba-SM"),
            selectors=("STATIC", "META-DES"), metrics=("auc",), pool_size=5, k=3, seed=7,
            csv_label_column=0, data_dir="keel",
        )
        assert config_hash(cfg) == "71cc3a3769981b07"

    def test_unknown_selector_fails_before_training(self, csv_dataset, tmp_path):
        out = tmp_path / "never"
        cfg = _config(csv_dataset, out, selectors=("KNU", "NOPE"))
        with pytest.raises(ConfigError):
            run_experiment(cfg)
        assert not (out / "results.tsv").exists()


class TestRun:
    def test_record_count(self, csv_dataset, tmp_path):
        cfg = _config(csv_dataset, tmp_path / "run")
        summary = run_experiment(cfg)
        # 1 dataset x 2 variants x 3 selectors x 3 metrics x 10 folds
        assert summary.records_written == 180
        lines = summary.results_path.read_text().splitlines()
        assert len(lines) == 181  # header included

    def test_deterministic_metric_values(self, csv_dataset, tmp_path):
        cfg_a = _config(csv_dataset, tmp_path / "a")
        cfg_b = _config(csv_dataset, tmp_path / "b", output=str(tmp_path / "b"))
        run_experiment(cfg_a)
        run_experiment(cfg_b)

        def keyed_values(path):
            rows = [l.split("\t") for l in path.read_text().splitlines()[1:]]
            return {tuple(r[:6]): r[6] for r in rows}

        assert keyed_values(tmp_path / "a" / "results.tsv") == keyed_values(
            tmp_path / "b" / "results.tsv"
        )

    def test_resume_is_idempotent(self, csv_dataset, tmp_path):
        cfg = _config(csv_dataset, tmp_path / "resume")
        first = run_experiment(cfg)
        content = first.results_path.read_text()
        second = run_experiment(cfg)
        assert second.records_written == 0
        assert first.results_path.read_text() == content

    def test_resume_fills_missing_records(self, csv_dataset, tmp_path):
        cfg = _config(csv_dataset, tmp_path / "partial")
        run_experiment(cfg)
        path = cfg.output + "/results.tsv"
        lines = Path(path).read_text().splitlines()
        kept, dropped = lines[:-6], lines[-6:]
        with open(path, "w") as fh:
            fh.write("\n".join(kept) + "\n")
        summary = run_experiment(cfg)
        assert summary.records_written == 6
        final = {tuple(l.split("\t")[:6]) for l in Path(path).read_text().splitlines()[1:]}
        assert {tuple(l.split("\t")[:6]) for l in dropped} <= final

    def test_resume_recomputes_torn_last_line(self, csv_dataset, tmp_path):
        cfg = _config(csv_dataset, tmp_path / "torn")
        run_experiment(cfg)
        path = tmp_path / "torn" / "results.tsv"
        content = path.read_text()
        last = content.splitlines()[-1]
        # a write cut short: all 8 columns present, wall time and newline cut
        path.write_text(content[: len(content) - len(last) - 1] + last[:-3])
        assert len(path.read_text().splitlines()[-1].split("\t")) == 8
        summary = run_experiment(cfg)
        assert summary.records_written == 1
        assert path.read_text().splitlines()[-1].split("\t")[:7] == last.split("\t")[:7]
        for metric in ("auc", "fmeasure", "gmean"):
            make_report(tmp_path / "torn", metric)

    @pytest.mark.parametrize("k", [110, 500])
    def test_metades_region_beyond_the_dsel(self, tmp_path, k):
        # glass's training halves hold 105 to 109 rows, and so does Ba's DSEL:
        # META-DES trains on regions of the n - 1 other rows, a query reads as many
        cfg = RunConfig(
            datasets=("builtin:glass",), output=str(tmp_path / "r"), variants=("Ba",),
            selectors=("META-DES",), pool_size=3, k=k,
        )
        assert run_experiment(cfg).records_written == 10 * len(cfg.metrics)
        for metric in cfg.metrics:
            assert "Average rank" in make_report(tmp_path / "r", metric)

    def test_failed_dataset_isolated(self, csv_dataset, tmp_path):
        cfg = _config(csv_dataset, tmp_path / "iso")
        cfg = replace(cfg, datasets=(str(tmp_path / "missing.csv"), str(csv_dataset)))
        summary = run_experiment(cfg)
        assert summary.failed_datasets == [str(tmp_path / "missing.csv")]
        assert summary.records_written == 180

    @pytest.mark.parametrize("rows, metrics, reason", [
        # class a's one row is always in fold A, so every fold B tests class b alone
        (ONE_AND_FIVE, METRIC_NAMES, "replication 1 fold B: AUC needs 2 test classes"),
        # both rows are in fold A, so the fold tested on A trains on nothing
        (TWO_ONES, ("fmeasure",), "cannot standardize an empty training set"),
    ], ids=["one-class-test-half", "empty-training-half"])
    def test_unplannable_dataset_fails_alone(self, tmp_path, caplog, rows, metrics, reason):
        bad = tmp_path / "bad.csv"
        bad.write_text(rows)
        cfg = _small_run(bad, tmp_path / "out", metrics)
        with caplog.at_level("ERROR", logger="desbal"):
            summary = run_experiment(cfg)
        assert summary.failed_datasets == [str(bad)]
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
            f"dataset {bad} skipped: {reason}"]
        wine = resolve_dataset("builtin:wine", cfg).name
        records = _first_seven(tmp_path / "out" / RESULTS_FILE)[1:]
        assert summary.records_written == len(records) == 10 * len(metrics)
        assert {r[0] for r in records} == {wine}
        assert list((tmp_path / "out").glob("scaling_bad_*")) == []

    def test_one_class_test_half_runs_without_auc(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(ONE_AND_FIVE)
        summary = run_experiment(_small_run(bad, tmp_path / "out", ("fmeasure", "gmean")))
        assert summary.failed_datasets == []
        records = _first_seven(tmp_path / "out" / RESULTS_FILE)[1:]
        assert summary.records_written == len(records) == 2 * 10 * 2
        assert sum(r[0] == "bad" for r in records) == 10 * 2

    def test_entry_reusing_a_dataset_name_fails(self, csv_dataset, tmp_path, caplog):
        # a/toy.csv and b/toy.csv both name their dataset "toy", so the second
        # entry's record keys would repeat the first's
        specs = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            specs.append(str(tmp_path / sub / "toy.csv"))
            Path(specs[-1]).write_text(csv_dataset.read_text())
        cfg = replace(_config(csv_dataset, tmp_path / "dup"), datasets=tuple(specs))
        with caplog.at_level("ERROR", logger="desbal"):
            summary = run_experiment(cfg)
        assert summary.failed_datasets == [specs[1]]
        assert summary.records_written == 180
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and specs[0] in errors[0] and specs[1] in errors[0]
        keys = [line.split("\t")[:6] for line in
                (tmp_path / "dup" / RESULTS_FILE).read_text().splitlines()[1:]]
        assert len(keys) == 180 and len({tuple(k) for k in keys}) == 180

    def test_output_dir_config_clash(self, csv_dataset, tmp_path):
        cfg = _config(csv_dataset, tmp_path / "clash")
        run_experiment(cfg)
        other = replace(cfg, seed=99)
        with pytest.raises(ConfigError, match="different configuration"):
            run_experiment(other)

    def test_manifest_hash_read_from_its_own_line(self, csv_dataset, tmp_path):
        cfg = _config(csv_dataset, tmp_path / "other")
        (tmp_path / "other").mkdir()
        (tmp_path / "other" / "manifest.txt").write_text(
            f"config_hash = {'0' * 16}\ncode_version = 0\n"
            f"config_hash = {config_hash(cfg)}\n--- config ---\n"
        )
        with pytest.raises(ConfigError, match="different configuration"):
            run_experiment(cfg)

    def test_resume_recomputes_one_deleted_cell(self, csv_dataset, tmp_path):
        cfg = _config(csv_dataset, tmp_path / "cell")
        run_experiment(cfg)
        path = tmp_path / "cell" / "results.tsv"
        header, *rows = path.read_text().splitlines(keepends=True)
        full = {tuple(r.split("\t")[:6]): r.split("\t")[6] for r in rows}
        # one (dataset, replication, fold, variant) cell from the middle
        cell = ("toy", "Ba-SM", "3", "A")

        def in_cell(row):
            d, v, _s, rep, fold = row.split("\t")[:5]
            return (d, v, rep, fold) == cell

        kept = [r for r in rows if not in_cell(r)]
        deleted = len(rows) - len(kept)
        assert deleted == 9 and not in_cell(rows[-1])
        path.write_text(header + "".join(kept))

        done = {tuple(r.split("\t")[:6]) for r in kept}
        planned = [
            (rep, fold, cells)
            for rep, fold, _train, _test, _params, cells
            in _plan(cfg, resolve_dataset(str(csv_dataset), cfg), done)
        ]
        assert planned == [(2, "A", [("Ba-SM", ["STATIC", "KNU", "RANK"])])]

        summary = run_experiment(cfg)
        assert summary.records_written == deleted
        assert summary.records_skipped == len(kept)
        rows = path.read_text().splitlines()[1:]
        assert {tuple(r.split("\t")[:6]): r.split("\t")[6] for r in rows} == full

    @pytest.mark.parametrize("cut", [0, 5, 20, -30])
    def test_interrupted_manifest_write_resumes(self, csv_dataset, tmp_path,
                                                monkeypatch, cut):
        cfg = _config(csv_dataset, tmp_path / "crash")
        _crash_writes(monkeypatch, "config_hash = ", cut)
        with pytest.raises(OSError, match="crash"):
            run_experiment(cfg)
        monkeypatch.undo()
        summary = run_experiment(cfg)
        assert summary.records_written == 180
        for metric in ("auc", "fmeasure", "gmean"):
            make_report(tmp_path / "crash", metric)
        assert not list((tmp_path / "crash").glob("*.tmp"))

    def test_interrupted_scaling_write_rewritten(self, csv_dataset, tmp_path,
                                                 monkeypatch):
        clean = _config(csv_dataset, tmp_path / "clean")
        run_experiment(clean)
        cfg = _config(csv_dataset, tmp_path / "torn")
        _crash_writes(monkeypatch, "mean=", 5)
        with pytest.raises(OSError, match="crash"):
            run_experiment(cfg)
        monkeypatch.undo()
        run_experiment(cfg)
        scaling = sorted(p.name for p in (tmp_path / "clean").glob("scaling_*"))
        assert len(scaling) == 10
        assert sorted(p.name for p in (tmp_path / "torn").glob("scaling_*")) == scaling
        for name in scaling:
            assert (tmp_path / "torn" / name).read_text() == (
                tmp_path / "clean" / name
            ).read_text()

    def test_foreign_results_header_refused(self, csv_dataset, tmp_path):
        cfg = _config(csv_dataset, tmp_path / "foreign")
        path = tmp_path / "foreign" / "results.tsv"
        path.parent.mkdir()
        foreign = "id\tscore\n1\t0.5\n"
        path.write_text(foreign)
        with pytest.raises(IncompleteGridError, match="unexpected results header"):
            run_experiment(cfg)
        assert path.read_text() == foreign
        assert not (tmp_path / "foreign" / "manifest.txt").exists()

    @pytest.mark.parametrize("foreign", ["id\tscore", "id\tscore\n1\t0.5\n2\t0."])
    def test_foreign_results_never_truncated(self, csv_dataset, tmp_path, foreign):
        # an unterminated last line of a foreign file is not a torn record
        cfg = _config(csv_dataset, tmp_path / "foreign")
        path = tmp_path / "foreign" / "results.tsv"
        path.parent.mkdir()
        path.write_text(foreign)
        with pytest.raises(IncompleteGridError, match="unexpected results header"):
            run_experiment(cfg)
        assert path.read_text() == foreign
        assert not (tmp_path / "foreign" / "manifest.txt").exists()

    @pytest.mark.parametrize("first, accepted", [
        ("", True), ("d", True), ("dataset\tvar", True), (HEADER_LINE[:-1], True),
        (HEADER_LINE, True), ("dataset\tvar\n", False), ("id\tscore", False),
        ("id\tscore\n", False), (HEADER_LINE[:-1] + "\textra\n", False),
    ])
    def test_reading_and_resuming_accept_the_same_first_lines(self, tmp_path, first, accepted):
        # an unterminated prefix of the header is a header torn by a cut
        path = tmp_path / RESULTS_FILE
        for step in (experiment._read_records, experiment._drop_torn_tail):
            path.write_text(first)
            try:
                step(path)
            except IncompleteGridError:
                assert not accepted, step.__name__
                assert path.read_text() == first
            else:
                assert accepted, step.__name__

    def test_resume_after_a_cut_at_any_byte(self, tmp_path):
        # a crash can cut results.tsv at any byte of the records last written
        # or of the header; resuming must give the uninterrupted run
        out = tmp_path / "cut"
        cfg = RunConfig(
            datasets=("builtin:glass",), output=str(out), variants=("Ba", "Ba-SM"),
            selectors=("STATIC", "KNU"), metrics=("auc", "gmean"), pool_size=2,
        )
        run_experiment(cfg)
        path = out / RESULTS_FILE
        full = path.read_bytes()
        report = make_report(out, "auc")
        lines = full.splitlines(keepends=True)
        header = len(lines[0])
        last_three = len(full) - sum(len(line) for line in lines[-3:])

        def first_seven(data):
            return [line.split(b"\t")[:7] for line in data.splitlines()]

        for offset in [0, 1, header - 1, header, *range(last_three, len(full))]:
            path.write_bytes(full[:offset])
            run_experiment(cfg)
            assert first_seven(path.read_bytes()) == first_seven(full), offset
            assert make_report(out, "auc") == report, offset

    @pytest.mark.parametrize("content", ["", "\t".join(RECORD_COLUMNS) + "\n"])
    def test_empty_or_header_only_results_hold_no_records(self, csv_dataset,
                                                          tmp_path, content):
        cfg = _config(csv_dataset, tmp_path / "bare")
        path = tmp_path / "bare" / "results.tsv"
        path.parent.mkdir()
        path.write_text(content)
        summary = run_experiment(cfg)
        assert (summary.records_written, summary.records_skipped) == (180, 0)
        lines = path.read_text().splitlines()
        assert lines[0] == "\t".join(RECORD_COLUMNS)
        assert lines.count(lines[0]) == 1


def _first_seven(path):
    return [line.split("\t")[:7] for line in Path(path).read_text().splitlines()]


def _held_log(run):
    """`run()` and the (name, level, message) of every desbal record it logs."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    package_logger = logging.getLogger("desbal")
    level = package_logger.level
    package_logger.addHandler(handler)
    package_logger.setLevel(logging.DEBUG)
    try:
        run()
    finally:
        package_logger.removeHandler(handler)
        package_logger.setLevel(level)
    return [(r.name, r.levelname, r.getMessage()) for r in records]


def _glass_cells(out_dir) -> RunConfig:
    return RunConfig(
        datasets=("builtin:glass",), output=str(out_dir), variants=("Ba", "Ba-SM"),
        selectors=("STATIC", "KNU", "META-DES"), pool_size=5,
    )


@pytest.fixture(scope="module")
def parallel_run(tmp_path_factory):
    """A glass run on two processes: its config and its log."""
    cfg = _glass_cells(tmp_path_factory.mktemp("parallel"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        log = _held_log(lambda: run_experiment(cfg))
    return cfg, log


class TestParallelCells:
    """Cells run in this process and forked workers, one process per CPU of
    the affinity mask; the writer takes them back in plan order."""

    def test_parallel_equals_in_process(self, parallel_run, tmp_path, monkeypatch):
        cfg, parallel_log = parallel_run
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = _glass_cells(tmp_path / "serial")
        serial_log = _held_log(lambda: run_experiment(serial))
        assert _first_seven(Path(serial.output) / RESULTS_FILE) == _first_seven(
            Path(cfg.output) / RESULTS_FILE)
        # the log is the same line for line, but for the count of processes
        name, level, head = "desbal.experiment", "INFO", "dataset glass-synthetic: 20 cells left, "
        at = parallel_log.index((name, level, head + "run in this process and 1 forked worker(s)"))
        assert serial_log.pop(at) == (name, level, head + "run in this process")
        assert serial_log == parallel_log[:at] + parallel_log[at + 1:]
        assert ("desbal.resampling", "DEBUG") in {(name, level) for name, level, _ in serial_log}

    def test_this_process_runs_cells_beside_the_worker(self, tmp_path, monkeypatch):
        """The run process takes every cell no worker has started, so it
        computes beside the worker instead of waiting for it."""
        evaluate_cell = experiment.evaluate_cell

        def logs_its_process(*cell):
            logging.getLogger("desbal.experiment").info("cell in %d", os.getpid())
            return evaluate_cell(*cell)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(experiment, "evaluate_cell", logs_its_process)  # forks inherit it
        log = _held_log(lambda: run_experiment(_glass_cells(tmp_path / "out")))
        pids = [int(message.split()[-1]) for _, _, message in log
                if message.startswith("cell in ")]
        assert len(pids) == 20
        assert os.getpid() in pids and len(set(pids)) == 2

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_raising_cell_leaves_a_prefix_that_resume_completes(self, parallel_run, tmp_path,
                                                                monkeypatch, cpus):
        cfg = _glass_cells(tmp_path / "crash")
        evaluate_cell = experiment.evaluate_cell

        def third_cell_raises(cfg, train, test, variant, rep, fold, selectors):
            if (variant, rep, fold) == ("Ba", 0, "A"):  # plan order: rep 1 B Ba, B Ba-SM, A Ba
                logging.getLogger("desbal.pool").warning("third cell warns")
                raise RuntimeError("third cell failed")
            return evaluate_cell(cfg, train, test, variant, rep, fold, selectors)

        def crash():
            with pytest.raises(RuntimeError, match="third cell failed"):
                run_experiment(cfg)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(experiment, "evaluate_cell", third_cell_raises)  # forks inherit it
        log = _held_log(crash)
        # the failing cell's records come last, after the fold done before it
        assert log[-2:] == [
            ("desbal.experiment", "INFO", "glass-synthetic replication 1 fold B done"),
            ("desbal.pool", "WARNING", "third cell warns"),
        ]
        clean = _first_seven(Path(parallel_run[0].output) / RESULTS_FILE)
        cut = _first_seven(Path(cfg.output) / RESULTS_FILE)
        assert cut == clean[:1 + 2 * 3 * 3]  # two cells of 3 selectors x 3 metrics
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(experiment, "evaluate_cell", evaluate_cell)
        run_experiment(cfg)
        assert _first_seven(Path(cfg.output) / RESULTS_FILE) == clean

    def test_worker_cell_error_keeps_its_traceback(self, tmp_path, monkeypatch):
        evaluate_cell, parent = experiment.evaluate_cell, os.getpid()

        def fails_in_worker(*cell):
            if os.getpid() != parent:
                raise RuntimeError("a worker's cell failed")
            return evaluate_cell(*cell)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(experiment, "evaluate_cell", fails_in_worker)  # forks inherit it
        with pytest.raises(RuntimeError, match="a worker's cell failed") as raised:
            run_experiment(_glass_cells(tmp_path / "out"))
        assert "in fails_in_worker" in "".join(traceback.format_exception(raised.value))

    def test_run_without_fork_makes_no_pool(self, parallel_run, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was made")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(experiment, "ProcessPoolExecutor", no_pool)
        cfg = _glass_cells(tmp_path / "nofork")
        log = _held_log(lambda: run_experiment(cfg))
        assert ("desbal.experiment", "INFO",
                "dataset glass-synthetic: 20 cells left, run in this process") in log
        assert _first_seven(Path(cfg.output) / RESULTS_FILE) == _first_seven(
            Path(parallel_run[0].output) / RESULTS_FILE)

    def test_one_cpu_takes_no_cell_after_a_failure(self, tmp_path, monkeypatch):
        evaluate_cell, calls = experiment.evaluate_cell, []

        def third_cell_raises(*cell):
            calls.append(cell[3:6])
            if len(calls) == 3:
                raise RuntimeError("third cell failed")
            return evaluate_cell(*cell)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(experiment, "evaluate_cell", third_cell_raises)
        with pytest.raises(RuntimeError, match="third cell failed"):
            run_experiment(_glass_cells(tmp_path / "out"))
        assert calls == [("Ba", 0, "B"), ("Ba-SM", 0, "B"), ("Ba", 0, "A")]

    def test_outcomes_stop_at_the_failure_this_process_ran(self, monkeypatch):
        def fourth_raises(i):
            if i == 3:
                raise RuntimeError("fourth cell failed")
            return i

        monkeypatch.setattr(experiment, "evaluate_cell", fourth_raises)
        cells, outcomes = [(i,) for i in range(6)], []
        # drained on a thread: a placeholder awaited past the failure would never end
        drain = threading.Thread(
            target=lambda: outcomes.extend(experiment._shared_outcomes(None, cells)), daemon=True)
        drain.start()
        drain.join(timeout=60)
        assert not drain.is_alive()
        assert [scored for scored, _ in outcomes[:3]] == [0, 1, 2]
        assert len(outcomes) == 4 and isinstance(outcomes[3][0], RuntimeError)

    def test_resume_and_one_cell_start_no_process(self, parallel_run, tmp_path, monkeypatch):
        out = tmp_path / "resume"
        cfg = _glass_cells(out)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        run_experiment(cfg)

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was made")

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", no_pool)
        assert run_experiment(cfg).records_written == 0  # as report-grid resumes
        path = out / RESULTS_FILE
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-9]))  # the last cell: 3 selectors x 3 metrics
        assert run_experiment(cfg).records_written == 9
        assert _first_seven(path) == _first_seven(Path(parallel_run[0].output) / RESULTS_FILE)


def _crash_writes(monkeypatch, prefix, cut):
    """Make every `Path.write_text` of text that starts with `prefix` write
    only its first `cut` characters (counted from the end if negative) and
    then raise, as a crash part-way through the write would leave it."""
    write_text = Path.write_text

    def torn(self, data, *args, **kwargs):
        if data.startswith(prefix):
            write_text(self, data[:cut])
            raise OSError(f"simulated crash writing {self.name}")
        return write_text(self, data, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", torn)


def _craft_records(tmp_path, values):
    """Write a results dir from {(dataset, variant, selector): value}."""
    datasets = sorted({k[0] for k in values})
    variants = tuple(sorted({k[1] for k in values}, key=lambda v: v != "Ba"))
    selectors = tuple(sorted({k[2] for k in values}))
    cfg = RunConfig(
        datasets=tuple(datasets), output=str(tmp_path),
        variants=variants, selectors=selectors, metrics=("gmean",),
        pool_size=2, k=3, seed=0,
    )
    out = tmp_path
    out.mkdir(exist_ok=True)
    with open(out / "manifest.txt", "w") as fh:
        fh.write(
            f"config_hash = {config_hash(cfg)}\ncode_version = test\n"
            f"--- config ---\n{cfg.canonical_text()}"
        )
    with open(out / "results.tsv", "w") as fh:
        fh.write(
            "dataset\tvariant\tselector\treplication\tfold\tmetric\tvalue\twall_time_s\n"
        )
        for (d, v, s), value in values.items():
            for rep in range(1, 6):
                for fold in ("A", "B"):
                    fh.write(f"{d}\t{v}\t{s}\t{rep}\t{fold}\tgmean\t{value}\t0.1\n")
    return out


class TestReport:
    def test_known_ordering(self, tmp_path):
        values = {}
        for d in ("d1", "d2", "d3", "d4"):
            values[(d, "Ba", "KNU")] = 0.5
            values[(d, "Ba-SM", "KNU")] = 0.8
            values[(d, "Ba", "STATIC")] = 0.4
            values[(d, "Ba-SM", "STATIC")] = 0.6
        out = _craft_records(tmp_path / "rep", values)
        text = make_report(out, "gmean")
        # variant ranks: Ba-SM dominant for both selectors
        knu_line = next(l for l in text.splitlines() if l.startswith("KNU"))
        assert "*1.00" in knu_line and "2.00" in knu_line
        # best-variant global ranks: Ba-SM+KNU (0.8) beats Ba-SM+STATIC (0.6)
        assert text.index("Ba-SM+KNU") < text.index("Ba-SM+STATIC")
        # sign test: 4 wins of 4 datasets, significant only at alpha 0.10
        assert "W/T/L = 4/0/0" in text
        assert "[+..]" in text

    def test_single_method_trivial(self, tmp_path):
        values = {("d1", "Ba", "STATIC"): 0.7, ("d2", "Ba", "STATIC"): 0.6}
        out = _craft_records(tmp_path / "solo", values)
        text = make_report(out, "gmean")
        assert "*1.00" in text

    def test_missing_cells_listed(self, tmp_path):
        values = {
            ("d1", "Ba", "KNU"): 0.5,
            ("d1", "Ba-SM", "KNU"): 0.8,
        }
        out = _craft_records(tmp_path / "gaps", values)
        lines = (out / "results.tsv").read_text().splitlines()
        (out / "results.tsv").write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(IncompleteGridError, match="missing 3 cells") as info:
            make_report(out, "gmean")
        assert str(info.value).splitlines()[1:] == [
            f"  d1 / Ba-SM / KNU / {rep} / {fold} / gmean"
            for rep, fold in (("4", "B"), ("5", "A"), ("5", "B"))
        ]

    @pytest.mark.parametrize("cut", [1, 12, len(HEADER_LINE) - 1])
    def test_results_cut_inside_the_header_hold_no_records(self, tmp_path, cut):
        out = _craft_records(tmp_path / "cut", {("d1", "Ba", "KNU"): 0.5})
        (out / RESULTS_FILE).write_text(HEADER_LINE[:cut])
        with pytest.raises(IncompleteGridError, match="no records found"):
            make_report(out, "gmean")

    def test_unrecorded_metric_refused(self, tmp_path):
        # a resume could never write auc records into a gmean-only run
        out = _craft_records(tmp_path / "g", {("d1", "Ba", "KNU"): 0.5, ("d2", "Ba", "KNU"): 0.7})
        with pytest.raises(ValueError) as info:
            make_report(out, "AUC")
        assert str(info.value) == "this run records gmean, not auc"

    def test_end_to_end_with_runner(self, csv_dataset, tmp_path):
        cfg = _config(csv_dataset, tmp_path / "e2e")
        run_experiment(cfg)
        for metric in ("auc", "fmeasure", "gmean"):
            text = make_report(tmp_path / "e2e", metric)
            assert "Average rank" in text
            assert "W/T/L" in text
            assert make_report(tmp_path / "e2e", f" {metric.upper()} ") == text
