"""Command line verbs and exit codes."""

import fcntl
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from desbal.benchmarks import synthetic_like
from desbal.cli import main
from desbal.experiment import (
    HEADER_LINE, MANIFEST_FILE, RESULTS_FILE, RunConfig, load_config, parse_config_text,
    validate_config,
)

CONFIG = """datasets = {path}
variants = Ba, Ba-SM
selectors = STATIC, KNU
metrics = gmean
pool_size = 4
k = 3
seed = 7
output = {out}
"""


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(1)
    rows = []
    for label, (count, center) in enumerate([(18, 0.0), (9, 2.0)]):
        for _ in range(count):
            x = rng.normal(center, 1.0, size=2)
            rows.append(f"{x[0]:.6f},{x[1]:.6f},{label}")
    data = tmp_path / "toy.csv"
    data.write_text("\n".join(rows) + "\n")
    config = tmp_path / "run.conf"
    config.write_text(CONFIG.format(path=data, out=tmp_path / "out"))
    return tmp_path, config


def test_validate_ok(workspace, capsys):
    _, config = workspace
    assert main(["validate", "--config", str(config)]) == 0
    assert "config ok" in capsys.readouterr().out


def test_validate_bad_selector(workspace, capsys):
    tmp_path, config = workspace
    bad = tmp_path / "bad.conf"
    bad.write_text(config.read_text().replace("KNU", "WRONG"))
    assert main(["validate", "--config", str(bad)]) == 1
    assert "WRONG" in capsys.readouterr().err


def test_validate_missing_dataset(workspace, capsys):
    tmp_path, config = workspace
    bad = tmp_path / "bad2.conf"
    bad.write_text(config.read_text().replace("toy.csv", "absent.csv"))
    assert main(["validate", "--config", str(bad)]) == 1


def test_validate_empty_output(workspace, capsys):
    tmp_path, config = workspace
    bad = tmp_path / "bad3.conf"
    bad.write_text(config.read_text().replace(f"output = {tmp_path / 'out'}", "output ="))
    assert main(["validate", "--config", str(bad)]) == 1
    assert "error: output is empty" in capsys.readouterr().err


def test_validate_empty_selectors(workspace, capsys):
    tmp_path, config = workspace
    bad = tmp_path / "bad5.conf"
    bad.write_text(config.read_text().replace("selectors = STATIC, KNU", "selectors ="))
    assert main(["validate", "--config", str(bad)]) == 1
    assert "error: no selectors configured" in capsys.readouterr().err


def _one_and_five(tmp_path, text):
    # class a's one row is always in fold A, so every fold B tests class b alone
    bad = tmp_path / "bad.csv"
    bad.write_text("0.1,0.2,a\n0.5,0.1,b\n0.7,0.3,b\n0.2,0.9,b\n0.4,0.4,b\n0.8,0.6,b\n")
    return text.replace("datasets = ", f"datasets = {bad}, ").replace("gmean", "auc")


def _name_taken(tmp_path, text):
    specs = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        specs.append(tmp_path / sub / "t.csv")
        specs[-1].write_text((tmp_path / "toy.csv").read_text())
    return text.replace(str(tmp_path / "toy.csv"), f"{specs[0]}, {specs[1]}")


def _written_by_another_config(tmp_path, text):
    other = tmp_path / "other.conf"
    other.write_text(text.replace("seed = 7", "seed = 8"))
    assert main(["run", "--config", str(other)]) == 0
    return text


def _foreign_header(tmp_path, text):
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "results.tsv").write_text("id\tscore\n1\t0.5\n")
    return text


def _output_is_a_file(tmp_path, text):
    (tmp_path / "out").write_text("a file\n")
    return text


def _output_inside_a_file(tmp_path, text):
    (tmp_path / "out").write_text("a file\n")
    return text.replace(str(tmp_path / "out"), str(tmp_path / "out" / "run"))


def _snapshot(root):
    return {p: p.read_bytes() if p.is_file() else None for p in sorted(root.rglob("*"))}


@pytest.mark.parametrize("make, reason, run_code", [
    (_one_and_five, "replication 1 fold B: AUC needs 2 test classes", 2),
    (_name_taken, "its name t is taken by", 2),
    (_written_by_another_config, "belongs to a different configuration", 1),
    (_foreign_header, "unexpected results header", 1),
    (_output_is_a_file, "is not a directory", 1),
    (_output_inside_a_file, "is not a directory", 1),
], ids=["one-class-test-half", "name-taken", "another-config", "foreign-header", "output-file",
        "output-inside-a-file"])
def test_validate_refuses_what_run_refuses(workspace, capsys, make, reason, run_code):
    tmp_path, config = workspace
    config.write_text(make(tmp_path, config.read_text()))
    before = _snapshot(tmp_path)
    capsys.readouterr()
    assert main(["validate", "--config", str(config)]) == 1
    out, err = capsys.readouterr()
    assert reason in err and "config ok" not in out
    assert _snapshot(tmp_path) == before
    assert main(["run", "--config", str(config)]) == run_code


def test_validate_stops_at_config_problems(workspace, capsys):
    # as run does, validate loads no dataset while the config has a problem
    tmp_path, config = workspace
    config.write_text(config.read_text().replace("toy.csv", "absent.csv").replace("KNU", "WRONG"))
    assert main(["validate", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "WRONG" in err and "absent.csv" not in err


def test_validate_accepts_a_torn_header_that_run_resumes(workspace, capsys):
    tmp_path, config = workspace
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "results.tsv").write_text("dataset\tvar")
    assert main(["validate", "--config", str(config)]) == 0
    assert main(["run", "--config", str(config)]) == 0
    lines = (tmp_path / "out" / "results.tsv").read_text().splitlines(keepends=True)
    assert lines[0] == HEADER_LINE and len(lines) == 1 + 2 * 2 * 10


def test_validate_writes_nothing(workspace, capsys):
    tmp_path, config = workspace
    assert main(["validate", "--config", str(config)]) == 0
    assert not (tmp_path / "out").exists()
    assert main(["run", "--config", str(config)]) == 0
    results = tmp_path / "out" / "results.tsv"
    results.write_bytes(results.read_bytes() + b"toy\tBa\tKNU\t1\tA\tgm")  # a torn tail
    before = _snapshot(tmp_path)
    assert main(["validate", "--config", str(config)]) == 0
    assert _snapshot(tmp_path) == before


def test_run_invalid_config_names_every_problem(workspace, capsys):
    # run checks the config once, before it creates anything
    tmp_path, config = workspace
    bad = tmp_path / "bad4.conf"
    text = config.read_text().replace("KNU", "WRONG").replace("pool_size = 4", "pool_size = 0")
    bad.write_text(text)
    problems = validate_config(load_config(bad))
    assert len(problems) == 2
    assert problems[0].startswith("unknown selector 'WRONG'")
    assert problems[1] == "pool_size must be >= 1"
    assert main(["run", "--config", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {'; '.join(problems)}\n"
    assert not (tmp_path / "out").exists()


def test_run_then_report(workspace, capsys):
    tmp_path, config = workspace
    assert main(["run", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "record(s)" in out
    assert main(["report", "--input", str(tmp_path / "out"), "--metric", "gmean"]) == 0
    report = capsys.readouterr().out
    assert "Average rank" in report
    assert (tmp_path / "out" / "report_gmean.txt").exists()


def test_report_metric_is_case_insensitive(workspace, capsys):
    # a config may say `metrics = GMean`; the report verb reads it the same way
    tmp_path, config = workspace
    assert main(["run", "--config", str(config)]) == 0
    capsys.readouterr()
    assert main(["report", "--input", str(tmp_path / "out"), "--metric", "gmean"]) == 0
    lower = capsys.readouterr().out
    assert main(["report", "--input", str(tmp_path / "out"), "--metric", " GMean "]) == 0
    assert capsys.readouterr().out == lower
    assert sorted(p.name for p in (tmp_path / "out").glob("report_*")) == ["report_gmean.txt"]


def test_run_partial_failure_exit_code(workspace, capsys):
    tmp_path, config = workspace
    conf2 = tmp_path / "partial.conf"
    text = config.read_text().replace(
        "datasets = ", f"datasets = {tmp_path / 'ghost.csv'}, "
    ).replace(str(tmp_path / "out"), str(tmp_path / "out2"))
    conf2.write_text(text)
    assert main(["run", "--config", str(conf2)]) == 2


@pytest.mark.parametrize("rows, metrics", [
    ("0.1,0.2,a\n0.5,0.1,b\n0.7,0.3,b\n0.2,0.9,b\n0.4,0.4,b\n0.8,0.6,b\n", "auc"),
    ("0.1,0.2,a\n0.5,0.1,b\n", "fmeasure"),
], ids=["one-class-test-half", "empty-training-half"])
def test_run_unplannable_dataset_exit_code(tmp_path, capsys, rows, metrics):
    bad = tmp_path / "bad.csv"
    bad.write_text(rows)
    config = tmp_path / "run.conf"
    config.write_text(f"datasets = {bad}, builtin:wine\nvariants = Ba\nselectors = KNU\n"
                      f"metrics = {metrics}\npool_size = 3\noutput = {tmp_path / 'out'}\n")
    assert main(["run", "--config", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out.startswith("wrote 10 record(s)") and f"failed datasets: {bad}" in err


def test_a_missing_data_dir_file_fails_that_dataset_alone(tmp_path, capsys):
    # data_dir holds wine.dat only: glass fails, and never runs its stand-in
    wine = synthetic_like("wine")
    (tmp_path / "keel").mkdir()
    (tmp_path / "keel" / "wine.dat").write_text("\n".join(
        ["@relation wine", *(f"@attribute a{j} real" for j in range(wine.n_features)),
         "@attribute class {c0, c1, c2}", "@data",
         *(",".join(map(repr, row.tolist())) + f",c{label}"
           for row, label in zip(wine.features, wine.labels))]) + "\n")
    config = tmp_path / "run.conf"
    config.write_text(f"datasets = builtin:wine, builtin:glass\nvariants = Ba\n"
                      f"selectors = KNU\nmetrics = gmean\npool_size = 3\n"
                      f"data_dir = {tmp_path / 'keel'}\noutput = {tmp_path / 'out'}\n")
    missing = str(tmp_path / "keel" / "glass.dat")
    assert main(["validate", "--config", str(config)]) == 1
    assert missing in capsys.readouterr().err
    assert main(["run", "--config", str(config)]) == 2
    assert "failed datasets: builtin:glass" in capsys.readouterr().err
    records = (tmp_path / "out" / RESULTS_FILE).read_text().splitlines()[1:]
    assert len(records) == 10 and {r.split("\t")[0] for r in records} == {"wine"}


def test_run_dataset_name_taken_exit_code(workspace, capsys):
    tmp_path, config = workspace
    (tmp_path / "again").mkdir()
    twin = tmp_path / "again" / "toy.csv"  # the same dataset name, "toy"
    twin.write_text((tmp_path / "toy.csv").read_text())
    conf2 = tmp_path / "twin.conf"
    text = config.read_text().replace("datasets = ", f"datasets = {twin}, ")
    conf2.write_text(text.replace(str(tmp_path / "out"), str(tmp_path / "out2")))
    assert main(["run", "--config", str(conf2)]) == 2
    assert f"failed datasets: {tmp_path / 'toy.csv'}" in capsys.readouterr().err


def test_run_refuses_foreign_results_file(workspace, capsys):
    tmp_path, config = workspace
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "results.tsv").write_text("id\tscore\n1\t0.5\n")
    assert main(["run", "--config", str(config)]) == 1
    assert "unexpected results header" in capsys.readouterr().err
    assert (tmp_path / "out" / "results.tsv").read_text() == "id\tscore\n1\t0.5\n"


@pytest.mark.parametrize("records_before", [False, True], ids=["fresh", "resumed"])
def test_an_output_in_use_is_refused_untouched(workspace, capsys, records_before):
    # another process's run holds the lock as this test's open results file does
    tmp_path, config = workspace
    out = tmp_path / "out"
    if records_before:
        assert main(["run", "--config", str(config)]) == 0
    out.mkdir(exist_ok=True)
    with (out / RESULTS_FILE).open("a") as held:
        fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        before = _snapshot(tmp_path)
        capsys.readouterr()
        assert main(["validate", "--config", str(config)]) == 1
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: output {out} is in use by another run"] * 2
        assert _snapshot(tmp_path) == before
    assert main(["validate", "--config", str(config)]) == 0
    assert main(["run", "--config", str(config)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(
        f"({40 if records_before else 0} already present)")


def test_a_results_header_inside_the_file_is_refused(workspace, capsys):
    # what two runs appending to one results.tsv left before runs took a lock
    tmp_path, config = workspace
    assert main(["run", "--config", str(config)]) == 0
    results = tmp_path / "out" / RESULTS_FILE
    lines = results.read_text().splitlines(keepends=True)
    results.write_text("".join(lines[:5] + lines[:1] + lines[5:]))
    before = _snapshot(tmp_path)
    capsys.readouterr()
    assert main(["validate", "--config", str(config)]) == 1
    assert main(["run", "--config", str(config)]) == 1
    assert main(["report", "--input", str(tmp_path / "out"), "--metric", "gmean"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: results header repeated inside {results}"] * 3
    assert _snapshot(tmp_path) == before


def test_an_undecodable_results_line_is_refused(workspace, capsys):
    # desbal writes results.tsv as UTF-8; a complete line that is not is refused
    # by every command, as a foreign header is
    tmp_path, config = workspace
    assert main(["run", "--config", str(config)]) == 0
    results = tmp_path / "out" / RESULTS_FILE
    lines = results.read_bytes().splitlines(keepends=True)
    results.write_bytes(b"".join(lines[:3] + [b"\xff" + lines[3]] + lines[4:]))
    before = _snapshot(tmp_path)
    capsys.readouterr()
    assert main(["validate", "--config", str(config)]) == 1
    assert main(["run", "--config", str(config)]) == 1
    assert main(["report", "--input", str(tmp_path / "out"), "--metric", "gmean"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: line 4 of {results} is not UTF-8"] * 3
    assert _snapshot(tmp_path) == before


def test_an_undecodable_config_is_refused(workspace, capsys):
    # a Latin-1 "é" in a comment: a config is read as UTF-8
    tmp_path, config = workspace
    config.write_bytes("# café\n".encode("latin-1") + config.read_bytes())
    before = _snapshot(tmp_path)
    capsys.readouterr()
    assert main(["validate", "--config", str(config)]) == 1
    assert main(["run", "--config", str(config)]) == 1
    reason = "'utf-8' codec can't decode byte 0xe9 in position 5: invalid continuation byte"
    err = capsys.readouterr().err.splitlines()
    assert err == [f"invalid config: {reason}", f"error: {reason}"]
    assert _snapshot(tmp_path) == before


def test_a_config_with_a_byte_order_mark_is_read(workspace, capsys):
    # as some editors save UTF-8; the mark is not part of the first key
    tmp_path, config = workspace
    plain = load_config(config)
    config.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
    assert load_config(config) == plain
    assert main(["validate", "--config", str(config)]) == 0
    assert capsys.readouterr().out == "config ok\n"


def test_a_non_finite_cell_fails_that_dataset_alone(workspace, capsys):
    # float() reads nan and inf, but neither is a feature value
    tmp_path, config = workspace
    rows = [row.split(",") for row in (tmp_path / "toy.csv").read_text().splitlines()]
    rows[9][1], rows[4][0] = "inf", "nan"
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(",".join(row) + "\n" for row in rows))
    config.write_text(config.read_text().replace("datasets = ", f"datasets = {bad}, "))
    assert main(["validate", "--config", str(config)]) == 1
    assert capsys.readouterr().err == (
        f"error: dataset {bad}: non-finite cell 'nan' in numeric column 0\n")
    assert main(["run", "--config", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out.startswith("wrote 40 record(s)") and f"failed datasets: {bad}" in err


def test_a_non_finite_class_cell_fails_that_dataset_alone(workspace, capsys):
    # a nan class would take its id from row order, nan being unordered
    tmp_path, config = workspace
    rows = [row.split(",") for row in (tmp_path / "toy.csv").read_text().splitlines()]
    rows[20][2], rows[6][2] = "inf", "nan"
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(",".join(row) + "\n" for row in rows))
    config.write_text(config.read_text().replace("datasets = ", f"datasets = {bad}, "))
    assert main(["validate", "--config", str(config)]) == 1
    assert capsys.readouterr().err == (
        f"error: dataset {bad}: non-finite class value 'nan' in column col2\n")
    assert main(["run", "--config", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out.startswith("wrote 40 record(s)") and f"failed datasets: {bad}" in err


def _older_layout(out, text):
    """Rewrite the output `out` as runs laid it out before the lock moved onto
    results.tsv: a manifest of `text`, the config, headed by its hash, the
    code version and a time, and a stale run.lock beside it."""
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    (out / MANIFEST_FILE).write_text(
        f"config_hash = {digest}\ncode_version = 0.1.0\ncreated_unix = 1700000000\n"
        f"--- config ---\n{text}", encoding="utf-8")
    (out / "run.lock").write_bytes(b"")


def test_an_output_in_the_older_layout_still_works(workspace, capsys):
    tmp_path, config = workspace
    report = ["report", "--input", str(tmp_path / "out"), "--metric", "gmean"]
    assert main(["run", "--config", str(config)]) == 0
    assert main(report) == 0
    capsys.readouterr()
    fresh = (tmp_path / "out" / "report_gmean.txt").read_bytes()
    _older_layout(tmp_path / "out", load_config(config).canonical_text())
    manifest = (tmp_path / "out" / MANIFEST_FILE).read_bytes()
    assert main(["validate", "--config", str(config)]) == 0
    assert main(["run", "--config", str(config)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "config ok", f"wrote 0 record(s) to {tmp_path / 'out' / RESULTS_FILE} (40 already present)"]
    assert main(report) == 0
    assert (tmp_path / "out" / "report_gmean.txt").read_bytes() == fresh
    assert (tmp_path / "out" / MANIFEST_FILE).read_bytes() == manifest  # left as it was
    # an older manifest of another config still names another config
    other = load_config(config).canonical_text().replace("seed = 7", "seed = 8")
    _older_layout(tmp_path / "out", other)
    before = _snapshot(tmp_path)
    capsys.readouterr()
    assert main(["validate", "--config", str(config)]) == 1
    assert main(["run", "--config", str(config)]) == 1
    reason = f"output directory {tmp_path / 'out'} belongs to a different configuration"
    assert capsys.readouterr().err.splitlines() == [f"error: {reason}"] * 2
    assert _snapshot(tmp_path) == before


def test_the_manifest_is_the_runs_config(workspace, capsys):
    tmp_path, config = workspace
    assert main(["run", "--config", str(config)]) == 0
    manifest = tmp_path / "out" / MANIFEST_FILE
    assert load_config(manifest) == load_config(config)
    capsys.readouterr()
    assert main(["validate", "--config", str(manifest)]) == 0
    assert main(["run", "--config", str(manifest)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "config ok" and out[1].startswith("wrote 0 record(s) ")


def test_a_hash_inside_a_value_is_kept(workspace, capsys):
    tmp_path, config = workspace
    data = tmp_path / "set#1.csv"
    data.write_bytes((tmp_path / "toy.csv").read_bytes())
    out = tmp_path / "exp#2"
    hashed = RunConfig(datasets=(str(data),), output=str(out), selectors=("STATIC",),
                       metrics=("gmean",), pool_size=3, k=3)
    assert parse_config_text(hashed.canonical_text()) == hashed
    text = "# a comment line\n   # an indented one\n" + hashed.canonical_text()
    assert parse_config_text(text) == hashed
    config.write_text(text)
    assert main(["run", "--config", str(config)]) == 0
    assert (out / RESULTS_FILE).exists() and not (tmp_path / "exp").exists()
    capsys.readouterr()
    assert main(["run", "--config", str(out / MANIFEST_FILE)]) == 0
    assert capsys.readouterr().out.startswith("wrote 0 record(s) ")


def test_no_command_reads_or_writes_in_the_locale_encoding(workspace):
    # under -X warn_default_encoding a text open() without an encoding warns,
    # and -W error makes the warning fail the command
    tmp_path, config = workspace
    (tmp_path / "café.csv").write_bytes((tmp_path / "toy.csv").read_bytes())
    text = config.read_text().replace("toy.csv", "café.csv")
    text = text.replace("pool_size = 4", "pool_size = 2")
    configs = {}
    for name in ("child", "here"):
        configs[name] = tmp_path / f"{name}.conf"
        configs[name].write_text(text.replace(str(tmp_path / "out"), str(tmp_path / name)),
                                 encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    for args in (["validate", "--config", str(configs["child"])],
                 ["run", "--config", str(configs["child"])],
                 ["report", "--input", str(tmp_path / "child"), "--metric", "gmean"]):
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "desbal.cli", *args], capture_output=True, text=True, timeout=120, env=env,
        )
        assert done.returncode == 0, done.stderr[-2000:]
    assert main(["run", "--config", str(configs["here"])]) == 0

    def first_seven(name):
        text = (tmp_path / name / RESULTS_FILE).read_text(encoding="utf-8")
        return [line.split("\t")[:7] for line in text.splitlines()]

    assert first_seven("child") == first_seven("here")
    assert first_seven("here")[1][0] == "café"


def test_report_missing_input(tmp_path, capsys):
    assert main(["report", "--input", str(tmp_path / "nope"), "--metric", "gmean"]) == 1


def test_report_unrecorded_metric(workspace, capsys):
    tmp_path, config = workspace
    assert main(["run", "--config", str(config)]) == 0
    capsys.readouterr()
    assert main(["report", "--input", str(tmp_path / "out"), "--metric", "auc"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: this run records gmean, not auc\n"
    assert captured.out == ""
    assert not (tmp_path / "out" / "report_auc.txt").exists()


def test_fresh_process_never_loads_scipy_stats(workspace):
    # scipy.stats costs about half a second and 30 MB per process; desbal
    # needs scipy.special, and scipy.spatial (with scipy.linalg and
    # scipy.sparse, about 0.1 s and 12 MB) only at its first distance, which
    # validate and report never measure
    tmp_path, config = workspace
    assert main(["run", "--config", str(config)]) == 0
    fresh = tmp_path / "fresh.conf"
    fresh.write_text(config.read_text().replace(str(tmp_path / "out"), str(tmp_path / "fresh")))
    heavy = ("scipy.stats", "scipy.spatial", "scipy.linalg", "scipy.sparse")
    code = (
        "import sys\n"
        "import desbal, desbal.cli\n"
        f"assert desbal.cli.main(['validate', '--config', {str(config)!r}]) == 0\n"
        f"assert desbal.cli.main(['report', '--input', {str(tmp_path / 'out')!r},"
        " '--metric', 'gmean']) == 0\n"
        f"print(sorted(m for m in sys.modules if m.startswith({heavy!r})))\n"
        "desbal.experiment.usable_cpus = lambda: 1  # every cell in this process\n"
        f"assert desbal.cli.main(['run', '--config', {str(fresh)!r}]) == 0\n"
        "print('scipy.spatial' in sys.modules, 'scipy.stats' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    assert lines[0] == "config ok" and "Average rank" in done.stdout
    assert lines[-3:] == ["[]", "wrote 40 record(s) to "
                          f"{tmp_path / 'fresh' / RESULTS_FILE} (0 already present)", "True False"]


def test_a_failed_report_write_is_one_error_line(workspace, capsys):
    # the report file is written before anything is printed
    tmp_path, config = workspace
    assert main(["run", "--config", str(config)]) == 0
    target = tmp_path / "out" / "report_gmean.txt"
    target.mkdir()
    with pytest.raises(OSError) as raised:
        target.write_text("", encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--input", str(tmp_path / "out"), "--metric", "gmean"]) == 1
    assert capsys.readouterr() == ("", f"error: {raised.value}\n")


def test_report_unknown_metric(workspace, capsys):
    tmp_path, config = workspace
    main(["run", "--config", str(config)])
    capsys.readouterr()
    assert main(["report", "--input", str(tmp_path / "out"), "--metric", "acc"]) == 1


def test_report_unknown_metric_named_as_given(tmp_path, capsys):
    # the metric name is looked up before the input is read
    assert main(["report", "--input", str(tmp_path), "--metric", " Acc"]) == 1
    assert capsys.readouterr().err == (
        "error: unknown metric ' Acc'; choose from ('auc', 'fmeasure', 'gmean')\n")
