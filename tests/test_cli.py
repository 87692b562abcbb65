"""Command line verbs and exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from desbal.cli import main
from desbal.experiment import HEADER_LINE, load_config, validate_config

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
    # needs only scipy.spatial and scipy.special
    tmp_path, config = workspace
    assert main(["run", "--config", str(config)]) == 0
    code = (
        "import sys\n"
        "import desbal, desbal.cli\n"
        f"assert desbal.cli.main(['report', '--input', {str(tmp_path / 'out')!r},"
        " '--metric', 'gmean']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert "Average rank" in done.stdout
    assert done.stdout.splitlines()[-1] == "[]"


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
