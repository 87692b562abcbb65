"""Command line verbs and exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from desbal.cli import main
from desbal.experiment import load_config, validate_config

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
