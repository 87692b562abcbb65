"""Golden digests of `make_report` over a complete 15x6 glass grid.

The grid is written the way the benchmark's report-grid workload writes it:
seeded uniform values for every (variant, selector, replication, fold,
metric) record, then a resume that finds nothing to run and writes the
manifest. Each case below edits the record lines, and every report text or
error message must hash to the digest recorded for it.
"""

import hashlib

import numpy as np
import pytest

from desbal.experiment import (
    RECORD_COLUMNS,
    RESULTS_FILE,
    IncompleteGridError,
    RunConfig,
    make_report,
    run_experiment,
)
from desbal.resampling import VARIANTS
from desbal.selection import SELECTOR_NAMES

SEED = 20240601
METRICS = ("auc", "fmeasure", "gmean")


def _grid_lines(name, seed):
    rng = np.random.default_rng(seed)
    lines = []
    for v in VARIANTS:
        for s in SELECTOR_NAMES:
            for rep in range(1, 6):
                for fold in ("A", "B"):
                    values = rng.uniform(0.3, 1.0, size=len(METRICS))
                    for m, value in zip(METRICS, values):
                        lines.append(
                            f"{name}\t{v}\t{s}\t{rep}\t{fold}\t{m}\t{value:.12g}"
                            f"\t{rng.uniform(0.01, 2.0):.3f}"
                        )
    return lines


def _rounded(lines):
    out = []
    for line in lines:
        parts = line.split("\t")
        parts[6] = f"{round(float(parts[6]), 1):.12g}"
        out.append("\t".join(parts))
    return out


def _off_grid(lines):
    parts = lines[6].split("\t")
    parts[3] = "9"
    return lines + ["\t".join(parts)]


def _four_datasets(lines):
    extra = [_grid_lines(name, seed) for name, seed in (("zoo", 2), ("abalone", 3), ("iris", 4))]
    return lines + [line for block in extra for line in block]


CASES = {
    "complete": lambda lines: lines,
    "rounded": _rounded,  # ties between fold means are common
    # the second copy of a record counts toward its mean, and so does a
    # record of replication 9; either extra auc value moves an auc rank
    "duplicate": lambda lines: lines + [lines[0]],
    "off_grid": _off_grid,
    "deleted": lambda lines: lines[:100] + lines[101:],
    "dropped_selector": lambda lines: [l for l in lines if "\tKNU\t" not in l],
    # a dataset named by one record of one metric is on every metric's axis
    "extra_dataset": lambda lines: lines + [lines[0].replace("glass-synthetic", "zoo")],
    # a case that returns text sets the file's last bytes itself: an
    # unterminated line is never read, a whole record (left in the file by
    # report) or one short of a field, so either renders as "complete" does
    "unterminated_kept": lambda lines: _results_text(lines) + lines[0],
    "unterminated_short": lambda lines: _results_text(lines[:-1]) + lines[-1].rsplit("\t", 1)[0],
    # four complete datasets: the sorted dataset axis, and sign tests of n = 4
    "four_datasets": _four_datasets,
}

# sha256 of each report text or error message: a change here is a change
# to what `desbal report` prints
DIGESTS = {
    ("complete", "auc"):
        "55c6484bf96023524438b8701fcf7f839aba1b1f42b717acac7f3f8531a66257",
    ("complete", "fmeasure"):
        "1cc76ae3d18f858d725b4467eaca942e02f567ea54c1473a944a667d828aaf0e",
    ("complete", "gmean"):
        "e06f662f439f64aa85340218e7d0f4658b908cc81b32474072bc8595c5d65e51",
    ("rounded", "auc"):
        "6ad1e40ec93229828ac120e34ac5e455675e05082c7c40872e77897f28e242ca",
    ("rounded", "fmeasure"):
        "29dd68ea454e1cfd0ca11df4055465d33fa85b2261b8bce86444fd68890d4afd",
    ("rounded", "gmean"):
        "6c2bcdf6c665f45e1a7dc9e2bda1453568d8388113615bb921efc78b70e70230",
    ("duplicate", "auc"):
        "f0569e2926d77fa0896fbde31ebf9bbbe77d1b48d26ecd6d409fd64357b2ba13",
    ("duplicate", "fmeasure"):
        "1cc76ae3d18f858d725b4467eaca942e02f567ea54c1473a944a667d828aaf0e",
    ("duplicate", "gmean"):
        "e06f662f439f64aa85340218e7d0f4658b908cc81b32474072bc8595c5d65e51",
    ("off_grid", "auc"):
        "f0569e2926d77fa0896fbde31ebf9bbbe77d1b48d26ecd6d409fd64357b2ba13",
    ("off_grid", "fmeasure"):
        "1cc76ae3d18f858d725b4467eaca942e02f567ea54c1473a944a667d828aaf0e",
    ("off_grid", "gmean"):
        "e06f662f439f64aa85340218e7d0f4658b908cc81b32474072bc8595c5d65e51",
    ("deleted", "auc"):
        "55c6484bf96023524438b8701fcf7f839aba1b1f42b717acac7f3f8531a66257",
    ("deleted", "fmeasure"):
        "21ada13ce3d35761154d83a1203903834ca66578fd77a71e90363059fa22f88d",
    ("deleted", "gmean"):
        "e06f662f439f64aa85340218e7d0f4658b908cc81b32474072bc8595c5d65e51",
    ("dropped_selector", "auc"):
        "b508eb4e8102015423e8bca313fb6787d3f0f13f1190ea1460c9e4f05b54d4e2",
    ("dropped_selector", "fmeasure"):
        "95b09433d115bce14ebaca894740f30a1d89ab10fd309f72fe7a457051ca6e0f",
    ("dropped_selector", "gmean"):
        "e0890d48f2d3c46bb57b985f4ff473e0a0a8b993cffa2a2fc813fd9044387d91",
    ("extra_dataset", "auc"):
        "f90a5ca5b8b0787acc7b8f49eef43cfcda887446d4775b2a1a15f5b050438709",
    ("extra_dataset", "fmeasure"):
        "21607c47e461c538fbd7ed64ad1045faa0b353f9f020ae84a3982831e202b33f",
    ("extra_dataset", "gmean"):
        "2e10d39e807edc189ed41d43c68e5697713bec73b915ea33d650e718e5b9f468",
    ("unterminated_kept", "auc"):
        "55c6484bf96023524438b8701fcf7f839aba1b1f42b717acac7f3f8531a66257",
    ("unterminated_kept", "fmeasure"):
        "1cc76ae3d18f858d725b4467eaca942e02f567ea54c1473a944a667d828aaf0e",
    ("unterminated_kept", "gmean"):
        "e06f662f439f64aa85340218e7d0f4658b908cc81b32474072bc8595c5d65e51",
    ("unterminated_short", "auc"):
        "55c6484bf96023524438b8701fcf7f839aba1b1f42b717acac7f3f8531a66257",
    ("unterminated_short", "fmeasure"):
        "1cc76ae3d18f858d725b4467eaca942e02f567ea54c1473a944a667d828aaf0e",
    ("unterminated_short", "gmean"):
        "f3d0c13af93ebca3b17c2c3d28af42d7477f77ba3c6e38dbc2a52f73b82ca432",
    ("four_datasets", "auc"):
        "142f16426b4fbacb27297546e18db382d609b422731c5f5afbf02ea441f5adbd",
    ("four_datasets", "fmeasure"):
        "30f8e3e84a0cbde0c90816ec2ca43574d3b67d4d6ce1555b0cbc86a97929cefa",
    ("four_datasets", "gmean"):
        "88828d1538bb21cdd899f760011ecca57a3d7d9553792276398cb25f81a12464",
}


def _results_text(lines):
    return "\n".join(["\t".join(RECORD_COLUMNS)] + lines) + "\n"


def _resumed_grid(out, seed):
    """Write the complete grid to `out` and resume over it, which writes the
    manifest. Returns the record lines and the resume's summary."""
    out.mkdir(parents=True, exist_ok=True)
    lines = _grid_lines("glass-synthetic", seed)
    (out / RESULTS_FILE).write_text(_results_text(lines))
    cfg = RunConfig(
        datasets=("builtin:glass",), output=str(out), variants=VARIANTS,
        selectors=SELECTOR_NAMES, metrics=METRICS, pool_size=100, k=7, seed=seed,
    )
    return lines, run_experiment(cfg)


def render_digests(root, seed=SEED) -> dict:
    """{(case, metric): sha256 of the report text or of its error message}."""
    digests = {}
    for case, edit in CASES.items():
        lines, _ = _resumed_grid(root / case, seed)
        edited = edit(lines)
        text = edited if isinstance(edited, str) else _results_text(edited)
        (root / case / RESULTS_FILE).write_text(text)
        for metric in METRICS:
            try:
                text = make_report(root / case, metric)
            except IncompleteGridError as exc:
                text = str(exc)
            digests[(case, metric)] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def test_resume_finds_the_grid_complete(tmp_path):
    _, summary = _resumed_grid(tmp_path, SEED)
    assert (summary.records_written, summary.records_skipped) == (0, 2700)


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return render_digests(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("metric", METRICS)
def test_report_digest(digests, case, metric):
    assert digests[(case, metric)] == DIGESTS[(case, metric)]
