"""Benchmark runner: 5x2 cross-validated evaluation of selector/preprocessing
combinations, crash-safe result persistence, and report generation."""

import hashlib
import logging
import logging.handlers
import multiprocessing
import os
import time
import traceback
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .benchmarks import load_benchmark
from .data import (
    FOLDS, REPLICATIONS, Dataset, parse_csv, parse_keel, standardize, stratified_5x2,
)
from .metrics import METRIC_NAMES, auc_multiclass, f_measure_weighted, g_mean, normalize_metric
from .pool import build_dsel, generate_pool
from .resampling import VARIANTS, normalize_variant
from .rng import derive_seed
from .selection import (
    SELECTOR_NAMES,
    SelectionContext,
    SelectorConfig,
    normalize_selector,
    run_selector,
    train_meta_classifier,
)
from .stats import average_ranks, finner_stepdown, rank_test_pvalues, sign_test
from .tree import TreeConfig

logger = logging.getLogger(__name__)

# wall_time_s is one selector's selection plus scoring over the fold's test
# queries, repeated on each of its metric rows; it excludes pool growth, the
# DSEL, META-DES training and query construction.
RECORD_COLUMNS = (
    "dataset", "variant", "selector", "replication", "fold",
    "metric", "value", "wall_time_s",
)

HEADER_LINE = "\t".join(RECORD_COLUMNS) + "\n"
RESULTS_FILE = "results.tsv"
MANIFEST_FILE = "manifest.txt"


class ConfigError(ValueError):
    """Raised when a run configuration is malformed."""


class IncompleteGridError(ValueError):
    """Raised when a report is requested over a partial record grid."""


class CellError(Exception):
    """The traceback text of the exception a fold cell raised, set as its
    cause when the run re-raises it, wherever the cell ran."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment run depends on."""

    datasets: tuple
    output: str
    variants: tuple = VARIANTS
    selectors: tuple = SELECTOR_NAMES
    metrics: tuple = METRIC_NAMES
    pool_size: int = 100
    k: int = 7
    seed: int = 0
    csv_label_column: int = -1
    data_dir: str = ""

    def canonical_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ", ".join(str(v) for v in value)
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"


def parse_config_text(text: str) -> RunConfig:
    """Parse the plain key/value run-configuration format; each key reads as
    the type of its `RunConfig` field (tuple: a comma-separated list) and may
    appear once."""
    kinds = {f.name: f.type for f in fields(RunConfig)}
    values, set_on = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, rest = line.partition("=")
        key = key.strip().lower()
        rest = rest.strip()
        kind = kinds.get(key)
        if kind is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in set_on:
            raise ConfigError(f"line {lineno}: key {key!r} already set on line {set_on[key]}")
        set_on[key] = lineno
        if kind is tuple:
            items = tuple(v.strip() for v in rest.split(",") if v.strip())
            if key == "metrics":
                items = tuple(v.lower() for v in items)
            values[key] = items
        elif kind is int:
            try:
                values[key] = int(rest)
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} must be an integer") from None
        else:
            values[key] = rest
    if "datasets" not in values:
        raise ConfigError("config is missing the 'datasets' key")
    if "output" not in values:
        raise ConfigError("config is missing the 'output' key")
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    return parse_config_text(Path(path).read_text())


def validate_config(cfg: RunConfig) -> list:
    """Each problem that stops `run_experiment` before it writes (none = runnable); reads only."""
    problems = []
    entries = {"datasets": list(cfg.datasets), "variants": [], "selectors": [],
               "metrics": list(cfg.metrics)}
    for key, normalize in (("variants", normalize_variant), ("selectors", normalize_selector)):
        for name in getattr(cfg, key):
            try:
                entries[key].append(normalize(name))
            except ValueError as exc:
                problems.append(str(exc))
    for m in cfg.metrics:
        if m not in METRIC_NAMES:
            problems.append(f"unknown metric {m!r}; choose from {METRIC_NAMES}")
    for key, names in entries.items():
        if not getattr(cfg, key):
            problems.append(f"no {key} configured")
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            problems.append(f"{key} lists {', '.join(repeated)} more than once")
    out_dir, manifest = Path(cfg.output), Path(cfg.output) / MANIFEST_FILE
    if not cfg.output.strip():
        problems.append("output is empty; name the directory to write into")
    elif any(p.exists() and not p.is_dir() for p in (out_dir, *out_dir.parents)):
        problems.append(f"output {out_dir} is not a directory")
    elif (manifest.exists() and manifest.read_text().partition("\n")[0]
          != f"config_hash = {config_hash(cfg)}"):
        problems.append(f"output directory {out_dir} belongs to a different configuration")
    if cfg.pool_size < 1:
        problems.append("pool_size must be >= 1")
    if cfg.k < 1:
        problems.append("k must be >= 1")
    return problems


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(cfg.canonical_text().encode()).hexdigest()[:16]


def resolve_dataset(spec: str, cfg: RunConfig) -> Dataset:
    """Turn one dataset entry (builtin:<name> or a file path) into a Dataset."""
    if spec.startswith("builtin:"):
        return load_benchmark(spec.split(":", 1)[1], data_dir=cfg.data_dir or None)
    path = Path(spec)
    if path.suffix.lower() == ".csv":
        return parse_csv(path.read_text(), cfg.csv_label_column, name=path.stem)
    return parse_keel(path.read_text(), name=path.stem)


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


@dataclass
class RunSummary:
    results_path: Path
    records_written: int = 0
    records_skipped: int = 0
    failed_datasets: list = field(default_factory=list)


def _write_atomic(path: Path, text: str) -> None:
    """Write `text` to a temporary file beside `path`, then rename it into
    place, so a crash leaves the old file or none, never a prefix. The
    temporary file of an earlier crash is overwritten."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _check_header(path: Path, first: str) -> None:
    if not HEADER_LINE.startswith(first):  # `first` keeps its newline; a torn header lacks it
        raise IncompleteGridError(f"unexpected results header in {path}")


def _drop_torn_tail(path: Path) -> None:
    """Cut an unterminated last line, left by a write cut short, off the file;
    the header is checked first, so a foreign file is refused untouched."""
    content = path.read_bytes() if path.exists() else b""
    first = content[: content.find(b"\n") + 1] or content  # with its newline, if any
    _check_header(path, first.decode(errors="replace"))
    end = content.rfind(b"\n") + 1
    if end < len(content):
        logger.warning("%s: dropping the torn last line %r", path, content[end:])
        os.truncate(path, end)


def _read_records(path: Path) -> list:
    """The complete rows of a results file; an absent or empty file, or a lone
    header, whole or torn, holds none, and a foreign header is refused."""
    if not path.exists():
        return []
    with path.open() as fh:
        _check_header(path, fh.readline())
        rows = (line.split("\t") for line in fh.read().split("\n"))
        return [parts for parts in rows if len(parts) == len(RECORD_COLUMNS)]


def _plan(cfg: RunConfig, dataset: Dataset, done: set):
    """The folds of `dataset` that still miss a record, in grid order.

    Yields (rep, fold, train, test, params, cells): the two halves
    standardized on the training half, its scaling parameters, and one
    (variant, selectors missing a metric) cell per variant with work left.
    A fold with no training row, or under AUC one test class, raises.
    """
    variants = tuple(normalize_variant(v) for v in cfg.variants)
    selectors = tuple(normalize_selector(s) for s in cfg.selectors)
    split = stratified_5x2(dataset, derive_seed(cfg.seed, "split", dataset.name))
    for rep, fold, train_idx, test_idx in split.folds():
        cells = []
        for variant in variants:
            missing = [
                s for s in selectors
                if any((dataset.name, variant, s, str(rep + 1), fold, m) not in done
                       for m in cfg.metrics)
            ]
            if missing:
                cells.append((variant, missing))
        if cells:
            if "auc" in cfg.metrics and np.unique(dataset.labels[test_idx]).size < 2:
                raise ValueError(f"replication {rep + 1} fold {fold}: AUC needs 2 test classes")
            train, (test,), params = standardize(
                dataset.subset(train_idx), [dataset.subset(test_idx)]
            )
            yield rep, fold, train, test, params, cells


def _planned_datasets(cfg: RunConfig, done: set):
    """(entry, (dataset, `_plan`'s folds)) per dataset entry, loaded once reached, or
    (entry, exception) if it fails to load or plan or its name is taken (keys would repeat)."""
    taken = {}  # dataset name -> the entry that took it
    for spec in cfg.datasets:
        try:
            dataset = resolve_dataset(spec, cfg)
            if taken.setdefault(dataset.name, spec) != spec:
                raise ValueError(f"its name {dataset.name} is taken by {taken[dataset.name]}")
            logger.info("dataset %s: %d samples, %d classes",
                        dataset.name, dataset.n_samples, dataset.n_classes)
            planned = dataset, list(_plan(cfg, dataset, done))
        except Exception as exc:  # isolate per-dataset failures
            planned = exc
        yield spec, planned


def evaluate_cell(cfg: RunConfig, train: Dataset, test: Dataset, variant: str,
                  rep: int, fold: str, selectors) -> list:
    """Score `selectors` on one (dataset, replication, fold, variant) cell.

    Grows the pool and the DSEL from the standardized training half, trains
    META-DES only when it is asked for, and runs each selector over the test
    half. The cell's randomness comes only from its derived seed. Returns
    (selector, {metric: value}, wall_time_s) per selector; wall_time_s is
    that selector's selection plus scoring.
    """
    fold_seed = derive_seed(cfg.seed, train.name, variant, rep, fold)
    pool = generate_pool(train, variant, cfg.pool_size, TreeConfig(), fold_seed)
    ctx = SelectionContext(pool, build_dsel(train, variant, fold_seed))
    scfg = SelectorConfig(k=cfg.k, seed=derive_seed(fold_seed, "selector"))
    if "META-DES" in selectors:
        ctx.meta = train_meta_classifier(ctx, train, k=scfg.k, kp=scfg.meta_kp)
    queries = ctx.make_queries(test.features, scfg.k)
    scored = []
    for selector in selectors:
        start = time.perf_counter()
        labels = np.empty(len(queries), dtype=int)
        scores = np.empty((len(queries), train.n_classes))
        for qi, query in enumerate(queries):
            result = run_selector(selector, ctx, query, scfg)
            labels[qi] = result.predicted_class
            scores[qi] = result.aggregate_score(query)
        values = {}
        for metric in cfg.metrics:
            if metric == "auc":
                values[metric] = auc_multiclass(scores, test.labels)
            elif metric == "fmeasure":
                values[metric] = f_measure_weighted(labels, test.labels)
            else:
                values[metric] = g_mean(labels, test.labels)
        scored.append((selector, values, time.perf_counter() - start))
    return scored


def _evaluate_held(cell) -> tuple:
    """The outcome of `evaluate_cell(*cell)`, its scores or the exception it
    raised, and the desbal log records it made, held back from every handler
    so that the writer emits them in plan order. Never raises. The exception
    keeps its traceback text in `cell_traceback`: pickling drops the rest."""
    package_logger = logging.getLogger(__package__)
    saved = package_logger.handlers, package_logger.propagate
    held = logging.handlers.BufferingHandler(capacity=float("inf"))  # never flushes
    package_logger.handlers, package_logger.propagate = [held], False
    try:
        return evaluate_cell(*cell), held.buffer
    except Exception as exc:
        exc.cell_traceback = "".join(traceback.format_exception(exc))
        return exc, held.buffer
    finally:
        package_logger.handlers, package_logger.propagate = saved


def _shared_outcomes(executor, cells):
    """`_evaluate_held` of each cell in plan order, run by this process and
    `executor`'s workers together (this process alone if `executor` is None).
    Every cell is queued to the workers; this process takes each cell no
    worker has started yet, runs it, then yields the outcomes done so far in
    plan order, and stops after one that raised here. Kept busy, this
    process holds a core of its own instead of waking onto a worker's."""
    futures = [executor.submit(_evaluate_held, cell) if executor else Future() for cell in cells]
    yielded, last = 0, len(cells)
    for i, cell in enumerate(cells):
        if not futures[i].cancel():
            continue  # a worker has it
        futures[i] = Future()
        futures[i].set_result(_evaluate_held(cell))
        if isinstance(futures[i].result()[0], Exception):
            last = i + 1  # this process takes no cell after it
            break
        while yielded < len(futures) and futures[yielded].done():
            yield futures[yielded].result()
            yielded += 1
    for future in futures[yielded:last]:
        yield future.result()


def _worker_count(cells: int) -> int:
    """Processes to run `cells` cells on, this one included: one per CPU of
    this process's affinity mask, at most one per cell. Where `fork` or the
    affinity mask is unavailable, this process counts as the one CPU."""
    fork = "fork" in multiprocessing.get_all_start_methods()
    cpus = len(os.sched_getaffinity(0)) if fork and hasattr(os, "sched_getaffinity") else 1
    return min(cpus, cells)


def run_experiment(cfg: RunConfig) -> RunSummary:
    """Execute the full grid, appending records not yet present on disk.

    `_planned_datasets` gives each entry's folds with records missing (an entry
    that fails to load or to plan, or reuses an earlier entry's name, is skipped
    unwritten) and `evaluate_cell` scores their cells through `_shared_outcomes`:
    in this process and a forked worker per further usable CPU, at most one
    process per cell. The loop below takes the cells back in plan order, emits
    the log records each one made, then re-raises the exception it raised or
    appends its missing records and flushes, so the file and the log are those
    of a serial run and a crash leaves a prefix of them. The record key (dataset,
    variant, selector, replication, fold, metric) makes resumption idempotent.
    `preflight` makes the pre-cell checks without writing. `fold` names the tested half.
    """
    problems = validate_config(cfg)
    if problems:
        raise ConfigError("; ".join(problems))
    out_dir = Path(cfg.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    results_path = out_dir / RESULTS_FILE
    _drop_torn_tail(results_path)
    done = {tuple(parts[:6]) for parts in _read_records(results_path)}
    if not (out_dir / MANIFEST_FILE).exists():  # written once results.tsv is known to be ours
        _write_atomic(out_dir / MANIFEST_FILE, (
            f"config_hash = {config_hash(cfg)}\ncode_version = {__version__}\n"
            f"created_unix = {int(time.time())}\n--- config ---\n{cfg.canonical_text()}"
        ))
    summary = RunSummary(results_path=results_path, records_skipped=len(done))
    new_file = not results_path.exists() or results_path.stat().st_size == 0

    with results_path.open("a") as out:
        if new_file:
            out.write(HEADER_LINE)
        for spec, planned in _planned_datasets(cfg, done):
            if isinstance(planned, Exception):
                logger.error("dataset %s skipped: %s", spec, planned)
                summary.failed_datasets.append(spec)
                continue
            dataset, plan = planned
            cells = []
            for rep, fold, train, test, params, fold_cells in plan:
                scaling_path = out_dir / f"scaling_{dataset.name}_r{rep + 1}{fold}.txt"
                if not scaling_path.exists():
                    _write_atomic(scaling_path, params.to_text())
                cells += [(cfg, train, test, variant, rep, fold, selectors)
                          for variant, selectors in fold_cells]
            workers = _worker_count(len(cells))
            logger.info("dataset %s: %d cells left, run in this process%s", dataset.name,
                        len(cells), f" and {workers - 1} forked worker(s)" if workers > 1 else "")
            executor = ProcessPoolExecutor(
                workers - 1, mp_context=multiprocessing.get_context("fork")
            ) if workers > 1 else None
            try:
                outcomes = _shared_outcomes(executor, cells)
                for n, (cell, (scored, records)) in enumerate(zip(cells, outcomes)):
                    for record in records:
                        logging.getLogger(record.name).handle(record)
                    if isinstance(scored, Exception):  # its cause shows the cell's frames
                        raise scored from CellError(scored.cell_traceback)
                    variant, rep, fold = cell[3:6]
                    for selector, values, seconds in scored:
                        for metric in cfg.metrics:
                            key = (dataset.name, variant, selector, str(rep + 1), fold, metric)
                            if key not in done:
                                out.write("\t".join(key)
                                          + f"\t{values[metric]:.12g}\t{seconds:.3f}\n")
                                summary.records_written += 1
                    out.flush()
                    if n + 1 == len(cells) or cells[n + 1][4:6] != (rep, fold):  # fold's last
                        logger.info("%s replication %d fold %s done", dataset.name, rep + 1, fold)
            finally:
                if executor:  # cells not yet started are dropped, running ones finish
                    executor.shutdown(cancel_futures=True)
    return summary


def preflight(cfg: RunConfig) -> list:
    """`run_experiment`'s checks before its first cell, in its order, writing nothing: the
    config's, the results header's, then each entry's load and plan against its records."""
    problems = validate_config(cfg)
    if problems:
        return problems
    try:
        done = {tuple(parts[:6]) for parts in _read_records(Path(cfg.output) / RESULTS_FILE)}
    except IncompleteGridError as exc:
        return [str(exc)]
    return [f"dataset {spec}: {planned}" for spec, planned in _planned_datasets(cfg, done)
            if isinstance(planned, Exception)]


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def _manifest_config(input_dir: Path) -> RunConfig:
    text = (Path(input_dir) / MANIFEST_FILE).read_text()
    marker = "--- config ---\n"
    if marker not in text:
        raise IncompleteGridError("manifest is missing the config block")
    return parse_config_text(text.split(marker, 1)[1])


def _fold_means(records, metric: str, axes):
    """The (dataset, variant, selector) array of `metric`'s fold means over
    `axes`, each summed in file order over its cell's records, duplicates and
    records off the 5x2 grid included. Raises, listing the first 20 in grid
    order, while the (dataset, variant, selector, replication, fold) grid
    misses a record."""
    grid = (*axes, tuple(str(rep) for rep in range(1, REPLICATIONS + 1)), FOLDS)
    codes = [{name: i for i, name in enumerate(axis)} for axis in grid]
    columns = list(zip(*[r for r in records if r[5] == metric])) or [()] * len(RECORD_COLUMNS)
    index = np.array([  # (5, records); -1 off an axis
        np.fromiter(map(code.get, column, repeat(-1)), np.intp, len(column))
        for code, column in zip(codes, columns)
    ])
    present = np.zeros(tuple(map(len, grid)), dtype=bool)
    present[tuple(index[:, (index >= 0).all(axis=0)])] = True
    missing = np.argwhere(~present)
    if len(missing):
        head = "\n".join(
            "  " + " / ".join([*(names[i] for names, i in zip(grid, cell)), metric])
            for cell in missing[:20]
        )
        more = f"\n  ... and {len(missing) - 20} more" if len(missing) > 20 else ""
        raise IncompleteGridError(f"missing {len(missing)} cells:\n{head}{more}")
    values = np.fromiter(map(float, columns[6]), float, len(columns[6]))
    in_axes = (index[:3] >= 0).all(axis=0)
    shape = present.shape[:3]
    cells = np.ravel_multi_index(index[:3, in_axes], shape)
    sums = np.bincount(cells, weights=values[in_axes], minlength=np.prod(shape))
    return (sums / np.bincount(cells, minlength=np.prod(shape))).reshape(shape)


def _ranked(tables, alpha=0.05):
    """Average ranks of the columns of a (datasets, methods) table, or of each
    table of a stack, the best-ranked column, and True where a column is
    statistically equivalent to the best (Finner step-down at `alpha`)."""
    ranks = average_ranks(tables)
    best = np.argmin(ranks, axis=-1)
    equivalent = np.ones(ranks.shape, dtype=bool)
    if ranks.shape[-1] > 1:
        _, pvals, others = rank_test_pvalues(ranks, tables.shape[-2])
        np.put_along_axis(equivalent, others, ~finner_stepdown(pvals, alpha), axis=-1)
    return ranks, best, equivalent


def make_report(input_dir, metric: str) -> str:
    """Render rank tables and the sign-test summary for one metric.

    Sections: (a) per-selector average ranks of the preprocessing variants,
    (b) global ranks of each selector's best variant, (c) wins/ties/losses of
    each selector's best variant against its plain-bagging baseline. Every
    section reads one (dataset, variant, selector) array of fold means.
    Brackets mark methods statistically equivalent to the best (Finner,
    alpha = 0.05). The metric name is case-insensitive, and a metric the
    run's config does not record is refused.
    """
    metric = normalize_metric(metric)
    input_dir = Path(input_dir)
    results_path = input_dir / RESULTS_FILE
    if not results_path.exists():
        raise IncompleteGridError(f"no {RESULTS_FILE} in {input_dir}")
    records = _read_records(results_path)
    cfg = _manifest_config(input_dir)
    if metric not in cfg.metrics:
        raise ValueError(f"this run records {', '.join(cfg.metrics)}, not {metric}")
    variants = tuple(normalize_variant(v) for v in cfg.variants)
    selectors = tuple(normalize_selector(s) for s in cfg.selectors)
    datasets = tuple(sorted({r[0] for r in records}))
    if not datasets:
        raise IncompleteGridError("no records found")
    means = _fold_means(records, metric, (datasets, variants, selectors))
    lines = [f"=== Report: {metric} over {len(datasets)} dataset(s) ===", ""]

    # (a) preprocessing comparison per selector
    lines.append("(a) Average rank of each preprocessing variant per selector")
    lines.append("    ([x.xx] = equivalent to the row's best, Finner alpha=0.05)")
    lines.append(f"{'selector':<12}" + "".join(f"{v:>12}" for v in variants))
    ranks, best_variant, equivalent = _ranked(means.transpose(2, 0, 1))
    for selector, row, best, flags in zip(
        selectors, ranks.tolist(), best_variant.tolist(), equivalent.tolist()
    ):
        cells = [f"[{r:.2f}]" if flag else f"{r:.2f}" for r, flag in zip(row, flags)]
        cells[best] = f"*{row[best]:.2f}"
        lines.append(f"{selector:<12}" + "".join(f"{cell:>12}" for cell in cells))
    lines.append("")

    # (b) best-variant-per-selector global comparison
    lines.append("(b) Average rank of each selector with its best variant")
    chosen = means[:, best_variant, np.arange(len(selectors))]
    ranks, best, equivalent = _ranked(chosen)
    for pos in np.argsort(ranks, kind="stable"):
        name = f"{variants[best_variant[pos]]}+{selectors[pos]}"
        mark = "*" if pos == best else ("[=]" if equivalent[pos] else "   ")
        lines.append(f"  {name:<24}{ranks[pos]:>8.2f}  {mark}")
    lines.append("")

    # (c) sign test of each selector's best variant vs its plain-Ba baseline
    if "Ba" in variants:
        lines.append("(c) Wins/ties/losses vs the same selector with plain bagging")
        lines.append("    (significance of the win count at alpha 0.10 / 0.05 / 0.01)")
        baseline = means[:, variants.index("Ba")]
        wins = (chosen > baseline).sum(axis=0).tolist()
        losses = (chosen < baseline).sum(axis=0).tolist()
        for name, v, w, l in zip(selectors, best_variant, wins, losses):
            t = len(datasets) - w - l
            marks = "".join(
                "+" if sign_test(w, t, l, alpha).significant else "."
                for alpha in (0.10, 0.05, 0.01)
            )
            lines.append(f"  {name:<12} best={variants[v]:<9} W/T/L = {w}/{t}/{l}  [{marks}]")
    else:
        lines.append("(c) skipped: plain bagging (Ba) is not part of this run")
    return "\n".join(lines) + "\n"
