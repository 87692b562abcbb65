"""Benchmark runner: 5x2 cross-validated evaluation of selector/preprocessing
combinations, crash-safe result persistence, and report generation."""

import hashlib
import logging
import os
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .benchmarks import load_benchmark
from .data import (
    FOLDS, REPLICATIONS, Dataset, parse_csv, parse_keel, standardize, stratified_5x2,
)
from .metrics import METRIC_NAMES, auc_multiclass, f_measure_weighted, g_mean
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
    the type of its `RunConfig` field (tuple: a comma-separated list)."""
    kinds = {f.name: f.type for f in fields(RunConfig)}
    values = {}
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
    """All validation problems (empty list = runnable)."""
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
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            problems.append(f"{key} lists {', '.join(repeated)} more than once")
    if not cfg.datasets:
        problems.append("no datasets configured")
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


def _drop_torn_tail(path: Path) -> None:
    """Cut an unterminated last line, left by a write cut short, off the file.

    The header is checked first, so a foreign file is refused untouched: an
    unterminated first line is torn only while it is a prefix of the header.
    """
    content = path.read_bytes() if path.exists() else b""
    first = content[: content.find(b"\n") + 1] or content  # with its newline, if any
    if not HEADER_LINE.encode().startswith(first):
        raise IncompleteGridError(f"unexpected results header in {path}")
    end = content.rfind(b"\n") + 1
    if end < len(content):
        logger.warning("%s: dropping the torn last line %r", path, content[end:])
        os.truncate(path, end)


def _read_records(path: Path) -> list:
    """The complete rows of a results file; an absent, empty or header-only
    file holds none, and a foreign header is refused."""
    if not path.exists():
        return []
    with path.open() as fh:
        header = fh.readline()
        if header and tuple(header.rstrip("\n").split("\t")) != RECORD_COLUMNS:
            raise IncompleteGridError(f"unexpected results header in {path}")
        rows = (line.rstrip("\n").split("\t") for line in fh)
        return [parts for parts in rows if len(parts) == len(RECORD_COLUMNS)]


def _plan(cfg: RunConfig, dataset: Dataset, done: set):
    """The folds of `dataset` that still miss a record, in grid order.

    Yields (rep, fold, train, test, params, cells): the two halves
    standardized on the training half, its scaling parameters, and one
    (variant, selectors missing a metric) cell per variant with work left.
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
            train, (test,), params = standardize(
                dataset.subset(train_idx), [dataset.subset(test_idx)]
            )
            yield rep, fold, train, test, params, cells


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


def run_experiment(cfg: RunConfig) -> RunSummary:
    """Execute the full grid, appending records not yet present on disk.

    `_plan` yields the folds with records missing, `evaluate_cell` scores
    each of their cells, and the loop below appends a cell's missing records
    and flushes. The record key (dataset, variant, selector, replication,
    fold, metric) makes resumption idempotent. The `fold` column names the
    tested half.
    """
    problems = validate_config(cfg)
    if problems:
        raise ConfigError("; ".join(problems))
    out_dir = Path(cfg.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    results_path = out_dir / RESULTS_FILE
    manifest_path = out_dir / MANIFEST_FILE
    hash_line = f"config_hash = {config_hash(cfg)}"
    has_manifest = manifest_path.exists()
    if has_manifest and manifest_path.read_text().partition("\n")[0] != hash_line:
        raise ConfigError(f"output directory {out_dir} belongs to a different configuration")
    _drop_torn_tail(results_path)
    done = {tuple(parts[:6]) for parts in _read_records(results_path)}
    if not has_manifest:  # written only once the results file is known to be ours
        _write_atomic(manifest_path, (
            f"{hash_line}\ncode_version = {__version__}\n"
            f"created_unix = {int(time.time())}\n--- config ---\n{cfg.canonical_text()}"
        ))
    summary = RunSummary(results_path=results_path, records_skipped=len(done))
    new_file = not results_path.exists() or results_path.stat().st_size == 0

    with results_path.open("a") as out:
        if new_file:
            out.write(HEADER_LINE)
        for spec in cfg.datasets:
            try:
                dataset = resolve_dataset(spec, cfg)
            except Exception as exc:  # isolate per-dataset failures
                logger.error("dataset %s failed to load: %s", spec, exc)
                summary.failed_datasets.append(spec)
                continue
            logger.info("dataset %s: %d samples, %d classes",
                        dataset.name, dataset.n_samples, dataset.n_classes)
            for rep, fold, train, test, params, cells in _plan(cfg, dataset, done):
                scaling_path = out_dir / f"scaling_{dataset.name}_r{rep + 1}{fold}.txt"
                if not scaling_path.exists():
                    _write_atomic(scaling_path, params.to_text())
                for variant, selectors in cells:
                    scored = evaluate_cell(cfg, train, test, variant, rep, fold, selectors)
                    for selector, values, seconds in scored:
                        for metric in cfg.metrics:
                            key = (dataset.name, variant, selector, str(rep + 1), fold, metric)
                            if key not in done:
                                out.write("\t".join(key)
                                          + f"\t{values[metric]:.12g}\t{seconds:.3f}\n")
                                summary.records_written += 1
                    out.flush()
                logger.info("%s replication %d fold %s done", dataset.name, rep + 1, fold)
    return summary


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def _manifest_config(input_dir: Path) -> RunConfig:
    text = (Path(input_dir) / MANIFEST_FILE).read_text()
    marker = "--- config ---\n"
    if marker not in text:
        raise IncompleteGridError("manifest is missing the config block")
    return parse_config_text(text.split(marker, 1)[1])


def fold_means(records, metric: str):
    """Mean of the 10 fold scores per (dataset, variant, selector)."""
    sums, counts = {}, {}
    for dataset, variant, selector, _rep, _fold, m, value, _t in records:
        if m != metric:
            continue
        key = (dataset, variant, selector)
        sums[key] = sums.get(key, 0.0) + float(value)
        counts[key] = counts.get(key, 0) + 1
    return {key: sums[key] / counts[key] for key in sums}


def _equivalence_flags(avg_ranks, n_datasets, alpha=0.05):
    """True where a method is statistically equivalent to the best-ranked one."""
    m = len(avg_ranks)
    flags = np.ones(m, dtype=bool)
    if m < 2 or n_datasets < 1:
        return flags
    best, pvals, others = rank_test_pvalues(np.asarray(avg_ranks), n_datasets)
    rejected = finner_stepdown(pvals, alpha)
    for pos, idx in enumerate(others):
        flags[idx] = not rejected[pos]
    return flags


def make_report(input_dir, metric: str) -> str:
    """Render rank tables and the sign-test summary for one metric.

    Sections: (a) per-selector average ranks of the preprocessing variants,
    (b) global ranks of each selector's best variant, (c) wins/ties/losses of
    each selector's best variant against its plain-bagging baseline. Brackets
    mark methods statistically equivalent to the best (Finner, alpha = 0.05).
    """
    if metric not in METRIC_NAMES:
        raise ValueError(f"unknown metric {metric!r}; choose from {METRIC_NAMES}")
    input_dir = Path(input_dir)
    results_path = input_dir / RESULTS_FILE
    if not results_path.exists():
        raise IncompleteGridError(f"no {RESULTS_FILE} in {input_dir}")
    records = _read_records(results_path)
    cfg = _manifest_config(input_dir)
    variants = tuple(normalize_variant(v) for v in cfg.variants)
    selectors = tuple(normalize_selector(s) for s in cfg.selectors)
    datasets = tuple(sorted({r[0] for r in records}))
    if not datasets:
        raise IncompleteGridError("no records found")
    present = {tuple(r[:6]) for r in records}
    missing = [
        (d, v, s, str(rep), fold, metric)
        for d in datasets
        for v in variants
        for s in selectors
        for rep in range(1, REPLICATIONS + 1)
        for fold in FOLDS
        if (d, v, s, str(rep), fold, metric) not in present
    ]
    if missing:
        head = "\n".join("  " + " / ".join(cell) for cell in missing[:20])
        more = f"\n  ... and {len(missing) - 20} more" if len(missing) > 20 else ""
        raise IncompleteGridError(f"missing {len(missing)} cells:\n{head}{more}")
    means = fold_means(records, metric)
    n_ds = len(datasets)
    lines = [f"=== Report: {metric} over {n_ds} dataset(s) ===", ""]

    # (a) preprocessing comparison per selector
    lines.append("(a) Average rank of each preprocessing variant per selector")
    lines.append("    ([x.xx] = equivalent to the row's best, Finner alpha=0.05)")
    header = f"{'selector':<12}" + "".join(f"{v:>12}" for v in variants)
    lines.append(header)
    best_variant = {}
    for selector in selectors:
        table = np.array(
            [[means[(d, v, selector)] for v in variants] for d in datasets]
        )
        rt = average_ranks(table, variants)
        flags = _equivalence_flags(rt.average_ranks, n_ds)
        best = int(np.argmin(rt.average_ranks))
        best_variant[selector] = variants[best]
        cells = []
        for i, v in enumerate(variants):
            mark = f"*{rt.average_ranks[i]:.2f}" if i == best else (
                f"[{rt.average_ranks[i]:.2f}]" if flags[i] else f"{rt.average_ranks[i]:.2f}"
            )
            cells.append(f"{mark:>12}")
        lines.append(f"{selector:<12}" + "".join(cells))
    lines.append("")

    # (b) best-variant-per-selector global comparison
    lines.append("(b) Average rank of each selector with its best variant")
    combo_table = np.array(
        [[means[(d, best_variant[s], s)] for s in selectors] for d in datasets]
    )
    rt = average_ranks(combo_table, selectors)
    flags = _equivalence_flags(rt.average_ranks, n_ds)
    order = np.argsort(rt.average_ranks, kind="stable")
    for pos in order:
        name = f"{best_variant[selectors[pos]]}+{selectors[pos]}"
        rank = rt.average_ranks[pos]
        mark = "*" if pos == order[0] else ("[=]" if flags[pos] else "   ")
        lines.append(f"  {name:<24}{rank:>8.2f}  {mark}")
    lines.append("")

    # (c) sign test of each selector's best variant vs its plain-Ba baseline
    if "Ba" in variants:
        lines.append("(c) Wins/ties/losses vs the same selector with plain bagging")
        lines.append("    (significance of the win count at alpha 0.10 / 0.05 / 0.01)")
        for selector in selectors:
            chosen = best_variant[selector]
            wins = ties = losses = 0
            for d in datasets:
                a = means[(d, chosen, selector)]
                b = means[(d, "Ba", selector)]
                if a > b:
                    wins += 1
                elif a < b:
                    losses += 1
                else:
                    ties += 1
            marks = "".join(
                "+" if sign_test(wins, ties, losses, alpha).significant else "."
                for alpha in (0.10, 0.05, 0.01)
            )
            lines.append(
                f"  {selector:<12} best={chosen:<9} "
                f"W/T/L = {wins}/{ties}/{losses}  [{marks}]"
            )
    else:
        lines.append("(c) skipped: plain bagging (Ba) is not part of this run")
    return "\n".join(lines) + "\n"
