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
    FOLDS, REPLICATIONS, Dataset, encode_nominals, parse_csv, parse_keel, standardize,
    stratified_5x2,
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
    score_mode: str = "support"  # or "onehot": score AUC on the voted label
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
    if cfg.score_mode not in ("support", "onehot"):
        problems.append("score_mode must be 'support' or 'onehot'")
    return problems


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(cfg.canonical_text().encode()).hexdigest()[:16]


def resolve_dataset(spec: str, cfg: RunConfig) -> Dataset:
    """Turn one dataset entry (builtin:<name> or a file path) into a Dataset."""
    if spec.startswith("builtin:"):
        ds = load_benchmark(spec.split(":", 1)[1], data_dir=cfg.data_dir or None)
    else:
        path = Path(spec)
        text = path.read_text()
        if path.suffix.lower() == ".csv":
            ds = parse_csv(text, cfg.csv_label_column, name=path.stem)
        else:
            ds = parse_keel(text, name=path.stem)
    return encode_nominals(ds).validate()


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


@dataclass
class RunSummary:
    results_path: Path
    records_written: int = 0
    records_skipped: int = 0
    failed_datasets: list = field(default_factory=list)


def _drop_torn_tail(path: Path) -> None:
    """Cut an unterminated last line, left by a write cut short, off the file."""
    content = path.read_bytes() if path.exists() else b""
    end = content.rfind(b"\n") + 1
    if end < len(content):
        logger.warning("%s: dropping the torn last line %r", path, content[end:])
        os.truncate(path, end)


def _existing_keys(path: Path) -> set:
    keys = set()
    if not path.exists():
        return keys
    with path.open() as fh:
        fh.readline()  # header
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            if len(parts) == len(RECORD_COLUMNS):
                keys.add(tuple(parts[:6]))
    return keys


def _evaluate_selector(ctx, queries, selector, scfg, score_mode, n_classes):
    labels = np.empty(len(queries), dtype=int)
    scores = np.empty((len(queries), n_classes))
    for qi, query in enumerate(queries):
        result = run_selector(selector, ctx, query, scfg)
        labels[qi] = result.predicted_class
        if score_mode == "support":
            scores[qi] = result.aggregate_score(query)
        else:
            scores[qi] = 0.0
            scores[qi, result.predicted_class] = 1.0
    return labels, scores


def _metric_value(metric, labels_pred, scores, labels_true):
    if metric == "auc":
        return auc_multiclass(scores, labels_true)
    if metric == "fmeasure":
        return f_measure_weighted(labels_pred, labels_true)
    return g_mean(labels_pred, labels_true)


def run_experiment(cfg: RunConfig) -> RunSummary:
    """Execute the full grid, appending records not yet present on disk.

    Per dataset: 5x2 stratified splits; per fold: standardize on the training
    half, generate one pool and one DSEL per variant, evaluate every selector
    on the held-out half, and append one record per metric. The record key
    (dataset, variant, selector, replication, fold, metric) makes resumption
    idempotent. The `fold` column names the tested half.
    """
    problems = validate_config(cfg)
    if problems:
        raise ConfigError("; ".join(problems))
    out_dir = Path(cfg.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    results_path = out_dir / RESULTS_FILE
    manifest_path = out_dir / MANIFEST_FILE
    digest = config_hash(cfg)
    if manifest_path.exists():
        recorded = manifest_path.read_text().partition("\n")[0]
        if recorded != f"config_hash = {digest}":
            raise ConfigError(
                f"output directory {out_dir} belongs to a different configuration"
            )
    else:
        manifest_path.write_text(
            f"config_hash = {digest}\ncode_version = {__version__}\n"
            f"created_unix = {int(time.time())}\n--- config ---\n{cfg.canonical_text()}"
        )
    _drop_torn_tail(results_path)
    done = _existing_keys(results_path)
    summary = RunSummary(results_path=results_path, records_skipped=len(done))
    new_file = not results_path.exists() or results_path.stat().st_size == 0
    variants = tuple(normalize_variant(v) for v in cfg.variants)
    selectors = tuple(normalize_selector(s) for s in cfg.selectors)

    with results_path.open("a") as out:
        if new_file:
            out.write("\t".join(RECORD_COLUMNS) + "\n")
        for spec in cfg.datasets:
            try:
                dataset = resolve_dataset(spec, cfg)
            except Exception as exc:  # isolate per-dataset failures
                logger.error("dataset %s failed to load: %s", spec, exc)
                summary.failed_datasets.append(spec)
                continue
            logger.info("dataset %s: %d samples, %d classes",
                        dataset.name, dataset.n_samples, dataset.n_classes)
            plan = stratified_5x2(dataset, derive_seed(cfg.seed, "split", dataset.name))
            for rep, fold_name, train_idx, test_idx in plan.folds():
                cell_keys = {
                    (variant, selector, metric): (
                        dataset.name, variant, selector, str(rep + 1), fold_name, metric
                    )
                    for variant in variants
                    for selector in selectors
                    for metric in cfg.metrics
                }
                if all(key in done for key in cell_keys.values()):
                    continue
                train = dataset.subset(train_idx)
                test = dataset.subset(test_idx)
                train_s, (test_s,), params = standardize(train, [test])
                scaling_path = out_dir / f"scaling_{dataset.name}_r{rep + 1}{fold_name}.txt"
                if not scaling_path.exists():
                    scaling_path.write_text(params.to_text())
                for variant in variants:
                    needed = [
                        s for s in selectors
                        if any(
                            cell_keys[(variant, s, m)] not in done for m in cfg.metrics
                        )
                    ]
                    if not needed:
                        continue
                    fold_seed = derive_seed(
                        cfg.seed, dataset.name, variant, rep, fold_name
                    )
                    pool = generate_pool(
                        train_s, variant, cfg.pool_size, TreeConfig(), fold_seed
                    )
                    dsel = build_dsel(train_s, variant, fold_seed)
                    ctx = SelectionContext(pool, dsel)
                    scfg = SelectorConfig(
                        k=cfg.k, seed=derive_seed(fold_seed, "selector")
                    )
                    if "META-DES" in needed:
                        ctx.meta = train_meta_classifier(
                            ctx, train_s, k=scfg.k, kp=scfg.meta_kp
                        )
                    queries = ctx.make_queries(test_s.features, scfg.k)
                    for selector in needed:
                        start = time.perf_counter()
                        labels, scores = _evaluate_selector(
                            ctx, queries, selector, scfg, cfg.score_mode,
                            dataset.n_classes,
                        )
                        values = {
                            m: _metric_value(m, labels, scores, test_s.labels)
                            for m in cfg.metrics
                        }
                        elapsed = time.perf_counter() - start
                        for metric in cfg.metrics:
                            key = cell_keys[(variant, selector, metric)]
                            if key in done:
                                continue
                            out.write(
                                "\t".join(key)
                                + f"\t{values[metric]:.12g}\t{elapsed:.3f}\n"
                            )
                            done.add(key)
                            summary.records_written += 1
                    out.flush()
                logger.info(
                    "%s replication %d fold %s done", dataset.name, rep + 1, fold_name
                )
    return summary


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def _read_records(input_dir: Path):
    path = Path(input_dir) / RESULTS_FILE
    if not path.exists():
        raise IncompleteGridError(f"no {RESULTS_FILE} in {input_dir}")
    records = []
    with path.open() as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if tuple(header) != RECORD_COLUMNS:
            raise IncompleteGridError(f"unexpected results header in {path}")
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            if len(parts) == len(RECORD_COLUMNS):
                records.append(parts)
    return records


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
    records = _read_records(input_dir)
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
