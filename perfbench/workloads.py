"""The three workloads. Each has a set-up, repeated by the runner, and a
closed timed loop: one caller, one call at a time, no threads of its own.
Each timed call is recorded with its start, so that the runner can scale
it by the host-speed probes around it (see speed.py).

Calls go through module attributes (`experiment.run_experiment`,
`selection.run_selector`, ...) looked up at call time, so a traced run sees
them through the wrappers `layers.install` puts in place.
"""

import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import desbal.data as data
import desbal.experiment as experiment
import desbal.pool as pool
import desbal.selection as selection
from desbal.rng import derive_seed
from desbal.tree import TreeConfig

import measure

VARIANTS = ("Ba", "Ba-RM100", "Ba-RM", "Ba-SM100", "Ba-SM", "Ba-RB")
POOL_SIZE = 100
K = 7


@dataclass
class Outcome:
    """What one timed part produced."""

    samples: list = field(default_factory=list)  # (start, wall seconds) per timed call
    attempted: int = 0
    failed: int = 0
    digests: dict = field(default_factory=dict)


def resolve(specs, cfg) -> dict:
    """spec -> dataset as `run_experiment` resolves it."""
    return {spec: experiment.resolve_dataset(spec, cfg) for spec in specs}


# ---------------------------------------------------------------------------
# headline-grid
# ---------------------------------------------------------------------------


class HeadlineGrid:
    """`run_experiment` on the criterion-08 grid restricted to glass.

    The full four-dataset grid runs about 130 s on a 2-core machine, beyond
    what one benchmark run may take; glass keeps a six-class dataset with
    small minorities, and pool size, variants, selectors, metrics and k are
    the criterion-08 values. One timed call is one whole grid into a fresh
    output directory.
    """

    name = "headline-grid"
    datasets = ("builtin:glass",)

    def setup(self, seed, workdir):
        cfg = experiment.RunConfig(
            datasets=self.datasets, output=str(workdir / "grid"), variants=VARIANTS,
            selectors=("STATIC", "KNU"), metrics=("auc", "gmean"),
            pool_size=POOL_SIZE, k=K, seed=seed,
        )
        names = {spec: ds.name for spec, ds in resolve(self.datasets, cfg).items()}
        keys = [
            (name, v, s, str(rep), fold, m)
            for name in names.values() for v in cfg.variants for s in cfg.selectors
            for rep in range(1, 6) for fold in ("A", "B") for m in cfg.metrics
        ]
        return {"cfg": cfg, "names": names, "keys": keys}

    def run(self, state, deadline, reference) -> Outcome:
        out = Outcome()
        i = 0
        while True:
            cfg = replace(state["cfg"], output=f"{state['cfg'].output}{i}")
            start = time.perf_counter()
            try:
                experiment.run_experiment(cfg)
                rows = _read_rows(Path(cfg.output) / experiment.RESULTS_FILE)
            except Exception as exc:  # a raising grid fails every record
                _report_exception(exc)
                rows = []
            out.samples.append((start, time.perf_counter() - start))
            attempted, failed = measure.check_records(rows, state["keys"], reference)
            out.attempted += attempted
            out.failed += failed
            if i == 0:
                seen = {tuple(r[:6]): r[6] for r in rows}
                out.digests = {g: measure.digest(m) for g, m in measure.record_groups(seen).items()}
            shutil.rmtree(cfg.output, ignore_errors=True)
            i += 1
            if time.perf_counter() >= deadline:
                return out


def _read_rows(path):
    with open(path) as fh:
        fh.readline()
        return [line.rstrip("\n").split("\t") for line in fh]


def _report_exception(exc):
    traceback.print_exception(exc, file=sys.stderr)


# ---------------------------------------------------------------------------
# selector-sweep
# ---------------------------------------------------------------------------


class SelectorSweep:
    """All 15 selectors on every test query of replication 1, glass and
    ecoli, under Ba (DSEL = training set) and Ba-RM (DSEL about twice as
    large).

    Set-up builds pools, DSELs, contexts, meta-models and queries exactly as
    `run_experiment` does for those folds. One timed call is one
    `run_selector` plus `aggregate_score`. The timed part runs whole passes
    over every (fold, variant, selector, query); each pass after the first
    gives DES-RRC a new seed, so every pass pays the lazily filled
    `rrc_csrc` table once per context, as every fold of a real run does.
    """

    name = "selector-sweep"
    datasets = ("builtin:glass", "builtin:ecoli")
    variants = ("Ba", "Ba-RM")

    def setup(self, seed, workdir):
        cfg = experiment.RunConfig(datasets=self.datasets, output="", seed=seed)
        resolved = resolve(self.datasets, cfg)
        contexts = []
        for spec in self.datasets:
            dataset = resolved[spec]
            plan = data.stratified_5x2(dataset, derive_seed(seed, "split", dataset.name))
            for rep, fold, train_idx, test_idx in plan.folds():
                if rep != 0:
                    continue
                train_s, (test_s,), _ = data.standardize(
                    dataset.subset(train_idx), [dataset.subset(test_idx)]
                )
                for variant in self.variants:
                    fold_seed = derive_seed(seed, dataset.name, variant, rep, fold)
                    p = pool.generate_pool(train_s, variant, POOL_SIZE, TreeConfig(), fold_seed)
                    dsel = pool.build_dsel(train_s, variant, fold_seed)
                    ctx = selection.SelectionContext(p, dsel)
                    scfg = selection.SelectorConfig(k=K, seed=derive_seed(fold_seed, "selector"))
                    ctx.meta = selection.train_meta_classifier(ctx, train_s, k=K, kp=scfg.meta_kp)
                    queries = ctx.make_queries(test_s.features, K)
                    contexts.append({
                        "label": f"{dataset.name}/{variant}/r{rep + 1}{fold}",
                        "ctx": ctx, "queries": queries, "fold_seed": fold_seed,
                    })
        return {"contexts": contexts, "names": {s: d.name for s, d in resolved.items()}}

    def run(self, state, deadline, reference) -> Outcome:
        out = Outcome()
        first = {}
        n_pass = 0
        while True:
            for item in state["contexts"]:
                ctx, queries = item["ctx"], item["queries"]
                rrc_seed = derive_seed(item["fold_seed"], "selector")  # as run_experiment
                if n_pass:
                    rrc_seed = derive_seed(rrc_seed, "pass", n_pass)
                scfg = selection.SelectorConfig(k=K, seed=rrc_seed)
                for name in selection.SELECTOR_NAMES:
                    group = f"{item['label']}/{name}"
                    got, bad = self._decide(ctx, queries, name, scfg, out.samples)
                    out.attempted += len(queries)
                    out.failed += bad
                    if n_pass == 0:
                        first[group] = got
                        want = reference.get(group) if reference is not None else got
                    else:
                        want = first[group] if name != "DES-RRC" else got
                    if got != want:
                        out.failed += len(queries) - bad
            n_pass += 1
            if time.perf_counter() >= deadline:
                out.digests = first
                return out

    @staticmethod
    def _decide(ctx, queries, name, scfg, samples):
        """Run one selector on every query; (digest, invalid decisions)."""
        run_selector = selection.run_selector
        clock = time.perf_counter
        M, L = ctx.pool_size, ctx.n_classes
        lines = []
        bad = 0
        for q in queries:
            start = clock()
            try:
                result = run_selector(name, ctx, q, scfg)
                score = result.aggregate_score(q)
            except Exception as exc:  # a raising decision fails, the sweep goes on
                samples.append((start, clock() - start))
                _report_exception(exc)
                bad += 1
                lines.append("error")
                continue
            samples.append((start, clock() - start))
            if not measure.decision_ok(result.selected, result.predicted_class, score, M, L):
                bad += 1
            lines.append(
                f"{result.selected.tolist()} {result.predicted_class} "
                f"{np.round(score, 12).tobytes().hex()}"
            )
        return measure.digest(lines), bad


# ---------------------------------------------------------------------------
# report-grid
# ---------------------------------------------------------------------------


class ReportGrid:
    """A complete 15-selector x 6-variant x 1-dataset x 5x2 x 3-metric
    results.tsv (2,700 records, values drawn from the workload seed), then
    passes of one resume with nothing left to run and one render of each
    metric. One timed call is one `make_report`.

    Glass only: today a render's completeness check is quadratic in the
    record count. One render takes about 40 s on the four-dataset grid
    (10,800 records), 5 s on glass and ecoli, and about 1 s on glass alone. On a
    shared machine a render's time swings by 20% within seconds, so a run
    needs many renders for its median to hold still, and only the one-dataset
    grid gives that within a run's length. The quadratic check still
    dominates every render.
    Exercises the reading side of `experiment` and all of `stats`; no tree
    or selector runs.
    """

    name = "report-grid"
    datasets = ("builtin:glass",)

    def setup(self, seed, workdir):
        out_dir = workdir / "report"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        cfg = experiment.RunConfig(
            datasets=self.datasets, output=str(out_dir), variants=VARIANTS,
            selectors=selection.SELECTOR_NAMES, metrics=("auc", "fmeasure", "gmean"),
            pool_size=POOL_SIZE, k=K, seed=seed,
        )
        names = {spec: ds.name for spec, ds in resolve(self.datasets, cfg).items()}
        rng = np.random.default_rng(seed)
        lines = ["\t".join(experiment.RECORD_COLUMNS)]
        for name in names.values():
            for v in VARIANTS:
                for s in cfg.selectors:
                    for rep in range(1, 6):
                        for fold in ("A", "B"):
                            values = rng.uniform(0.3, 1.0, size=len(cfg.metrics))
                            for m, value in zip(cfg.metrics, values):
                                lines.append(
                                    f"{name}\t{v}\t{s}\t{rep}\t{fold}\t{m}\t{value:.12g}"
                                    f"\t{rng.uniform(0.01, 2.0):.3f}"
                                )
        (out_dir / experiment.RESULTS_FILE).write_text("\n".join(lines) + "\n")
        return {"cfg": cfg, "names": names, "records": len(lines) - 1}

    def run(self, state, deadline, reference) -> Outcome:
        cfg = state["cfg"]
        out = Outcome()
        while True:
            out.attempted += 1  # the resume
            try:
                summary = experiment.run_experiment(cfg)
                if summary.records_written or summary.records_skipped != state["records"]:
                    out.failed += 1
            except Exception as exc:
                _report_exception(exc)
                out.failed += 1
            for metric in cfg.metrics:
                start = time.perf_counter()
                try:
                    text = experiment.make_report(cfg.output, metric)
                except Exception as exc:
                    _report_exception(exc)
                    text = ""
                out.samples.append((start, time.perf_counter() - start))
                out.attempted += 1
                got = measure.digest(text.splitlines())
                out.digests.setdefault(metric, got)
                ok = measure.report_ok(text, metric, len(cfg.datasets), cfg.selectors)
                if not ok or (reference is not None and reference.get(metric) != got):
                    out.failed += 1
            if time.perf_counter() >= deadline:
                return out


WORKLOADS = {w.name: w for w in (HeadlineGrid(), SelectorSweep(), ReportGrid())}
