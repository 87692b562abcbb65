"""The names the benchmark in perfbench/ wraps and calls, checked in tier 1.

perfbench/layers.py wraps desbal functions and methods by name, and
perfbench/workloads.py calls them with fixed argument shapes and checks the
shape of every selection decision with perfbench/measure.py. A rename, a
changed signature or a changed decision shape shows up here instead of only
when the benchmark runs.
"""

import inspect
import json
import os
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        import measure
        import spans
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return layers, measure, spans, workloads


def test_benchmark_wraps_and_calls_resolve():
    layers, _, spans, workloads = _perfbench()
    from desbal import data, experiment, pool, selection
    from desbal.tree import TreeConfig

    tracer = spans.Tracer()
    try:
        layers.install(tracer)
    finally:
        tracer.unwrap_all()
    assert set(workloads.WORKLOADS) == {"headline-grid", "selector-sweep", "report-grid"}
    assert selection.SelectorConfig(k=7, seed=1).meta_kp == 5
    for fn, args, kwargs in [
        (selection.SelectionContext, ("pool", "dsel"), {}),
        (selection.SelectionContext.make_queries, ("ctx", "X", 7), {}),
        (selection.train_meta_classifier, ("ctx", "train"), {"k": 7, "kp": 5}),
        (selection.run_selector, ("KNU", "ctx", "query", "cfg"), {}),
        (selection.SelectionResult.aggregate_score, ("result", "query"), {}),
        (experiment.make_report, ("dir", "auc"), {}),
        (experiment.run_experiment, ("cfg",), {}),
        (experiment.resolve_dataset, ("spec", "cfg"), {}),
        (data.stratified_5x2, ("ds", 1), {}),
        (data.SplitPlan.folds, ("plan",), {}),
        (data.standardize, ("train", ["test"]), {}),
        (pool.generate_pool, ("train", "Ba", 100, TreeConfig(), 1), {}),
        (pool.build_dsel, ("train", "Ba", 1), {}),
        (experiment.RunConfig, (), {
            "datasets": (), "output": "", "variants": (), "selectors": (),
            "metrics": (), "pool_size": 100, "k": 7, "seed": 1,
        }),
    ]:
        inspect.signature(fn).bind(*args, **kwargs)
    assert len(selection.SELECTOR_NAMES) == 15
    # selector-sweep unpacks a fold and a standardization like this
    ds = data.Dataset("toy", [[0.0], [1.0], [2.0], [3.0]], [0, 0, 1, 1], ("a", "b"))
    _, _, train_idx, test_idx = next(iter(data.stratified_5x2(ds, 1).folds()))
    _, (_,), _ = data.standardize(ds.subset(train_idx), [ds.subset(test_idx)])
    # report-grid writes results.tsv itself, one column per field in this order
    assert experiment.RESULTS_FILE == "results.tsv"
    assert experiment.RECORD_COLUMNS == (
        "dataset", "variant", "selector", "replication", "fold",
        "metric", "value", "wall_time_s",
    )
    summary = experiment.RunSummary(results_path="results.tsv")
    assert (summary.records_written, summary.records_skipped) == (0, 0)


def test_traced_run_opens_every_span(tmp_path, monkeypatch):
    """A traced run on one CPU (`taskset -c 0`) still reaches every wrapped
    call site of the runner; on more, the spans of the cells a worker ran
    stay in the worker."""
    layers, _, spans, _ = _perfbench()
    from desbal import experiment

    def traced_run(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        cfg = experiment.RunConfig(
            datasets=("builtin:glass",), output=str(tmp_path / f"run{cpus}"),
            variants=("Ba", "Ba-SM"), selectors=("STATIC", "KNU", "META-DES"),
            metrics=("auc", "fmeasure", "gmean"), pool_size=3,
        )
        tracer = spans.Tracer()
        try:
            layers.install(tracer)
            experiment.run_experiment(cfg)
        finally:
            tracer.unwrap_all()
        return set(tracer.names)

    parent = {"benchmarks.load", "data.split", "data.standardize", "experiment.run"}
    one_cpu = traced_run(1)
    assert one_cpu == parent | {
        "metrics.score", "pool.build_dsel", "pool.generate", "pool.predict",
        "resampling.apply", "resampling.resample", "selection.aggregate",
        "selection.context", "selection.make_queries", "selection.meta_train",
        "selection.select.KNU", "selection.select.META-DES",
        "selection.select.STATIC", "tree.fit",
    }
    assert parent <= traced_run(2) <= one_cpu


def test_traced_report_opens_every_stats_span(tmp_path):
    """A traced report still calls the stats functions the benchmark wraps,
    so report-grid keeps its `stats.*` and `experiment.report` metrics."""
    layers, _, spans, _ = _perfbench()
    from desbal import experiment

    cfg = experiment.RunConfig(
        datasets=("builtin:glass",), output=str(tmp_path / "run"),
        variants=("Ba", "Ba-SM"), selectors=("STATIC", "KNU"), metrics=("gmean",),
        pool_size=2,
    )
    experiment.run_experiment(cfg)
    tracer = spans.Tracer()
    try:
        layers.install(tracer)
        text = experiment.make_report(cfg.output, "gmean")
    finally:
        tracer.unwrap_all()
    assert "W/T/L" in text
    assert set(tracer.names) == {
        "experiment.report", "stats.ranks", "stats.finner", "stats.sign_test",
    }


def test_every_decision_has_the_shape_the_sweep_checks():
    """selector-sweep times one `run_selector` plus `aggregate_score` per
    query and counts a decision whose shape `measure.decision_ok` refuses as
    a failed operation."""
    _, measure, _, _ = _perfbench()
    from desbal import data, pool, selection
    from desbal.benchmarks import load_benchmark
    from desbal.tree import TreeConfig

    glass = load_benchmark("glass")
    _, _, train_idx, test_idx = next(iter(data.stratified_5x2(glass, 1).folds()))
    train, (test,), _ = data.standardize(glass.subset(train_idx), [glass.subset(test_idx)])
    bagged = pool.generate_pool(train, "Ba-RM", 5, TreeConfig(), 1)
    ctx = selection.SelectionContext(bagged, pool.build_dsel(train, "Ba-RM", 1))
    ctx.meta = selection.train_meta_classifier(ctx, train, k=7, kp=5)
    cfg = selection.SelectorConfig(k=7, seed=1)
    queries = ctx.make_queries(test.features, 7)
    M, L = ctx.pool_size, ctx.n_classes
    for name in selection.SELECTOR_NAMES:
        for q in queries:
            result = selection.run_selector(name, ctx, q, cfg)
            assert measure.decision_ok(
                result.selected, result.predicted_class, result.aggregate_score(q), M, L
            ), (name, result)


def test_sweep_pass_reproduces_the_reference_digests(tmp_path):
    """One selector-sweep pass at the benchmark's default seed gives every
    digest perfbench/reference.json holds: each selection and score of the
    15 schemes over the test queries of its 8 contexts, byte for byte."""
    _, _, _, workloads = _perfbench()
    sys.path.insert(0, str(PERFBENCH))
    try:
        from run import DEFAULT_SEED
    finally:
        sys.path.remove(str(PERFBENCH))
    stored = json.loads((PERFBENCH / "reference.json").read_text())["selector-sweep"]
    sweep = workloads.SelectorSweep()
    state = sweep.setup(DEFAULT_SEED, tmp_path)
    assert state["names"] == stored["datasets"]
    outcome = sweep.run(state, 0.0, stored["digests"])  # a deadline already past: one pass
    attempted, failed = outcome.attempted, outcome.failed
    assert attempted > 0 and failed == 0
    assert outcome.digests == stored["digests"]
