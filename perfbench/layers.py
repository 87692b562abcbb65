"""Where the traced run puts its spans, and the per-layer metrics read off them.

Each wrapped name is the one the *calling* module looks up at call time:
`desbal.experiment.generate_pool` for the runner, `desbal.pool.generate_pool`
for the selector sweep's own set-up, `desbal.pool.fit_tree` inside pool
generation, and so on. Span names are `<layer>.<operation>`; the layer is
the desbal module whose work the span measures.
"""

import logging
from pathlib import Path

from spans import module_of

LAYERS = (
    "tree", "resampling", "pool", "selection", "metrics",
    "stats", "experiment", "data", "benchmarks",
)


class CountingHandler(logging.Handler):
    """Counts desbal log records instead of printing them.

    Keeps console I/O out of the timings and supplies the number of
    bootstraps that still missed a class after their redraws, which
    `generate_pool` reports only as a warning.
    """

    def __init__(self):
        super().__init__(logging.WARNING)
        self.reset()

    def reset(self):
        self.by_level = {}
        self.incomplete_bootstraps = 0

    def emit(self, record):
        self.by_level[record.levelname] = self.by_level.get(record.levelname, 0) + 1
        if "bootstraps still missed a class" in str(record.msg):
            self.incomplete_bootstraps += int(record.args[1])

    def install(self):
        logger = logging.getLogger("desbal")
        logger.addHandler(self)
        logger.setLevel(logging.WARNING)
        logger.propagate = False


def _count_nodes(tracer, tree, args, kwargs):
    tracer.count("tree.nodes", tree.n_nodes)


def _count_synthetic(tracer, result, args, kwargs):
    tracer.count("resampling.synthetic_rows", len(result.synthetic_labels))


def _count_decision(tracer, result, args, kwargs):
    name, ctx = args[0], args[1]
    size = len(result.selected)
    tracer.count(f"decisions.{name}")
    tracer.count(f"ensemble.{name}", size)
    if size == ctx.pool_size:
        tracer.count(f"fallbacks.{name}")


def _count_records(tracer, summary, args, kwargs):
    tracer.count("experiment.records_written", summary.records_written)


def _run_span(args, kwargs):
    from desbal.experiment import RESULTS_FILE

    cfg = args[0] if args else kwargs["cfg"]
    resumed = (Path(cfg.output) / RESULTS_FILE).exists()
    return "experiment.resume" if resumed else "experiment.run"


def _selector_span(args, kwargs):
    return "selection.select." + args[0]


def install(tracer) -> None:
    """Wrap every traced call site of desbal."""
    import desbal.data as data
    import desbal.experiment as experiment
    import desbal.pool as pool
    import desbal.resampling as resampling
    import desbal.selection as selection

    ctx_cls = selection.SelectionContext
    sites = [
        (pool, "fit_tree", "tree.fit", _count_nodes),
        (pool, "apply_multiclass", "resampling.apply", None),
        (resampling, "resample_dataset", "resampling.resample", _count_synthetic),
        (pool, "resample_dataset", "resampling.resample", _count_synthetic),
        (experiment, "generate_pool", "pool.generate", None),
        (pool, "generate_pool", "pool.generate", None),
        (experiment, "build_dsel", "pool.build_dsel", None),
        (pool, "build_dsel", "pool.build_dsel", None),
        (pool.Pool, "predict_all", "pool.predict", None),
        (pool.Pool, "support_all", "pool.predict", None),
        (ctx_cls, "__init__", "selection.context", None),
        (ctx_cls, "make_queries", "selection.make_queries", None),
        (ctx_cls, "rrc_csrc", "selection.rrc_csrc", None),
        (experiment, "train_meta_classifier", "selection.meta_train", None),
        (selection, "train_meta_classifier", "selection.meta_train", None),
        (experiment, "run_selector", _selector_span, _count_decision),
        (selection, "run_selector", _selector_span, _count_decision),
        (selection.SelectionResult, "aggregate_score", "selection.aggregate", None),
        (experiment, "auc_multiclass", "metrics.score", None),
        (experiment, "f_measure_weighted", "metrics.score", None),
        (experiment, "g_mean", "metrics.score", None),
        (experiment, "average_ranks", "stats.ranks", None),
        (experiment, "rank_test_pvalues", "stats.finner", None),
        (experiment, "finner_stepdown", "stats.finner", None),
        (experiment, "sign_test", "stats.sign_test", None),
        (experiment, "run_experiment", _run_span, _count_records),
        (experiment, "make_report", "experiment.report", None),
        (experiment, "stratified_5x2", "data.split", None),
        (data, "stratified_5x2", "data.split", None),
        (experiment, "standardize", "data.standardize", None),
        (data, "standardize", "data.standardize", None),
        (experiment, "load_benchmark", "benchmarks.load", None),
    ]
    for owner, attr, name, on_result in sites:
        tracer.wrap(owner, attr, name, on_result)


def metric_specs(selectors) -> list:
    """(name, unit) of every per-layer metric, in report order."""
    specs = [
        ("tree.fit_s", "s"), ("tree.fit_calls", "count"), ("tree.nodes", "count"),
        ("tree.us_per_node", "us"),
        ("resampling.apply_s", "s"), ("resampling.calls", "count"),
        ("resampling.synthetic_rows", "count"),
        ("pool.generate_s", "s"), ("pool.build_dsel_s", "s"), ("pool.predict_s", "s"),
        ("pool.predict_calls", "count"), ("pool.incomplete_bootstraps", "count"),
        ("selection.context_s", "s"), ("selection.make_queries_s", "s"),
        ("selection.meta_train_s", "s"), ("selection.rrc_csrc_s", "s"),
    ]
    specs += [(f"selection.ms_per_query.{s}", "ms") for s in selectors]
    specs += [(f"selection.fallback_rate.{s}", "ratio") for s in selectors]
    specs += [(f"selection.ensemble_size.{s}", "classifiers") for s in selectors]
    specs += [
        ("metrics.score_s", "s"),
        ("stats.ranks_s", "s"), ("stats.finner_s", "s"), ("stats.sign_test_s", "s"),
        ("experiment.report_self_s", "s"), ("experiment.resume_s", "s"),
        ("experiment.records_written", "count"),
        ("data.split_s", "s"), ("data.standardize_s", "s"), ("benchmarks.load_s", "s"),
    ]
    specs += [(f"share.{layer}", "ratio") for layer in LAYERS]
    specs += [("trace.spans", "count"), ("trace.call_p50_ms", "ms")]
    return specs


def per_layer_metrics(tracer, selectors, handler, timed_start, timed_wall,
                      call_p50_ms) -> dict:
    """Every per-layer metric of one traced run, as name -> value.

    Seconds and counts cover the whole run (the last set-up and the timed
    part); `share.<layer>` is the layer's self time within the timed part
    divided by the timed part's wall time.
    """
    totals = tracer.totals()
    counters = tracer.counters

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def inclusive(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    nodes = counters.get("tree.nodes", 0)
    values = {
        "tree.fit_s": own("tree.fit"),
        "tree.fit_calls": calls("tree.fit"),
        "tree.nodes": nodes,
        "tree.us_per_node": own("tree.fit") / nodes * 1e6 if nodes else 0.0,
        "resampling.apply_s": own("resampling.apply", "resampling.resample"),
        "resampling.calls": calls("resampling.resample"),
        "resampling.synthetic_rows": counters.get("resampling.synthetic_rows", 0),
        "pool.generate_s": own("pool.generate"),
        "pool.build_dsel_s": own("pool.build_dsel"),
        "pool.predict_s": own("pool.predict"),
        "pool.predict_calls": calls("pool.predict"),
        "pool.incomplete_bootstraps": handler.incomplete_bootstraps,
        "selection.context_s": own("selection.context"),
        "selection.make_queries_s": own("selection.make_queries"),
        "selection.meta_train_s": own("selection.meta_train"),
        "selection.rrc_csrc_s": own("selection.rrc_csrc"),
    }
    for s in selectors:
        span = f"selection.select.{s}"
        n = calls(span)
        decisions = counters.get(f"decisions.{s}", 0)
        values[f"selection.ms_per_query.{s}"] = inclusive(span) / n * 1e3 if n else 0.0
        values[f"selection.fallback_rate.{s}"] = (
            counters.get(f"fallbacks.{s}", 0) / decisions if decisions else 0.0
        )
        values[f"selection.ensemble_size.{s}"] = (
            counters.get(f"ensemble.{s}", 0) / decisions if decisions else 0.0
        )
    values.update({
        "metrics.score_s": own("metrics.score"),
        "stats.ranks_s": own("stats.ranks"),
        "stats.finner_s": own("stats.finner"),
        "stats.sign_test_s": own("stats.sign_test"),
        "experiment.report_self_s": own("experiment.report"),
        "experiment.resume_s": inclusive("experiment.resume"),
        "experiment.records_written": counters.get("experiment.records_written", 0),
        "data.split_s": own("data.split"),
        "data.standardize_s": own("data.standardize"),
        "benchmarks.load_s": own("benchmarks.load"),
    })
    timed = tracer.totals(since=timed_start)
    for layer in LAYERS:
        layer_self = sum(row[2] for name, row in timed.items() if module_of(name) == layer)
        values[f"share.{layer}"] = layer_self / timed_wall
    values["trace.spans"] = len(tracer.names)
    values["trace.call_p50_ms"] = call_p50_ms
    return values
