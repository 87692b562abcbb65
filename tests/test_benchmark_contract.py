"""The names the benchmark in perfbench/ wraps and calls, checked in tier 1.

perfbench/layers.py wraps desbal functions and methods by name, and
perfbench/workloads.py calls them with fixed argument shapes. A rename or a
changed signature shows up here instead of only when the benchmark runs.
"""

import inspect
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_wraps_and_calls_resolve():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        import spans
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    from desbal import experiment, selection

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
    ]:
        inspect.signature(fn).bind(*args, **kwargs)
    assert len(selection.SELECTOR_NAMES) == 15
