"""End-to-end benchmark: the full grid on desk-scale data, then the report.

The same flow is available from the shell:

    desbal validate --config run.conf
    desbal run      --config run.conf
    desbal report   --input out/ --metric gmean

Runs are resumable: records already on disk are never recomputed.
"""

import tempfile
import time
from pathlib import Path

from desbal.experiment import RunConfig, make_report, run_experiment, validate_config

# the run directory is removed when the demo ends
with tempfile.TemporaryDirectory(prefix="desbal_demo_") as tmp:
    out = Path(tmp)
    cfg = RunConfig(
        datasets=("builtin:glass", "builtin:new-thyroid"),
        output=str(out),
        variants=("Ba", "Ba-RM", "Ba-RB"),
        selectors=("STATIC", "KNU", "DESP"),
        metrics=("auc", "gmean"),
        pool_size=30,  # desk-scale; the full setup uses 100
        k=7,
        seed=20240601,
    )
    print("config under test:\n" + cfg.canonical_text())
    problems = validate_config(cfg)
    print(f"validation problems: {problems or 'none'}")

    start = time.perf_counter()
    summary = run_experiment(cfg)
    print(f"\nwrote {summary.records_written} records to {summary.results_path} "
          f"in {time.perf_counter() - start:.1f}s")

    # a second invocation is a no-op thanks to record-level resumption
    again = run_experiment(cfg)
    print(f"re-run wrote {again.records_written} new records (resumption)")

    for metric in ("gmean", "auc"):
        print("\n" + make_report(out, metric))
