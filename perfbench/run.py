"""desbal benchmark: one workload per run, outputs checked, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload headline-grid --seed 20240601 --seconds 10 --trace 0

With `--trace 0` the last line carries the end-to-end metrics; with
`--trace 1` the same workload runs with spans around desbal's public calls
and the last line carries the per-layer metrics. End-to-end times are
scaled to a reference host speed (see perfbench/speed.py); wall times are
printed above the result line. See perfbench/README.md.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402  (the clock above starts before any import)
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from importlib.util import find_spec  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 20240601
SETUP_REPEATS = 3
BLAS_THREADS = 1  # one thread of work per run; never more than nproc
BLAS_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("headline-grid", "selector-sweep", "report-grid")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference", action="store_true",
        help="store this run's output digests as the reference for the default seed",
    )
    return parser.parse_args(argv)


def pin_threads() -> int:
    """Pin BLAS/OpenMP pools before numpy loads; returns the pinned count."""
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in BLAS_VARIABLES:
        os.environ[var] = str(threads)
    return threads


def import_desbal():
    """Put the checkout's src/ first on the path and import desbal from it."""
    if not (SRC / "desbal" / "__init__.py").is_file():
        sys.exit(f"perfbench: no desbal sources at {SRC.relative_to(ROOT)}/desbal; "
                 "run from the root of a desbal checkout")
    sys.path.insert(0, str(SRC))
    import desbal

    if Path(desbal.__file__).resolve().parent != (SRC / "desbal").resolve():
        sys.exit(f"perfbench: desbal was imported from {desbal.__file__}, not {SRC}")


def provenance(threads, names, reference) -> dict:
    import numpy
    import scipy

    expected = (reference or {}).get("datasets")
    return {
        "nproc": os.cpu_count(),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sklearn_importable": find_spec("sklearn") is not None,
        "datasets": names,
        "datasets_match_reference": expected == names,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_threads()
    from speed import REFERENCE_S, SpeedProbe  # loads numpy, after the pin

    probe = SpeedProbe()
    probe.probe()
    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    tracer = None
    try:
        with probe.running():  # the rest of the imports, the set-ups and the timed part
            import_desbal()

            import layers
            import measure
            from spans import Tracer
            from workloads import WORKLOADS

            handler = layers.CountingHandler()
            handler.install()
            imports_s = time.perf_counter() - PROCESS_START

            workload = WORKLOADS[args.workload]
            workdir.mkdir(parents=True, exist_ok=True)
            setup_times = []
            state = None
            for repeat in range(SETUP_REPEATS):
                state = None
                if repeat == SETUP_REPEATS - 1:
                    handler.reset()  # log counts cover the last set-up and the timed part
                    if args.trace:
                        tracer = Tracer()
                        layers.install(tracer)
                start = time.perf_counter()
                state = workload.setup(args.seed, workdir)
                setup_times.append((start, time.perf_counter() - start))

            references = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
            stored = references.get(args.workload)
            prov = provenance(threads, state["names"], stored)
            compare = (
                args.seed == DEFAULT_SEED and not args.record_reference
                and stored is not None and prov["datasets_match_reference"]
            )
            timed_start = time.perf_counter()
            outcome = workload.run(
                state, timed_start + args.seconds, stored["digests"] if compare else None
            )
            timed_wall = time.perf_counter() - timed_start
            probe.probe()
        if tracer is not None:
            tracer.unwrap_all()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.record_reference:
        if args.seed != DEFAULT_SEED or outcome.failed:
            sys.exit("perfbench: a reference is recorded only from a clean default-seed run")
        references[args.workload] = {"datasets": state["names"], "digests": outcome.digests}
        REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")

    wall = measure.summarize([d for _, d in outcome.samples])
    calls = measure.summarize([probe.scale(t, d) for t, d in outcome.samples])
    scaled_setup = (probe.scale(PROCESS_START, imports_s)
                    + statistics.median(probe.scale(t, d) for t, d in setup_times))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    if not prov["datasets_match_reference"]:
        print("WARNING: dataset sources differ from the reference; digests not compared")
    elif not compare:
        print("note: digests compared only on the default seed; structural checks ran")
    print("desbal log records " + json.dumps(handler.by_level, sort_keys=True))
    print(f"setup repeats, wall with probes (s): {', '.join(f'{d:.3f}' for _, d in setup_times)}; "
          f"imports {imports_s:.3f} s")
    print(f"timed calls, wall with probes: n={wall['n']}, median {wall['median'] * 1e3:.4f} ms, "
          f"{wall['tail_label']} {wall['tail'] * 1e3:.4f} ms, timed wall {timed_wall:.3f} s")
    print(f"host speed: {len(probe.values)} probes, median "
          f"{statistics.median(probe.values) * 1e3:.3f} ms, range "
          f"{min(probe.values) * 1e3:.3f}-{max(probe.values) * 1e3:.3f} ms "
          f"(reference {REFERENCE_S * 1e3:g} ms)")
    error_rate = outcome.failed / outcome.attempted
    print(f"error_rate {error_rate:.6g} ({outcome.failed} of {outcome.attempted} failed)")

    if args.trace:
        import desbal.selection as selection

        specs = layers.metric_specs(selection.SELECTOR_NAMES)
        values = layers.per_layer_metrics(
            tracer, selection.SELECTOR_NAMES, handler, timed_start, timed_wall,
            calls["median"] * 1e3,
        )
    else:
        specs = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("call_p50_ms", "ms"),
                 ("call_tail_ms", "ms"), ("calls_per_s", "1/s")]
        values = {
            "setup_s": scaled_setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "call_p50_ms": calls["median"] * 1e3,
            "call_tail_ms": calls["tail"] * 1e3,
            "calls_per_s": calls["n"] / calls["total"],
        }
    for name, unit in specs:
        print(f"  {name:<40} {values[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
