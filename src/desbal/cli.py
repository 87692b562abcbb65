"""Benchmark command line: `desbal run|report|validate`.

Exit codes: 0 success, 1 validation error, 2 partial failures.
"""

import argparse
import logging
import sys
from pathlib import Path

from .experiment import (
    ConfigError,
    IncompleteGridError,
    load_config,
    make_report,
    preflight,
    run_experiment,
)
from .metrics import normalize_metric

logger = logging.getLogger(__name__)


def _cmd_validate(args) -> int:
    """`run`'s checks before its first cell, in its order, writing nothing."""
    try:
        problems = preflight(load_config(args.config))
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1
    if problems:
        print("\n".join(f"error: {p}" for p in problems), file=sys.stderr)
        return 1
    print("config ok")
    return 0


def _cmd_run(args) -> int:
    try:
        summary = run_experiment(load_config(args.config))
    except (ConfigError, IncompleteGridError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"wrote {summary.records_written} record(s) to {summary.results_path} "
        f"({summary.records_skipped} already present)"
    )
    if summary.failed_datasets:
        print(f"failed datasets: {', '.join(summary.failed_datasets)}", file=sys.stderr)
        return 2
    return 0


def _cmd_report(args) -> int:
    try:
        metric = normalize_metric(args.metric)
        text = make_report(args.input, metric)
        out = Path(args.input) / f"report_{metric}.txt"
        out.write_text(text, encoding="utf-8")  # before any output, so a failed write prints none
    except (IncompleteGridError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(text, end="")
    print(f"(written to {out})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="desbal",
        description="Dynamic-selection benchmark over preprocessing variants",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute the configured experiment grid")
    run.add_argument("--config", required=True, help="run configuration file")
    run.set_defaults(func=_cmd_run)

    report = sub.add_parser("report", help="render rank tables and sign tests")
    report.add_argument("--input", required=True, help="directory with results.tsv")
    report.add_argument("--metric", required=True, help="auc | fmeasure | gmean")
    report.set_defaults(func=_cmd_report)

    validate = sub.add_parser("validate", help="check a configuration file")
    validate.add_argument("--config", required=True, help="run configuration file")
    validate.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
