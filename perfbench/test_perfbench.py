"""Tests of the benchmark's own logic: spans, percentiles and output checks.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import logging
import math
import time
import types

import layers
import measure
import speed
from spans import Tracer


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_nested_children():
    # A [0, 10] holds B [1, 3] and C [4, 8]; C holds D [5, 6].
    tracer = Tracer(clock=fake_clock([0, 1, 3, 4, 5, 6, 8, 10]))
    a = tracer.open("experiment.run")
    b = tracer.open("tree.fit")
    tracer.close(b)
    c = tracer.open("pool.generate")
    d = tracer.open("tree.fit")
    tracer.close(d)
    tracer.close(c)
    tracer.close(a)
    assert tracer.parents == [-1, a, a, c]
    assert tracer.self_times() == [4, 2, 3, 1]
    totals = tracer.totals()
    assert totals["tree.fit"] == [2, 3, 3]
    assert totals["pool.generate"] == [1, 4, 3]
    assert totals["experiment.run"] == [1, 10, 4]
    assert tracer.totals(since=4) == {"pool.generate": [1, 4, 3], "tree.fit": [1, 1, 1]}


def test_wrap_records_calls_and_unwrap_restores():
    calls = []

    def work(x):
        calls.append(x)
        return x * 2

    owner = types.SimpleNamespace(work=work)
    tracer = Tracer()
    tracer.wrap(owner, "work", lambda args, kwargs: f"layer.op{args[0]}",
                lambda t, result, args, kwargs: t.count("doubled", result))
    assert owner.work(3) == 6
    assert tracer.names == ["layer.op3"] and tracer.counters == {"doubled": 6}
    tracer.unwrap_all()
    assert owner.work is work


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert measure.tail_percentile(19) == 50.0  # none qualifies: p50 stands in
    assert measure.tail_percentile(20) == 50.0
    assert measure.tail_percentile(999) == 90.0
    assert measure.tail_percentile(1000) == 99.0
    assert measure.tail_percentile(16500) == 99.0
    summary = measure.summarize([float(v) for v in range(1000, 0, -1)])
    assert summary["n"] == 1000
    assert summary["median"] == 500.5
    assert (summary["tail_label"], summary["tail"]) == ("p99", 990.0)
    # Ten values lie strictly beyond the reported tail.
    assert sum(v > summary["tail"] for v in range(1, 1001)) == 10
    few = measure.summarize([3.0, 1.0, 2.0])
    assert (few["tail_label"], few["tail"], few["median"]) == ("p50", 2.0, 2.0)


def test_speed_probe_scales_calls_and_leaves_probes_out():
    # Probes at [0, 2r], [10, 10 + 4r] and [20, 20 + 4r], where r is the probe
    # time at reference speed: the host runs at half, then quarter speed.
    r = speed.REFERENCE_S
    now = [0.0]

    def work():
        now[0] += work.cost

    work.cost = 0.0
    probe = speed.SpeedProbe(clock=lambda: now[0], work=work)
    for t, cost in ((0.0, 2 * r), (10.0, 4 * r), (20.0, 4 * r)):
        now[0], work.cost = t, cost
        probe.probe()
    assert all(map(math.isclose, probe.values, [2 * r, 4 * r, 4 * r]))
    # Before the first probe's middle the first probe counts: half speed.
    assert math.isclose(probe.scale(-1.0, 1.0), 0.5)
    # Halfway between the first two middles the probe time is 3r.
    middle = (r + 10 + 2 * r) / 2
    assert math.isclose(probe.scale(middle - 1.5, 3.0), 1.0)
    # A call around the third probe: its 4r of probing is left out and the
    # remaining 2 s run at quarter speed.
    assert math.isclose(probe.scale(19.0, 2.0 + 4 * r), 0.5)


def test_speed_probe_timer_probes_inside_a_block():
    import signal

    probe = speed.SpeedProbe(work=lambda: None)
    before = signal.getsignal(signal.SIGALRM)
    with probe.running(interval=0.01):
        start = time.perf_counter()
        while time.perf_counter() - start < 0.1:
            pass
    assert len(probe.starts) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _grid():
    keys = [
        ("glass-synthetic", v, s, str(rep), fold, "gmean")
        for v in ("Ba", "Ba-RM") for s in ("STATIC", "KNU")
        for rep in range(1, 6) for fold in ("A", "B")
    ]
    rows = [list(k) + [f"{0.5 + i / 100:.12g}", "0.010"] for i, k in enumerate(keys)]
    reference = {
        g: measure.digest(m)
        for g, m in measure.record_groups({tuple(r[:6]): r[6] for r in rows}).items()
    }
    return keys, rows, reference


def test_clean_records_pass():
    keys, rows, reference = _grid()
    assert measure.check_records(rows, keys, reference) == (40, 0)


def test_tampered_record_raises_error_rate():
    keys, rows, reference = _grid()
    rows[7][6] = "0.573000000001"  # still a valid-looking score
    attempted, failed = measure.check_records(rows, keys, reference)
    assert attempted == 40 and failed == 10  # its whole group of 10 folds
    # Without a reference only structural faults count.
    assert measure.check_records(rows, keys) == (40, 0)
    rows[0][6] = "1.5"
    del rows[-1]
    assert measure.check_records(rows, keys) == (40, 2)


def test_decision_check():
    import numpy as np

    ok = measure.decision_ok(np.array([0, 4]), 1, np.array([0.25, 0.75]), 5, 2)
    assert ok
    assert not measure.decision_ok(np.array([4, 0]), 1, np.array([0.25, 0.75]), 5, 2)
    assert not measure.decision_ok(np.array([0, 5]), 1, np.array([0.25, 0.75]), 5, 2)
    assert not measure.decision_ok(np.array([0]), 2, np.array([0.25, 0.75]), 5, 2)
    assert not measure.decision_ok(np.array([0]), 1, np.array([0.5, 0.75]), 5, 2)


def test_report_check_detects_missing_row():
    selectors = ("STATIC", "KNU")
    text = "\n".join([
        "=== Report: auc over 2 dataset(s) ===", "",
        "(a) Average rank of each preprocessing variant per selector",
        "    ([x.xx] = equivalent to the row's best, Finner alpha=0.05)",
        "selector              Ba       Ba-RM",
        "STATIC             *1.00       2.00",
        "KNU                 1.50      *1.50", "",
        "(b) Average rank of each selector with its best variant",
        "  Ba+STATIC                   1.00  *",
        "  Ba-RM+KNU                   2.00  [=]", "",
        "(c) Wins/ties/losses vs the same selector with plain bagging",
        "    (significance of the win count at alpha 0.10 / 0.05 / 0.01)",
        "  STATIC       best=Ba        W/T/L = 0/2/0  [...]",
        "  KNU          best=Ba-RM     W/T/L = 1/0/1  [...]",
    ]) + "\n"
    assert measure.report_ok(text, "auc", 2, selectors)
    assert not measure.report_ok(text, "gmean", 2, selectors)
    assert not measure.report_ok(text.replace("  KNU          best", "  XYZ          best"),
                                 "auc", 2, selectors)


def test_counting_handler_reads_incomplete_bootstraps():
    handler = layers.CountingHandler()
    logger = logging.getLogger("perfbench-test")
    logger.addHandler(handler)
    logger.propagate = False
    try:
        logger.warning("%s: %d of %d bootstraps still missed a class after %d redraws",
                       "ecoli", 24, 100, 10)
        logger.warning("%s: %d of %d bootstraps still missed a class after %d redraws",
                       "ecoli", 3, 100, 10)
        logger.info("not counted below WARNING")
        logger.error("other")
    finally:
        logger.removeHandler(handler)
    assert handler.incomplete_bootstraps == 27
    assert handler.by_level == {"WARNING": 2, "ERROR": 1}
