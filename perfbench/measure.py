"""Timing summaries and output checks. Pure functions; no desbal import."""

import hashlib
import math
import statistics

# Candidate tail percentiles, highest last. The ladder stops at p99: in the
# selector sweep a few lazily filled tables (about 0.05% of decisions) would
# otherwise decide p99.9 by how many passes fit into a run.
PERCENTILES = (50.0, 90.0, 99.0)


def tail_percentile(n: int) -> float:
    """The highest candidate percentile with at least ten samples beyond it;
    p50 when none has (fewer than 20 samples). Falling back to p50 rather
    than the maximum keeps the tail continuous when a run's sample count
    crosses 20."""
    best = PERCENTILES[0]
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def nearest_rank(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values) - 1e-9))
    return sorted_values[rank - 1]


def summarize(samples) -> dict:
    """Median, tail and sample count of a list of durations in seconds.

    The tail is the highest percentile with at least ten samples beyond it,
    p50 with fewer than 20 samples (see `tail_percentile`).
    """
    values = sorted(samples)
    if not values:
        raise ValueError("no samples")
    p = tail_percentile(len(values))
    tail = nearest_rank(values, p)
    return {
        "n": len(values),
        "total": math.fsum(values),
        "median": statistics.median(values),
        "tail": tail,
        "tail_label": f"p{p:g}",
    }


def digest(lines) -> str:
    """Short sha256 of an iterable of text lines."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# headline-grid: results.tsv records
# ---------------------------------------------------------------------------


def check_records(rows, expected_keys, reference=None) -> tuple:
    """(attempted, failed) for the records of one experiment grid.

    `rows` are results.tsv data lines split into columns; `expected_keys`
    the (dataset, variant, selector, replication, fold, metric) tuples the
    grid must hold. A record fails when it is missing, duplicated, not a
    number in [0, 1], or belongs to a (variant, selector, metric) group
    whose digest differs from `reference` (when one is given).
    """
    expected = set(expected_keys)
    seen = {}
    present = set()
    failed = 0
    for parts in rows:
        key = tuple(parts[:6])
        if key not in expected or key in present:
            failed += 1
            continue
        present.add(key)
        try:
            value = float(parts[6])
        except (ValueError, IndexError):
            failed += 1
            continue
        if not 0.0 <= value <= 1.0:
            failed += 1
            continue
        seen[key] = parts[6]
    failed += len(expected - present)
    if reference is not None:
        for group, members in sorted(record_groups(seen).items()):
            if reference.get(group) != digest(members):
                failed += len(members)
    return len(expected), failed


def record_groups(values_by_key) -> dict:
    """'variant/selector/metric' -> sorted 'dataset rep fold value' lines."""
    groups = {}
    for key, value in values_by_key.items():
        dataset, variant, selector, rep, fold, metric = key
        groups.setdefault(f"{variant}/{selector}/{metric}", []).append(
            f"{dataset} {rep} {fold} {value}"
        )
    return {g: sorted(lines) for g, lines in groups.items()}


# ---------------------------------------------------------------------------
# selector-sweep: one selection decision
# ---------------------------------------------------------------------------


def decision_ok(selected, predicted_class, score, pool_size: int, n_classes: int) -> bool:
    """Structural validity of one selection decision and its class score."""
    if selected.ndim != 1 or selected.size == 0:
        return False
    if selected[0] < 0 or selected[-1] >= pool_size:
        return False
    if selected.size > 1 and not (selected[1:] > selected[:-1]).all():
        return False
    if not 0 <= predicted_class < n_classes:
        return False
    if score.shape != (n_classes,) or not (score >= -1e-12).all():
        return False
    return abs(float(score.sum()) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# report-grid: one rendered report
# ---------------------------------------------------------------------------


def report_ok(text: str, metric: str, n_datasets: int, selectors) -> bool:
    """The report names the metric and dataset count and has one row per
    selector in each of its three sections."""
    lines = text.splitlines()
    if not lines or lines[0] != f"=== Report: {metric} over {n_datasets} dataset(s) ===":
        return False
    try:
        a = lines.index("(a) Average rank of each preprocessing variant per selector")
        b = lines.index("(b) Average rank of each selector with its best variant")
        c = lines.index("(c) Wins/ties/losses vs the same selector with plain bagging")
    except ValueError:
        return False
    rows_a = [ln.split()[0] for ln in lines[a + 3:b] if ln.strip()]
    rows_b = [ln for ln in lines[b + 1:c] if ln.strip()]
    rows_c = [ln.split()[0] for ln in lines[c + 2:] if ln.strip()]
    want = list(selectors)
    return rows_a == want and len(rows_b) == len(want) and rows_c == want
