"""Arithmetic of the fleet serving benchmark.

Pure functions over the harness's raw measurements; run.py applies them
and test_metrics.py checks them on synthetic inputs.
"""

import math
import statistics

# Fewest samples that must lie beyond a reported percentile.
MIN_TAIL = 10
# Never-louder margin of the fault-recovery and fleet soaks: a session
# fails when its worst window is louder than passive by more than this.
LOUDER_MARGIN_DB = 3.0
# The single-thread ledger must account for the replay loop within this
# share; the rest is device and loop glue no layer owns.
LEDGER_TOLERANCE = 0.25


def percentile(values, q):
    """Nearest-rank q-th percentile (0 < q < 1) of `values`.

    Returns (value, tail) where tail is the number of samples strictly
    after the chosen rank. Raises ValueError when fewer than MIN_TAIL
    samples lie beyond it: such a percentile is one or two outliers.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("percentile needs 0 < q < 1")
    ordered = sorted(values)
    n = len(ordered)
    rank = math.ceil(q * n)  # 1-based
    tail = n - rank
    if n == 0 or tail < MIN_TAIL:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {tail} beyond it; "
            f"need at least {MIN_TAIL}")
    return ordered[rank - 1], tail


def slow_share(values, factor=2.0):
    """Share of samples slower than `factor` x their median."""
    limit = factor * statistics.median(values)
    return sum(1 for v in values if v > limit) / len(values)


def lane_idle_share(cpu_s, wall_s, lanes):
    """1 - process CPU / (wall x lanes): the share of lane time not spent
    computing (barrier waits, imbalance, the pool thread sleeping)."""
    if wall_s <= 0.0 or lanes <= 0:
        raise ValueError("lane idle share needs positive wall time and lanes")
    return 1.0 - cpu_s / (wall_s * lanes)


def unaccounted_share(total, parts):
    """Share of `total` that the layer `parts` leave unexplained."""
    if total <= 0.0:
        raise ValueError("ledger total must be positive")
    return (total - sum(parts)) / total


def slope(points):
    """Least-squares slope of y over x for a list of (x, y) pairs."""
    if len(points) < 2:
        raise ValueError("slope needs at least two points")
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    if sxx == 0.0:
        raise ValueError("slope needs distinct x values")
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def cancellation_db(sessions):
    """dB of the mean over scored sessions of disturbance energy over
    residual energy. A diverged session contributes a ratio near zero, so
    it lowers the figure by its share of sessions rather than by its own
    tens of dB; divergence is counted in the pass ratio instead."""
    ratios = [s["dist_energy"] / s["res_energy"] for s in sessions
              if s["dist_energy"] > 0.0 and s["res_energy"] > 0.0]
    if not ratios:
        raise ValueError("no session has a scored span")
    return 10.0 * math.log10(statistics.fmean(ratios))


def judge_sessions(sessions):
    """(judged, failed): sessions with at least one scored never-louder
    window, and those whose worst window exceeds the margin."""
    judged = [s for s in sessions if s["windows"] > 0]
    failed = [s for s in judged if s["worst_excess_db"] > LOUDER_MARGIN_DB]
    return len(judged), len(failed)


def weighted(entries, weights, value):
    """Sum over ledger entries of weight x value(entry)."""
    return sum(weights[e["profile"]] * value(e) for e in entries)


def iqr_share(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
