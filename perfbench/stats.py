"""Statistics shared by run.py and compare.py.

Pure functions on plain numbers, so test_stats.py can pin them on fixed
inputs.  The A/B rule is the one the benchmark's README states: a change
improves a metric only when it wins at least nine pairs in ten and the
medians differ by more than the parent's own interquartile range.
"""

import statistics

# Verdicts compare.py prints, in the order a workload row reports the
# worst of its metrics.
VERDICTS = ("worse", "unresolved", "improved", "unchanged")


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, q3) as statistics.quantiles(values, n=4) gives them; a single
    value is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def iqr(values):
    q1, q3 = quartiles(values)
    return q3 - q1


def relative_spread(values):
    """Interquartile range as a share of the median (0 for a zero median)."""
    m = median(values)
    return iqr(values) / abs(m) if m else 0.0


def corrected_seconds(span, clock_read_s):
    """A span's seconds minus one clock read per timed segment, never
    below zero.  span: {"calls", "segments", "seconds"}."""
    return max(0.0, span["seconds"] - span["segments"] * clock_read_s)


def per_call_ns(span, clock_read_s):
    """Corrected nanoseconds per call (0 with no calls)."""
    calls = span["calls"]
    if not calls:
        return 0.0
    return corrected_seconds(span, clock_read_s) / calls * 1e9


def busy_ratio(cell_seconds, wall_s, jobs):
    """Share of the pool's capacity (wall x jobs) spent inside cells."""
    capacity = wall_s * jobs
    return sum(cell_seconds) / capacity if capacity > 0 else 0.0


def idle_seconds(cell_seconds, wall_s, jobs):
    """Worker seconds the pool held but no cell used."""
    return max(0.0, wall_s * jobs - sum(cell_seconds))


def useful_ratio(commits, replays):
    """Commits over commits plus replays: the share of pipeline fetches
    that were not thrown away by a squash (0 with no pipeline work)."""
    total = commits + replays
    return commits / total if total else 0.0


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def pair_wins(parent, change, better):
    """(wins, losses) of change over parent, pair by pair; ties count for
    neither side.  better is "higher" or "lower"."""
    sign = 1 if better == "higher" else -1
    wins = losses = 0
    for p, c in zip(parent, change):
        d = sign * (c - p)
        if d > 0:
            wins += 1
        elif d < 0:
            losses += 1
    return wins, losses


def verdict(parent, change, better, bound=None, min_pairs=10):
    """Classify change against parent for one (workload, metric).

    improved    change wins >= 9/10 of the pairs, and the medians differ
                in its favour by more than the parent's interquartile range
    worse       the change's median is worse than the parent's by more
                than bound (a share of the parent median), or the parent
                wins >= 9/10 of the pairs by more than its own IQR
    unresolved  fewer than min_pairs pairs; or the parent's own spread
                exceeds bound, so a regression within it cannot be seen --
                unless every change run reads better than every parent run
    unchanged   otherwise
    """
    sign = 1 if better == "higher" else -1
    n = min(len(parent), len(change))
    if n < min_pairs:
        return "unresolved"
    parent, change = list(parent)[:n], list(change)[:n]
    pm, cm = median(parent), median(change)
    gain = sign * (cm - pm)
    spread = iqr(parent)
    wins, losses = pair_wins(parent, change, better)

    if wins * 10 >= 9 * n and gain > spread:
        return "improved"
    if bound is not None and -gain > bound * abs(pm):
        return "worse"
    if losses * 10 >= 9 * n and -gain > spread:
        return "worse"
    if bound is not None and relative_spread(parent) > bound:
        all_better = all(sign * (c - p) > 0 for c in change for p in parent)
        return "unchanged" if all_better else "unresolved"
    return "unchanged"


def worst(verdicts):
    """The row mark for a workload: the first of VERDICTS present."""
    for v in VERDICTS:
        if v in verdicts:
            return v
    return "unchanged"
