"""The benchmark's own arithmetic: percentiles, window ratios, self time,
error accounting and run-to-run spread.

Kept free of any import from the program under test so the tests in
``perfbench/tests`` can pin it on hand-made inputs.
"""

from __future__ import annotations

import math
import statistics


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``.

    The nearest-rank value is always one of the samples, and exactly
    ``samples_beyond(len(values), q)`` samples lie above its rank.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples rank above the nearest-rank percentile."""
    return n - max(math.ceil(q / 100.0 * n), 1)


def window_rate(times, lo: int, hi: int) -> float:
    """Completions per second over completions ``lo+1 .. hi``, timed from
    completion ``lo`` to completion ``hi`` (1-based; ``times`` sorted)."""
    if not 1 <= lo < hi <= len(times):
        raise ValueError(f"bad window ({lo}, {hi}] over {len(times)} samples")
    span = times[hi - 1] - times[lo - 1]
    if span <= 0:
        raise ValueError("window has no duration")
    return (hi - lo) / span


def decay_ratio(times, k: int) -> float:
    """Early-window ÷ last-window rate over the first ``k`` completions.

    Both windows hold ``k // 4`` completions.  The early one starts after
    the first ``k // 8``, which complete while the closed loop is still
    filling the pipeline; the late one ends at completion ``k``.  Fixed
    windows compare fixed amounts of work, so the ratio does not grow
    just because a faster program completes more messages.
    """
    times = sorted(times)[:k]
    if len(times) < k:
        raise ValueError(f"need {k} completions, have {len(times)}")
    skip, width = k // 8, k // 4
    if skip < 1:
        raise ValueError(f"k={k} too small for the decay windows")
    return window_rate(times, skip, skip + width) / window_rate(times, k - width, k)


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it its children cover.

    Overlapping children (concurrent tasks under one async span) are
    counted once, and a child running past its parent is clipped.
    """
    return (end - start) - union_length(children, start, end)


def error_rate(
    attempted: int, *, failed: int, shed: int, lost: int, mismatched: int
) -> float:
    """(failed + shed + lost + mismatched) ÷ attempted.

    ``mismatched`` counts completed-but-wrong messages, so it is disjoint
    from the other three; ``lost`` is whatever was attempted and never
    accounted for.
    """
    if attempted < 1:
        raise ValueError("no requests attempted")
    return (failed + shed + lost + mismatched) / attempted


def lost(attempted: int, *, completed: int, failed: int, shed: int) -> int:
    """Attempted messages that neither completed, failed nor were shed."""
    return attempted - completed - failed - shed


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
