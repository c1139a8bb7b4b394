"""Order statistics and fits used by the benchmark's metrics."""

from __future__ import annotations

import bisect
import math
import statistics

#: a tail percentile must have at least this many samples beyond it
TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float, int] | None:
    """The highest percentile that has at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample count), or None with too few
    samples.  With ties at the candidate value, the rank moves down until
    TAIL_BEYOND samples lie strictly above it.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1
    while k >= 0 and n - bisect.bisect_right(ordered, ordered[k]) < TAIL_BEYOND:
        k -= 1
    if k < 0:
        return None
    return ordered[k], 100.0 * bisect.bisect_right(ordered, ordered[k]) / n, n


def loglog_slope(size_to_times: dict[int, list[float]]) -> float | None:
    """Least-squares slope of log(median time) against log(size).

    None unless at least two sizes were seen.
    """
    points = [(math.log(size), math.log(statistics.median(times)))
              for size, times in sorted(size_to_times.items()) if times]
    if len(points) < 2:
        return None
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    sxy = sum((x - mx) * (y - my) for x, y in points)
    return sxy / sxx
