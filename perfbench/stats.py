"""The benchmark's own arithmetic: medians, the tail-percentile rule and
failure accounting."""

from __future__ import annotations

import math
import statistics

#: Percentiles tried, highest first, when reporting a distribution's tail.
TAIL_LADDER = (99.9, 99.0, 90.0)

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def _rank(q: float, n: int) -> int:
    # The epsilon absorbs binary rounding (99.9 / 100 * 10000 is
    # 9990.000000000002), which would otherwise push the rank up by one.
    return max(1, math.ceil(q / 100 * n - 1e-9))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(q, len(ordered)) - 1]


def tail_percentile(values) -> tuple[float, float] | None:
    """``(q, value)`` for the highest percentile on :data:`TAIL_LADDER`
    with at least :data:`TAIL_BEYOND` samples beyond it, or None when
    there are too few samples for any of them."""
    n = len(values)
    for q in TAIL_LADDER:
        if n - _rank(q, n) >= TAIL_BEYOND:
            return q, percentile(values, q)
    return None


def distribution(values) -> dict:
    """Median and tail of a sample, always with its sample count."""
    summary: dict = {"n": len(values)}
    if values:
        summary["p50"] = statistics.median(values)
        tail = tail_percentile(values)
        if tail is not None:
            summary[f"p{tail[0]:g}"] = tail[1]
    return summary


def failed_frac(attempted: int, succeeded: int) -> float:
    """Share of attempted points that did not produce a verified outcome:
    a point that raised or was lost with the daemon counts as failed."""
    if attempted < 1:
        raise ValueError("no points attempted")
    if not 0 <= succeeded <= attempted:
        raise ValueError(f"{succeeded} successes of {attempted} attempts")
    return (attempted - succeeded) / attempted


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
