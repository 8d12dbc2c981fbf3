"""Summary statistics shared by the harness, its spread check and its tests."""

from __future__ import annotations

import math
import statistics

# A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def _rank(n, p):
    """1-based nearest rank of the p-th percentile of n samples."""
    return max(math.ceil(round(p * n / 100, 9)), 1)  # round: 99.9 * 10_000 / 100 > 9990


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must lie in (0, 100], got {p}")
    return sorted(values)[_rank(len(values), p) - 1]


def beyond(n, p):
    """How many of n samples lie strictly above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def p99(values):
    """The 99th percentile, or None when fewer than ``MIN_BEYOND`` samples
    lie beyond it."""
    if beyond(len(values), 99) < MIN_BEYOND:
        return None
    return percentile(values, 99)


def quartile_spread(values):
    """Distance between the first and third quartile, as a share of the median.

    Quartiles are those of ``statistics.quantiles(values, n=4)``.
    """
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)
