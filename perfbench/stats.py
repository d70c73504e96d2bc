"""Summary statistics the benchmark reports and its steadiness check uses."""

from __future__ import annotations

import math
import statistics

#: A tail percentile is supported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation.

    Matches NumPy's default (``method="linear"``): rank ``q/100 * (n-1)``
    interpolated between its neighbours.
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    rank = q / 100 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count: int, q: float) -> float:
    """How many of ``count`` samples lie above the ``q``-th percentile."""
    return count * (100 - q) / 100


def supports_percentile(count: int, q: float) -> bool:
    """Whether ``count`` samples leave enough beyond ``q`` to report it."""
    return samples_beyond(count, q) >= MIN_SAMPLES_BEYOND - 1e-9


def highest_supported_percentile(
    count: int, candidates=(99.9, 99, 95, 90, 75, 50)
):
    """The highest of ``candidates`` that ``count`` samples support, or None."""
    for q in sorted(candidates, reverse=True):
        if supports_percentile(count, q):
            return q
    return None


def fastest_units(passes) -> list:
    """Each unit's fastest time over repeated passes.

    ``passes`` are equal-length lists of per-unit seconds, where ``None``
    marks a unit that failed in that pass; a unit that never succeeded
    stays ``None``.  On a shared host, contention slows whole stretches
    of a run; the fastest repeat of a fixed piece of work measures the
    program rather than its neighbours.
    """
    passes = [list(units) for units in passes]
    if not passes:
        return []
    if len({len(units) for units in passes}) != 1:
        raise ValueError("every pass must have the same units")
    best = []
    for times in zip(*passes):
        measured = [time for time in times if time is not None]
        best.append(min(measured) if measured else None)
    return best


def quartile_spread(values) -> float:
    """Interquartile distance as a share of the median.

    Uses :func:`statistics.quantiles` with ``n=4`` (the default
    "exclusive" method), the rule the benchmark's steadiness is judged by.
    """
    values = list(values)
    if len(values) < 2:
        raise ValueError("spread needs at least two values")
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    if middle == 0:
        return math.inf if q3 != q1 else 0.0
    return (q3 - q1) / abs(middle)
