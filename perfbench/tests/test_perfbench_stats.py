"""Percentiles, the tail sample-count rule and the steadiness spread."""

import statistics

import numpy as np
import pytest

from perfbench.stats import (
    fastest_units,
    highest_supported_percentile,
    percentile,
    quartile_spread,
    samples_beyond,
    supports_percentile,
)


def test_percentile_matches_numpy_linear_interpolation():
    samples = [7.0, 1.0, 3.0, 9.0, 4.0, 12.5, 2.0]
    for q in (0, 10, 25, 50, 90, 99, 100):
        assert percentile(samples, q) == pytest.approx(np.percentile(samples, q))
    assert percentile(range(1, 11), 50) == 5.5
    assert percentile([4.0], 90) == 4.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_tail_needs_ten_samples_beyond_it():
    assert samples_beyond(100, 90) == pytest.approx(10)
    assert supports_percentile(100, 90)
    assert not supports_percentile(99, 90)
    assert supports_percentile(1000, 99)
    assert highest_supported_percentile(1000) == 99
    assert highest_supported_percentile(100) == 90
    assert highest_supported_percentile(20) == 50
    assert highest_supported_percentile(19) is None


def test_fastest_units_take_each_units_best_repeat():
    passes = [[0.3, 1.0, None], [0.2, 1.5, None], [0.4, 0.9, None]]
    assert fastest_units(passes) == [0.2, 0.9, None]
    assert fastest_units([[None, 2.0], [1.0, None]]) == [1.0, 2.0]
    assert fastest_units([]) == []
    with pytest.raises(ValueError):
        fastest_units([[1.0], [1.0, 2.0]])


def test_quartile_spread_is_iqr_over_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values)
    )
    assert quartile_spread([5.0, 5.0, 5.0]) == 0.0
    with pytest.raises(ValueError):
        quartile_spread([1.0])
