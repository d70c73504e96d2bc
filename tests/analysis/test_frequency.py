"""Tests for the Algorithm-1 frequency component analysis."""

import numpy as np
import pytest

from repro.analysis.frequency import (
    FrequencyStatistics,
    analyze_dataset,
    analyze_images,
    coefficients_by_band,
)
from repro.data import Dataset


class TestCoefficientsByBand:
    def test_shape(self, rng):
        images = rng.uniform(0, 255, (3, 16, 24))
        coefficients = coefficients_by_band(images)
        assert coefficients.shape == (3 * 2 * 3, 8, 8)

    def test_rejects_color_stack(self, rng):
        with pytest.raises(ValueError):
            coefficients_by_band(rng.uniform(0, 255, (2, 16, 16, 3)))


class TestAnalyzeImages:
    def test_constant_images_have_zero_ac_std(self):
        images = np.full((4, 16, 16), 99.0)
        statistics = analyze_images(images)
        ac_std = statistics.std.copy()
        ac_std[0, 0] = 0.0
        np.testing.assert_allclose(ac_std, 0.0, atol=1e-9)

    def test_counts(self, rng):
        images = rng.uniform(0, 255, (5, 32, 32))
        statistics = analyze_images(images)
        assert statistics.image_count == 5
        assert statistics.block_count == 5 * 16

    def test_dc_band_has_largest_std_on_natural_like_images(self, small_freqnet):
        statistics = analyze_images(small_freqnet.images)
        assert statistics.ranked_bands()[0] == (0, 0)

    def test_high_frequency_noise_raises_high_band_std(self, rng):
        smooth = np.tile(np.linspace(0, 255, 32), (32, 1))
        noisy = smooth + rng.normal(0, 20, (32, 32))
        smooth_stats = analyze_images(smooth[None])
        noisy_stats = analyze_images(noisy[None])
        assert noisy_stats.std[7, 7] > smooth_stats.std[7, 7] + 5


class TestFrequencyStatistics:
    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencyStatistics(np.zeros((4, 4)), np.zeros((8, 8)), 1, 1)
        with pytest.raises(ValueError):
            FrequencyStatistics(np.zeros((8, 8)), np.zeros((8, 8)), 0, 1)

    def test_ranked_bands_descending(self, small_freqnet):
        statistics = analyze_images(small_freqnet.images)
        ranked = statistics.ranked_bands()
        values = [statistics.std[band] for band in ranked]
        assert values == sorted(values, reverse=True)
        assert len(set(ranked)) == 64


class TestAnalyzeDataset:
    def test_sampling_interval_reduces_blocks(self, small_freqnet):
        full = analyze_dataset(small_freqnet, interval=1)
        sampled = analyze_dataset(small_freqnet, interval=3)
        assert sampled.block_count < full.block_count

    def test_statistics_stable_under_sampling(self, small_freqnet):
        """Algorithm 1's premise: interval sampling preserves the statistics."""
        full = analyze_dataset(small_freqnet, interval=1)
        sampled = analyze_dataset(small_freqnet, interval=2)
        # Band ranking of the strongest bands is preserved.
        assert full.ranked_bands()[:4] == sampled.ranked_bands()[:4]
        correlation = np.corrcoef(
            full.std.reshape(-1), sampled.std.reshape(-1)
        )[0, 1]
        assert correlation > 0.98

    def test_color_dataset_raises_naming_the_shape(self, rng):
        images = rng.uniform(0, 255, (6, 16, 16, 3))
        dataset = Dataset(images, np.zeros(6, dtype=int), ["only"])
        with pytest.raises(ValueError, match=r"\(6, 16, 16, 3\)"):
            analyze_dataset(dataset)
