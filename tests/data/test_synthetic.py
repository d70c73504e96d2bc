"""Tests for the FreqNet synthetic dataset generator."""

import numpy as np
import pytest

from repro.data.synthetic import (
    CLASS_GENERATORS,
    DEFAULT_CLASS_NAMES,
    FreqNetConfig,
    generate_freqnet,
    make_blob,
    make_textured_blob,
)
from repro.analysis.frequency import coefficients_by_band


class TestConfig:
    def test_defaults_are_valid(self):
        config = FreqNetConfig()
        assert config.image_size % 8 == 0
        assert set(config.class_names) <= set(CLASS_GENERATORS)

    def test_rejects_invalid_values(self):
        with pytest.raises(ValueError):
            FreqNetConfig(image_size=4)
        with pytest.raises(ValueError):
            FreqNetConfig(images_per_class=0)
        with pytest.raises(ValueError):
            FreqNetConfig(noise_std=-1.0)
        with pytest.raises(ValueError):
            FreqNetConfig(class_names=("not_a_class",))


class TestGenerator:
    def test_shapes_and_labels(self, small_freqnet):
        assert small_freqnet.images.ndim == 3
        assert small_freqnet.images.shape[1:] == (32, 32)
        assert len(small_freqnet) == 6 * len(DEFAULT_CLASS_NAMES)
        assert np.all(small_freqnet.class_counts() == 6)

    def test_intensity_range(self, small_freqnet):
        assert small_freqnet.images.min() >= 0.0
        assert small_freqnet.images.max() <= 255.0

    def test_deterministic_given_seed(self):
        config = FreqNetConfig(images_per_class=3, seed=9)
        first = generate_freqnet(config)
        second = generate_freqnet(config)
        np.testing.assert_array_equal(first.images, second.images)
        np.testing.assert_array_equal(first.labels, second.labels)

    def test_different_seeds_differ(self):
        first = generate_freqnet(FreqNetConfig(images_per_class=3, seed=1))
        second = generate_freqnet(FreqNetConfig(images_per_class=3, seed=2))
        assert not np.allclose(first.images, second.images)

    def test_samples_within_class_vary(self, small_freqnet):
        blob_indices = small_freqnet.indices_of_class(0)
        images = small_freqnet.images[blob_indices]
        assert not np.allclose(images[0], images[1])

    def test_class_subset_selection(self):
        dataset = generate_freqnet(
            FreqNetConfig(images_per_class=2, class_names=("blob", "spots"))
        )
        assert dataset.num_classes == 2
        assert dataset.class_names == ["blob", "spots"]

    def test_all_generators_produce_valid_patterns(self, rng):
        for name, generator in CLASS_GENERATORS.items():
            pattern = generator(32, rng)
            assert pattern.shape == (32, 32), name
            assert np.isfinite(pattern).all(), name


class TestFrequencyStructure:
    """The property the whole reproduction depends on: class identity that
    lives in specific frequency bands."""

    def test_textured_blob_differs_from_blob_only_in_high_bands(self, rng):
        blob = make_blob(32, np.random.default_rng(0))
        textured = make_textured_blob(32, np.random.default_rng(0))
        difference = (textured - blob) * 255.0
        # coefficients_by_band level-shifts; add the shift back so the
        # difference itself is transformed.
        coefficients = coefficients_by_band(difference[np.newaxis] + 128.0)
        low_energy = np.sum(coefficients[:, :4, :4] ** 2)
        high_energy = np.sum(coefficients[:, 4:, 4:] ** 2)
        assert high_energy > 5 * low_energy

    def test_blob_class_is_low_frequency(self, rng):
        blob = 255.0 * make_blob(32, rng)
        coefficients = coefficients_by_band(blob[np.newaxis])
        dc_and_low = np.sum(coefficients[:, :2, :2] ** 2)
        total = np.sum(coefficients ** 2)
        assert dc_and_low > 0.9 * total

    def test_checkerboard_has_substantial_ac_energy(self, rng):
        board = 255.0 * CLASS_GENERATORS["checkerboard"](32, rng)
        coefficients = coefficients_by_band(board[np.newaxis])
        ac_energy = np.sum(coefficients ** 2) - np.sum(coefficients[:, 0, 0] ** 2)
        dc_energy = np.sum(coefficients[:, 0, 0] ** 2)
        assert ac_energy > 0.1 * dc_energy

    def test_texture_band_has_elevated_dataset_std(self, small_freqnet):
        from repro.analysis.frequency import analyze_images

        statistics = analyze_images(small_freqnet.images)
        # The (7, 7) corner band carries the textured_blob signature, so its
        # standard deviation must beat the median AC band by a clear margin.
        ac_std = np.delete(statistics.std.reshape(-1), 0)
        assert statistics.std[7, 7] > 1.5 * np.median(ac_std)
