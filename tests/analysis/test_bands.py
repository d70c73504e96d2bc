"""Tests for LF/MF/HF band segmentation."""

import numpy as np
import pytest

from repro.analysis.bands import (
    BandSegmentation,
    LF_BAND_COUNT,
    MF_BAND_COUNT,
    magnitude_based_segmentation,
    position_based_segmentation,
    segmentation_agreement,
)
from repro.analysis.frequency import FrequencyStatistics, analyze_images
from repro.jpeg.zigzag import ZIGZAG_ORDER


def _statistics_from_std(std):
    return FrequencyStatistics(std, np.zeros((8, 8)), 1, 1)


class TestPositionBased:
    def test_group_sizes(self):
        segmentation = position_based_segmentation()
        assert segmentation.mask("LF").sum() == LF_BAND_COUNT
        assert segmentation.mask("MF").sum() == MF_BAND_COUNT
        assert segmentation.mask("HF").sum() == (
            64 - LF_BAND_COUNT - MF_BAND_COUNT
        )

    def test_dc_is_lf_and_corner_is_hf(self):
        segmentation = position_based_segmentation()
        assert segmentation.groups[0, 0] == "LF"
        assert segmentation.groups[7, 7] == "HF"

    def test_groups_follow_zigzag(self):
        segmentation = position_based_segmentation()
        for rank, flat_index in enumerate(ZIGZAG_ORDER[:LF_BAND_COUNT]):
            row, col = divmod(int(flat_index), 8)
            assert segmentation.groups[row, col] == "LF"

    def test_custom_group_sizes(self):
        segmentation = position_based_segmentation(lf_count=4, mf_count=10)
        sizes = [segmentation.mask(group).sum() for group in ("LF", "MF", "HF")]
        assert sizes == [4, 10, 50]

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            position_based_segmentation(lf_count=0)
        with pytest.raises(ValueError):
            position_based_segmentation(lf_count=40, mf_count=30)


class TestMagnitudeBased:
    def test_follows_std_ranking_not_position(self):
        std = np.ones((8, 8))
        std[7, 7] = 1000.0  # a hugely energetic "high position" band
        std[0, 0] = 2000.0
        segmentation = magnitude_based_segmentation(_statistics_from_std(std))
        assert segmentation.groups[7, 7] == "LF"
        assert segmentation.groups[0, 0] == "LF"

    def test_group_sizes(self, small_freqnet):
        statistics = analyze_images(small_freqnet.images)
        segmentation = magnitude_based_segmentation(statistics)
        assert segmentation.mask("LF").sum() == LF_BAND_COUNT
        assert segmentation.mask("MF").sum() == MF_BAND_COUNT

    def test_texture_band_promoted_on_freqnet(self, small_freqnet):
        """The (7, 7) band carries class-discriminative energy in FreqNet, so
        the magnitude-based grouping must rank it above the HF group while
        the position-based grouping keeps it in HF — the disagreement the
        paper's Fig. 5 exploits."""
        statistics = analyze_images(small_freqnet.images)
        magnitude = magnitude_based_segmentation(statistics)
        position = position_based_segmentation()
        assert position.groups[7, 7] == "HF"
        assert magnitude.groups[7, 7] in ("LF", "MF")

    def test_agreement_metric(self, small_freqnet):
        statistics = analyze_images(small_freqnet.images)
        magnitude = magnitude_based_segmentation(statistics)
        position = position_based_segmentation()
        agreement = segmentation_agreement(magnitude, position)
        assert 0.0 < agreement < 1.0
        assert segmentation_agreement(position, position) == 1.0


class TestBandSegmentation:
    def test_validation(self):
        with pytest.raises(ValueError):
            BandSegmentation(np.full((4, 4), "LF", dtype=object), "x")
        bad = np.full((8, 8), "LF", dtype=object)
        bad[0, 0] = "XX"
        with pytest.raises(ValueError):
            BandSegmentation(bad, "x")

    def test_masks_partition_the_bands(self):
        segmentation = position_based_segmentation()
        masks = [segmentation.mask(group) for group in ("LF", "MF", "HF")]
        np.testing.assert_array_equal(sum(masks), np.ones((8, 8)))
        np.testing.assert_array_equal(masks[0], segmentation.groups == "LF")

    def test_unknown_group_raises(self):
        segmentation = position_based_segmentation()
        with pytest.raises(ValueError):
            segmentation.mask("XX")
