"""Tests for the DeepN-JPEG table designer."""

import numpy as np
import pytest

from repro.analysis.frequency import FrequencyStatistics, analyze_dataset
from repro.core.config import DeepNJpegConfig
from repro.core.table_design import DeepNJpegTableDesigner


@pytest.fixture(scope="module")
def freqnet_statistics(small_freqnet):
    return analyze_dataset(small_freqnet, interval=1)


class TestThresholds:
    def test_thresholds_come_from_ranking(self, freqnet_statistics):
        designer = DeepNJpegTableDesigner()
        t1, t2 = designer.thresholds_from_statistics(freqnet_statistics)
        sorted_std = np.sort(freqnet_statistics.std, axis=None)[::-1]
        assert t2 == pytest.approx(sorted_std[5])
        assert t1 == pytest.approx(sorted_std[27])
        assert t1 < t2

    def test_degenerate_statistics_handled(self):
        statistics = FrequencyStatistics(
            np.zeros((8, 8)), np.zeros((8, 8)), 1, 1
        )
        designer = DeepNJpegTableDesigner()
        t1, t2 = designer.thresholds_from_statistics(statistics)
        assert 0 < t1 < t2


class TestDesign:
    def test_design_produces_consistent_artifacts(self, freqnet_statistics):
        result = DeepNJpegTableDesigner().design(freqnet_statistics)
        assert result.table.values.shape == (8, 8)
        assert result.statistics is freqnet_statistics
        assert result.segmentation.method == "magnitude"

    def test_lf_bands_get_floor_steps(self, freqnet_statistics):
        config = DeepNJpegConfig(q_min=5.0)
        result = DeepNJpegTableDesigner(config).design(freqnet_statistics)
        for band in result.segmentation.bands_in_group("LF")[:3]:
            # The highest-energy bands sit on (or near) the Qmin floor.
            assert result.table.values[band] <= config.q2

    def test_hf_bands_get_larger_steps_than_lf(self, freqnet_statistics):
        result = DeepNJpegTableDesigner().design(freqnet_statistics)
        lf_steps = [
            result.table.values[band]
            for band in result.segmentation.bands_in_group("LF")
        ]
        hf_steps = [
            result.table.values[band]
            for band in result.segmentation.bands_in_group("HF")
        ]
        assert np.mean(hf_steps) > np.mean(lf_steps)

    def test_dc_band_protected(self, freqnet_statistics):
        """The DC band has by far the largest standard deviation, so the
        design must give it (close to) the minimum step — quantizing DC
        aggressively destroys every class."""
        config = DeepNJpegConfig()
        result = DeepNJpegTableDesigner(config).design(freqnet_statistics)
        assert result.table.values[0, 0] == config.q_min

    def test_larger_q_anchors_give_more_aggressive_tables(self, freqnet_statistics):
        gentle = DeepNJpegTableDesigner(
            DeepNJpegConfig(q1=40.0, q2=15.0)
        ).design(freqnet_statistics)
        aggressive = DeepNJpegTableDesigner(
            DeepNJpegConfig(q1=120.0, q2=60.0)
        ).design(freqnet_statistics)
        assert aggressive.table.mean_step() > gentle.table.mean_step()
