"""Tests for the DeepN-JPEG configuration."""

import pytest

from repro.core.config import DeepNJpegConfig


class TestDeepNJpegConfig:
    def test_defaults_match_band_split(self):
        config = DeepNJpegConfig()
        assert config.lf_band_count == 6
        assert config.mf_band_count == 22
        assert config.q_min <= config.q2 <= config.q1 <= config.q_max_step

    def test_rejects_inconsistent_anchors(self):
        with pytest.raises(ValueError):
            DeepNJpegConfig(q1=10.0, q2=20.0)
        with pytest.raises(ValueError):
            DeepNJpegConfig(q_min=30.0, q2=20.0)

    def test_rejects_bad_band_counts(self):
        with pytest.raises(ValueError):
            DeepNJpegConfig(lf_band_count=0)
        with pytest.raises(ValueError):
            DeepNJpegConfig(lf_band_count=40, mf_band_count=30)

    def test_rejects_bad_sampling_and_slope(self):
        with pytest.raises(ValueError):
            DeepNJpegConfig(sampling_interval=0)
        with pytest.raises(ValueError):
            DeepNJpegConfig(k3=-1.0)

    def test_is_frozen(self):
        config = DeepNJpegConfig()
        with pytest.raises(Exception):
            config.q1 = 10.0
