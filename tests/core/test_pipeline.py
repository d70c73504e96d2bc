"""Tests for the end-to-end DeepN-JPEG pipeline."""

import numpy as np
import pytest

from repro.core.baselines import JpegCompressor
from repro.core.config import DeepNJpegConfig
from repro.core.pipeline import DeepNJpeg


@pytest.fixture(scope="module")
def fitted_pipeline(small_freqnet):
    return DeepNJpeg(DeepNJpegConfig(sampling_interval=2)).fit(small_freqnet)


class TestFitting:
    def test_requires_fit_before_use(self, small_freqnet):
        pipeline = DeepNJpeg()
        assert not pipeline.is_fitted
        with pytest.raises(RuntimeError):
            pipeline.compress(small_freqnet.images[0])
        with pytest.raises(RuntimeError):
            pipeline.compress_dataset(small_freqnet)
        with pytest.raises(RuntimeError):
            _ = pipeline.table

    def test_fit_returns_self_and_designs_table(self, fitted_pipeline):
        assert fitted_pipeline.is_fitted
        assert fitted_pipeline.table.values.shape == (8, 8)
        assert fitted_pipeline.statistics.block_count > 0

    def test_fit_statistics_direct(self, small_freqnet):
        from repro.analysis.frequency import analyze_dataset

        statistics = analyze_dataset(small_freqnet)
        pipeline = DeepNJpeg().fit_statistics(statistics)
        assert pipeline.is_fitted

    def test_table_reflects_dataset_statistics(self, fitted_pipeline):
        # The DC band (largest std) must receive the minimum step.
        assert (
            fitted_pipeline.table.values[0, 0]
            == fitted_pipeline.config.q_min
        )


class TestCompression:
    def test_single_grayscale_image(self, fitted_pipeline, small_freqnet):
        result = fitted_pipeline.compress(small_freqnet.images[0])
        assert result.reconstructed.shape == small_freqnet.images[0].shape
        assert result.total_bytes > 0

    def test_single_rgb_image(self, fitted_pipeline, rng):
        # The codec is grayscale: an (H, W, 3) image raises, naming its
        # shape, on both per-image entry points.
        image = np.clip(rng.normal(128, 30, (24, 24, 3)), 0, 255)
        with pytest.raises(ValueError, match=r"\(24, 24, 3\)"):
            fitted_pipeline.compress(image)
        with pytest.raises(ValueError, match=r"\(24, 24, 3\)"):
            fitted_pipeline.encode_to_bytes(image)

    def test_rejects_bad_shape(self, fitted_pipeline):
        with pytest.raises(ValueError):
            fitted_pipeline.compress(np.zeros((4, 4, 4)))

    def test_dataset_compression_beats_standard_jpeg_at_qf100(
        self, fitted_pipeline, small_freqnet
    ):
        deepn = fitted_pipeline.compress_dataset(small_freqnet)
        original = JpegCompressor(100).compress_dataset(small_freqnet)
        assert deepn.total_bytes < original.total_bytes
        assert deepn.method == "DeepN-JPEG"

    def test_deepn_preserves_texture_band_better_than_qf20(
        self, fitted_pipeline, small_freqnet
    ):
        """The core claim at codec level: the dataset-adaptive table keeps
        the class-discriminative (7, 7) band that QF=20 JPEG wipes out."""
        from repro.analysis.frequency import coefficients_by_band

        textured = small_freqnet.images[small_freqnet.labels == 1]
        corner_coefficients = coefficients_by_band(textured)[:, 7, 7]

        def surviving_fraction(table) -> float:
            quantized = np.round(corner_coefficients / table.values[7, 7])
            return float((quantized != 0).mean())

        deepn_survival = surviving_fraction(fitted_pipeline.table)
        qf20_survival = surviving_fraction(JpegCompressor(20).luma_table())
        # The designed table keeps the discriminative band for (almost) every
        # block; the HVS table at QF=20 quantizes it to zero.
        assert deepn_survival > 0.9
        assert qf20_survival < 0.1
        assert (
            fitted_pipeline.table.values[7, 7]
            < JpegCompressor(20).luma_table().values[7, 7]
        )
