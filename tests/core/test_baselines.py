"""Tests for the dataset-level compressors (JPEG, RM-HF, SAME-Q)."""

import numpy as np
import pytest

from repro.core.baselines import (
    JpegCompressor,
    RemoveHighFrequencyCompressor,
    SameQCompressor,
    compress_dataset_with_table,
    iter_compressed_stack,
)
from repro.data.dataset import Dataset
from repro.jpeg.codec import GrayscaleJpegCodec
from repro.jpeg.quantization import (
    MAX_QUANT_STEP,
    QuantizationTable,
    STANDARD_LUMINANCE_TABLE,
)
from repro.jpeg.zigzag import ZIGZAG_ORDER


class TestJpegCompressor:
    def test_quality_monotone_in_size(self, small_freqnet):
        sizes = []
        for quality in (100, 60, 20):
            compressed = JpegCompressor(quality).compress_dataset(small_freqnet)
            sizes.append(compressed.total_bytes)
        assert sizes == sorted(sizes, reverse=True)

    def test_reconstruction_matches_shape_and_labels(self, small_freqnet):
        compressed = JpegCompressor(50).compress_dataset(small_freqnet)
        assert compressed.dataset.images.shape == small_freqnet.images.shape
        np.testing.assert_array_equal(
            compressed.dataset.labels, small_freqnet.labels
        )

    def test_compression_ratio_definition(self, small_freqnet):
        compressed = JpegCompressor(50).compress_dataset(small_freqnet)
        assert compressed.compression_ratio == pytest.approx(
            small_freqnet.uncompressed_bytes() / compressed.total_bytes
        )
        assert compressed.bytes_per_image == pytest.approx(
            compressed.total_bytes / len(small_freqnet)
        )

    def test_invalid_quality(self):
        with pytest.raises(ValueError):
            JpegCompressor(0)

    def test_tables_are_standard_scaled(self):
        compressor = JpegCompressor(50)
        np.testing.assert_allclose(
            compressor.luma_table().values, STANDARD_LUMINANCE_TABLE
        )


class TestRemoveHighFrequency:
    def test_removed_bands_have_max_step(self):
        compressor = RemoveHighFrequencyCompressor(removed_components=5,
                                                   quality=100)
        table_zigzag = compressor.luma_table().values.reshape(64)[ZIGZAG_ORDER]
        assert np.all(table_zigzag[-5:] == MAX_QUANT_STEP)
        assert np.all(table_zigzag[:-5] == 1)

    def test_zero_removed_equals_plain_jpeg(self, small_freqnet):
        plain = JpegCompressor(100).compress_dataset(small_freqnet)
        rm0 = RemoveHighFrequencyCompressor(0, quality=100).compress_dataset(
            small_freqnet
        )
        assert rm0.total_bytes == plain.total_bytes

    def test_removing_more_components_compresses_more(self, small_freqnet):
        small = RemoveHighFrequencyCompressor(3).compress_dataset(small_freqnet)
        large = RemoveHighFrequencyCompressor(9).compress_dataset(small_freqnet)
        assert large.total_bytes < small.total_bytes

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            RemoveHighFrequencyCompressor(64)
        with pytest.raises(ValueError):
            RemoveHighFrequencyCompressor(3, quality=0)

    def test_name_matches_paper_notation(self):
        assert RemoveHighFrequencyCompressor(3).name == "RM-HF3"


class TestSameQ:
    def test_flat_table(self):
        compressor = SameQCompressor(8)
        assert np.all(compressor.luma_table().values == 8)
        assert compressor.name == "SAME-Q8"

    def test_larger_step_compresses_more(self, small_freqnet):
        q4 = SameQCompressor(4).compress_dataset(small_freqnet)
        q12 = SameQCompressor(12).compress_dataset(small_freqnet)
        assert q12.total_bytes < q4.total_bytes
        assert q12.mean_psnr < q4.mean_psnr

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            SameQCompressor(0.5)


class TestCompressDatasetWithTable:
    def test_color_dataset_path(self, rng):
        # The codec is grayscale: a colour stack raises, naming its shape.
        images = np.clip(rng.normal(128, 30, (4, 16, 16, 3)), 0, 255)
        dataset = Dataset(images, np.zeros(4, dtype=int), ["only"])
        with pytest.raises(ValueError, match=r"\(4, 16, 16, 3\)"):
            compress_dataset_with_table(
                dataset, QuantizationTable.standard_luminance(80)
            )

    def test_method_name_recorded(self, small_freqnet):
        compressed = compress_dataset_with_table(
            small_freqnet, QuantizationTable.flat(4), method="custom-flat"
        )
        assert compressed.method == "custom-flat"

    def test_payload_ratio_larger_than_total_ratio(self, small_freqnet):
        compressed = compress_dataset_with_table(
            small_freqnet, QuantizationTable.flat(8)
        )
        assert (
            compressed.payload_compression_ratio > compressed.compression_ratio
        )


def _stack_results(images, table):
    """Per-image results of the dataset path's chunked batch loop."""
    return list(iter_compressed_stack(images, GrayscaleJpegCodec(table)))


class TestCompressBatch:
    def test_matches_per_image_compression(self, small_freqnet):
        table = QuantizationTable.standard_luminance(50)
        results = _stack_results(small_freqnet.images, table)
        codec = GrayscaleJpegCodec(table)
        assert len(results) == len(small_freqnet)
        for index, result in enumerate(results):
            single = codec.compress(small_freqnet.images[index])
            assert result.payload_bytes == single.payload_bytes
            np.testing.assert_array_equal(
                result.reconstructed, single.reconstructed
            )

    def test_dataset_compression_goes_through_batch(self, small_freqnet):
        table = QuantizationTable.standard_luminance(50)
        compressed = compress_dataset_with_table(
            small_freqnet, table, method="batch-check"
        )
        results = _stack_results(small_freqnet.images, table)
        assert compressed.payload_bytes == sum(
            result.payload_bytes for result in results
        )
        assert compressed.header_bytes == sum(
            result.header_bytes for result in results
        )

    def test_rejects_bad_shapes(self):
        table = QuantizationTable.standard_luminance(50)
        with pytest.raises(ValueError, match=r"\(8, 8\)"):
            _stack_results(np.zeros((8, 8)), table)
        dataset = Dataset(np.zeros((2, 8, 8, 5)), np.zeros(2, dtype=int),
                          ["only"])
        with pytest.raises(ValueError, match=r"\(2, 8, 8, 5\)"):
            compress_dataset_with_table(dataset, table)

    def test_narrow_grayscale_dataset_dispatches_as_grayscale(self, rng):
        # (N, H, 3) is an unambiguous grayscale stack at the dataset level.
        images = np.clip(rng.normal(128, 40, (4, 16, 3)), 0, 255)
        dataset = Dataset(images=images, labels=np.zeros(4, dtype=int),
                          class_names=["only"])
        table = QuantizationTable.standard_luminance(50)
        compressed = compress_dataset_with_table(dataset, table)
        assert compressed.dataset.images.shape == images.shape
        assert compressed.payload_bytes > 0
