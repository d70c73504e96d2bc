"""Tests for the end-to-end JPEG-style codecs."""

import numpy as np
import pytest

from repro.jpeg import GrayscaleJpegCodec, QuantizationTable


class TestGrayscaleCodec:
    def test_roundtrip_preserves_shape_and_range(self, random_image):
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(75))
        result = codec.compress(random_image)
        assert result.reconstructed.shape == random_image.shape
        assert result.reconstructed.min() >= 0.0
        assert result.reconstructed.max() <= 255.0

    def test_lossless_quantization_is_near_exact(self, smooth_image):
        codec = GrayscaleJpegCodec(QuantizationTable.flat(1))
        result = codec.compress(smooth_image)
        assert result.psnr(smooth_image) > 50.0

    def test_larger_steps_reduce_size_and_quality(self, random_image):
        fine = GrayscaleJpegCodec(QuantizationTable.flat(2)).compress(random_image)
        coarse = GrayscaleJpegCodec(QuantizationTable.flat(40)).compress(random_image)
        assert coarse.payload_bytes < fine.payload_bytes
        assert coarse.psnr(random_image) < fine.psnr(random_image)

    def test_smooth_images_compress_better_than_noise(self, random_image, smooth_image):
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(50))
        noisy = codec.compress(random_image)
        smooth = codec.compress(smooth_image[:32, :32])
        assert smooth.payload_bytes < noisy.payload_bytes

    def test_compression_ratio_accounts_for_header(self, random_image):
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(50))
        result = codec.compress(random_image)
        assert result.total_bytes == result.payload_bytes + result.header_bytes
        assert result.original_bytes == random_image.size
        assert result.compression_ratio < result.payload_compression_ratio

    def test_non_multiple_of_eight_dimensions(self, rng):
        image = np.clip(rng.normal(120, 30, (19, 27)), 0, 255)
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(60))
        result = codec.compress(image)
        assert result.reconstructed.shape == image.shape

    def test_quality_monotonic_in_psnr(self, random_image):
        results = [
            GrayscaleJpegCodec(
                QuantizationTable.standard_luminance(quality)
            ).compress(random_image)
            for quality in (20, 50, 90)
        ]
        psnrs = [result.psnr(random_image) for result in results]
        assert psnrs == sorted(psnrs)

    def test_encode_decode_consistent_with_compress(self, random_image):
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(70))
        encoded = codec.encode(random_image)
        decoded = codec.decode(encoded)
        result = codec.compress(random_image)
        np.testing.assert_allclose(decoded, result.reconstructed)
        assert len(encoded.data) == result.payload_bytes

    def test_header_bytes_are_the_annex_k_file_overhead(self, random_image):
        # SOI 2 + APP0 18 + DQT 69 + SOF 13 + DHT (4 + 29) + (4 + 179)
        # + SOS 10 + EOI 2: one component and the two Annex K tables.
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(50))
        assert codec.compress(random_image).header_bytes == 330

    def test_rejects_color_input(self, random_rgb_image):
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(50))
        with pytest.raises(ValueError):
            codec.compress(random_rgb_image)

    def test_constant_image_compresses_extremely_well(self):
        image = np.full((64, 64), 200.0)
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(50))
        result = codec.compress(image)
        assert result.payload_compression_ratio > 30.0
        assert result.psnr(image) > 40.0

    def test_compress_matches_explicit_decode(self, random_image):
        # compress() reconstructs straight from the quantized blocks;
        # decoding the stream must give the exact same image.
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(60))
        result = codec.compress(random_image)
        decoded = codec.decode(codec.encode(random_image))
        np.testing.assert_array_equal(decoded, result.reconstructed)


class TestGrayscaleBatch:
    def test_batch_matches_per_image_compress(self, rng):
        images = np.clip(rng.normal(128, 50, (6, 24, 24)), 0, 255)
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(50))
        batch = codec.compress_batch(images)
        assert len(batch) == 6
        for index, result in enumerate(batch):
            single = codec.compress(images[index])
            assert result.payload_bytes == single.payload_bytes
            assert result.header_bytes == single.header_bytes
            np.testing.assert_array_equal(
                result.reconstructed, single.reconstructed
            )

    def test_batch_with_padding_dimensions(self, rng):
        images = np.clip(rng.normal(128, 50, (3, 19, 27)), 0, 255)
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(60))
        batch = codec.compress_batch(images)
        for index, result in enumerate(batch):
            single = codec.compress(images[index])
            assert result.payload_bytes == single.payload_bytes
            np.testing.assert_array_equal(
                result.reconstructed, single.reconstructed
            )

    def test_batch_rejects_single_image(self, random_image):
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(50))
        with pytest.raises(ValueError):
            codec.compress_batch(random_image)
