"""Chunked dataset compression: edge cases and the serial chunk loop."""

import numpy as np
import pytest

from repro.core import baselines
from repro.core.baselines import (
    compress_dataset_with_table,
    iter_compressed_stack,
)
from repro.data.dataset import Dataset
from repro.jpeg.codec import GrayscaleJpegCodec
from repro.jpeg.metrics import psnr
from repro.jpeg.quantization import QuantizationTable


@pytest.fixture(scope="module")
def luma_table():
    return QuantizationTable.standard_luminance(90)


@pytest.fixture(scope="module")
def gray_stack():
    rng = np.random.default_rng(11)
    return rng.uniform(0.0, 255.0, size=(7, 24, 24)).round()


def _stack_results(stack, luma_table):
    """Per-image results of the chunk loop over one shared codec."""
    return list(iter_compressed_stack(stack, GrayscaleJpegCodec(luma_table)))


def _assert_results_equal(left, right):
    assert len(left) == len(right)
    for first, second in zip(left, right):
        assert first.payload_bytes == second.payload_bytes
        assert first.header_bytes == second.header_bytes
        assert first.original_bytes == second.original_bytes
        np.testing.assert_array_equal(
            first.reconstructed, second.reconstructed
        )


class TestEdgeCases:
    """The cases the chunk loop hits: empty stacks and one image."""

    def test_empty_grayscale_stack(self, luma_table):
        assert _stack_results(np.empty((0, 16, 16)), luma_table) == []

    def test_empty_color_stack(self, luma_table):
        # The rank is checked before the (empty) chunk loop runs.
        dataset = Dataset(
            images=np.empty((0, 16, 16, 3)),
            labels=np.empty((0,), dtype=np.intp),
            class_names=["only"],
        )
        with pytest.raises(ValueError, match=r"\(0, 16, 16, 3\)"):
            compress_dataset_with_table(dataset, luma_table)

    def test_empty_dataset_through_table_path(self, luma_table):
        dataset = Dataset(
            images=np.empty((0, 16, 16)),
            labels=np.empty((0,), dtype=np.intp),
            class_names=["only"],
        )
        compressed = compress_dataset_with_table(dataset, luma_table)
        assert len(compressed.dataset) == 0
        assert compressed.payload_bytes == 0
        assert compressed.header_bytes == 0

    def test_single_image_stack(self, luma_table, gray_stack):
        results = _stack_results(gray_stack[:1], luma_table)
        reference = GrayscaleJpegCodec(luma_table).compress(gray_stack[0])
        assert len(results) == 1
        assert results[0].payload_bytes == reference.payload_bytes
        np.testing.assert_array_equal(
            results[0].reconstructed, reference.reconstructed
        )


@pytest.fixture()
def chunk_sizes(monkeypatch):
    """Cap chunks at 3 images and record each ``compress_batch`` size.

    The 7-image stack then runs as chunks of 3, 3 and 1.
    """
    monkeypatch.setattr(baselines, "_BATCH_CHUNK", 3)
    sizes = []
    original = GrayscaleJpegCodec.compress_batch

    def recording(self, images):
        sizes.append(len(images))
        return original(self, images)

    monkeypatch.setattr(GrayscaleJpegCodec, "compress_batch", recording)
    return sizes


def _per_image(stack, luma_table):
    codec = GrayscaleJpegCodec(luma_table)
    return [codec.compress(image) for image in stack]


class TestChunkLoop:
    """Several chunks with a short tail give the per-image results."""

    def test_compress_batch_matches_per_image(
        self, chunk_sizes, luma_table, gray_stack
    ):
        results = _stack_results(gray_stack, luma_table)
        assert chunk_sizes == [3, 3, 1]
        _assert_results_equal(results, _per_image(gray_stack, luma_table))

    def test_dataset_path_matches_per_image(
        self, chunk_sizes, luma_table, gray_stack
    ):
        dataset = Dataset(
            images=gray_stack,
            labels=np.zeros(gray_stack.shape[0], dtype=np.intp),
            class_names=["only"],
        )
        compressed = compress_dataset_with_table(dataset, luma_table)
        assert chunk_sizes == [3, 3, 1]
        reference = _per_image(gray_stack, luma_table)
        assert compressed.payload_bytes == sum(
            result.payload_bytes for result in reference
        )
        assert compressed.header_bytes == sum(
            result.header_bytes for result in reference
        )
        np.testing.assert_array_equal(
            compressed.dataset.images,
            np.stack([result.reconstructed for result in reference]),
        )
        assert compressed.mean_psnr == pytest.approx(
            np.mean([
                psnr(image, result.reconstructed)
                for image, result in zip(gray_stack, reference)
            ]),
            rel=1e-12,
        )
