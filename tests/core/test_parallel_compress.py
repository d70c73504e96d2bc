"""Chunked dataset compression: edge cases and the serial chunk loop."""

import numpy as np
import pytest

from repro.core import baselines
from repro.core.baselines import (
    codec_for_stack,
    compress_dataset_with_table,
    iter_compressed_stack,
)
from repro.data.dataset import Dataset
from repro.jpeg.codec import ColorJpegCodec, GrayscaleJpegCodec
from repro.jpeg.metrics import psnr
from repro.jpeg.quantization import QuantizationTable


@pytest.fixture(scope="module")
def luma_table():
    return QuantizationTable.standard_luminance(90)


@pytest.fixture(scope="module")
def gray_stack():
    rng = np.random.default_rng(11)
    return rng.uniform(0.0, 255.0, size=(7, 24, 24)).round()


@pytest.fixture(scope="module")
def color_stack():
    rng = np.random.default_rng(12)
    return rng.uniform(0.0, 255.0, size=(5, 16, 16, 3)).round()


def _stack_results(stack, luma_table, optimize_huffman=False):
    """Per-image results of the chunk loop over one shared codec."""
    codec = codec_for_stack(
        stack, luma_table, optimize_huffman=optimize_huffman
    )
    return list(iter_compressed_stack(stack, codec))


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
        assert _stack_results(np.empty((0, 16, 16, 3)), luma_table) == []

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

    The 7-image grayscale stack then runs as chunks of 3, 3 and 1, and
    the 5-image colour stack as 3 and 2.
    """
    monkeypatch.setattr(baselines, "_BATCH_CHUNK", 3)
    sizes = []
    for cls in (GrayscaleJpegCodec, ColorJpegCodec):
        original = cls.compress_batch

        def recording(self, images, _original=original):
            sizes.append(len(images))
            return _original(self, images)

        monkeypatch.setattr(cls, "compress_batch", recording)
    return sizes


def _per_image(stack, luma_table, optimize_huffman):
    if stack.ndim == 4:
        codec = ColorJpegCodec(
            luma_table, luma_table, optimize_huffman=optimize_huffman
        )
    else:
        codec = GrayscaleJpegCodec(
            luma_table, optimize_huffman=optimize_huffman
        )
    return [codec.compress(image) for image in stack]


@pytest.mark.parametrize(
    "optimize_huffman", [False, True], ids=["annex-k", "optimized"]
)
@pytest.mark.parametrize(
    "stack_name, expected_chunks",
    [("gray_stack", [3, 3, 1]), ("color_stack", [3, 2])],
    ids=["gray", "color"],
)
class TestChunkLoop:
    """Several chunks with a short tail give the per-image results."""

    def test_compress_batch_matches_per_image(
        self, request, chunk_sizes, luma_table, stack_name, expected_chunks,
        optimize_huffman,
    ):
        stack = request.getfixturevalue(stack_name)
        results = _stack_results(
            stack, luma_table, optimize_huffman=optimize_huffman
        )
        assert chunk_sizes == expected_chunks
        _assert_results_equal(
            results, _per_image(stack, luma_table, optimize_huffman)
        )

    def test_dataset_path_matches_per_image(
        self, request, chunk_sizes, luma_table, stack_name, expected_chunks,
        optimize_huffman,
    ):
        stack = request.getfixturevalue(stack_name)
        dataset = Dataset(
            images=stack,
            labels=np.zeros(stack.shape[0], dtype=np.intp),
            class_names=["only"],
        )
        compressed = compress_dataset_with_table(
            dataset, luma_table, optimize_huffman=optimize_huffman
        )
        assert chunk_sizes == expected_chunks
        reference = _per_image(stack, luma_table, optimize_huffman)
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
                for image, result in zip(stack, reference)
            ]),
            rel=1e-12,
        )
