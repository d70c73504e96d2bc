"""Hot-path checks of the JPEG codec substrate and the table-design path.

Not tied to a specific figure; each test runs one building block every
experiment relies on (per-image compression, Algorithm-1 statistics,
quantization-table design) once, on a dataset-sized input, and checks
its output.  Timing lives in ``perfbench/run.py``.
"""

import numpy as np
import pytest

from repro.analysis.frequency import analyze_images
from repro.core import DeepNJpegTableDesigner
from repro.data import FreqNetConfig, generate_freqnet
from repro.jpeg import GrayscaleJpegCodec, QuantizationTable


@pytest.fixture(scope="module")
def sample_dataset():
    return generate_freqnet(FreqNetConfig(images_per_class=4, seed=2))


@pytest.fixture(scope="module")
def sample_images(sample_dataset):
    return sample_dataset.images


def test_grayscale_compress_single_image(sample_images):
    codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(50))
    result = codec.compress(sample_images[0])
    assert result.total_bytes > 0


def test_grayscale_encode_only(sample_images):
    codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(50))
    encoded = codec.encode(sample_images[0])
    assert len(encoded.data) > 0


def test_grayscale_decode_only(sample_images):
    codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(50))
    encoded = codec.encode(sample_images[0])
    decoded = codec.decode(encoded)
    assert decoded.shape == sample_images[0].shape
    assert np.array_equal(
        decoded, codec.compress(sample_images[0]).reconstructed
    )


def test_grayscale_compress_batch(sample_images):
    """Dataset-level compression: one coder shared across all images."""
    codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(50))
    results = codec.compress_batch(sample_images)
    assert len(results) == sample_images.shape[0]
    assert all(result.total_bytes > 0 for result in results)


def test_dataset_compression_with_table(sample_dataset):
    """End-to-end dataset API (chunked `compress_batch` + statistics)."""
    from repro.core.baselines import compress_dataset_with_table

    table = QuantizationTable.standard_luminance(50)
    compressed = compress_dataset_with_table(sample_dataset, table)
    assert len(compressed.dataset) == len(sample_dataset)
    assert compressed.total_bytes > 0


def test_frequency_analysis(sample_images):
    statistics = analyze_images(sample_images)
    assert statistics.std.shape == (8, 8)


def test_table_design(sample_images):
    statistics = analyze_images(sample_images)
    result = DeepNJpegTableDesigner().design(statistics)
    assert result.table.values.shape == (8, 8)


def test_block_dct_throughput(rng=np.random.default_rng(0)):
    from repro.jpeg.blocks import image_dct

    # 16 images of 8 x 8 blocks: 1024 blocks.
    images = rng.uniform(0, 255, size=(16, 64, 64))
    coefficients, grid = image_dct(images)
    assert coefficients.shape == (16, 8, 8, 8, 8)
    assert grid == (8, 8)


# ----------------------------------------------------------------------
# Entropy decode: the table-driven walk, one stream at a time
# ----------------------------------------------------------------------

#: Dataset-scale stream count.
DECODE_STREAMS = 512


@pytest.fixture(scope="module")
def entropy_streams():
    """Encoded scan data for ``DECODE_STREAMS`` small smooth images."""
    rng = np.random.default_rng(5)
    codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(60))
    coder = codec._coder
    y, x = np.mgrid[0:24, 0:24]
    blocks, datas = [], []
    for _ in range(DECODE_STREAMS):
        image = (
            96.0
            + 80.0 * np.sin(x / rng.uniform(2.0, 9.0))
            + 60.0 * np.cos(y / rng.uniform(2.0, 9.0))
            + rng.normal(0.0, 6.0, size=(24, 24))
        ).clip(0.0, 255.0)
        zz_blocks, _grid = coder.quantized_batch(image[np.newaxis])
        blocks.append(zz_blocks)
        datas.append(coder.encode_quantized(zz_blocks))
    return coder, blocks, datas


def test_entropy_decode_walk(entropy_streams):
    """Table-driven walk decode, stream by stream."""
    coder, blocks, datas = entropy_streams
    results = [
        coder.decode_to_zigzag(data, zz_blocks.shape[0])
        for zz_blocks, data in zip(blocks, datas)
    ]
    assert len(results) == DECODE_STREAMS
    for decoded, zz_blocks in zip(results, blocks):
        assert np.array_equal(decoded, zz_blocks)


def test_peek_words():
    """The destuff + 64-bit peek-word precompute behind every decode."""
    from repro.jpeg.bitstream import peek_words

    rng = np.random.default_rng(9)
    payload = rng.integers(0, 256, size=64 * 1024, dtype=np.uint8).tobytes()
    words, bit_count = peek_words(payload)
    assert isinstance(words, np.ndarray) and words.dtype == np.uint64
    assert bit_count > 0
