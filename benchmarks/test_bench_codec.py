"""Microbenchmarks of the JPEG codec substrate and the table-design path.

Not tied to a specific figure; these quantify the cost of the building
blocks every experiment relies on (per-image compression, Algorithm-1
statistics, quantization-table design).
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


def test_grayscale_compress_single_image(benchmark, sample_images):
    codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(50))
    image = sample_images[0]
    result = benchmark(codec.compress, image)
    assert result.total_bytes > 0


def test_grayscale_encode_only(benchmark, sample_images):
    codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(50))
    image = sample_images[0]
    encoded = benchmark(codec.encode, image)
    assert len(encoded.data) > 0


def test_grayscale_decode_only(benchmark, sample_images):
    codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(50))
    encoded = codec.encode(sample_images[0])
    decoded = benchmark(codec.decode, encoded)
    assert decoded.shape == sample_images[0].shape


def test_grayscale_compress_batch(benchmark, sample_images):
    """Dataset-level compression: one coder shared across all images."""
    codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(50))
    results = benchmark(codec.compress_batch, sample_images)
    assert len(results) == sample_images.shape[0]
    assert all(result.total_bytes > 0 for result in results)


def test_dataset_compression_with_table(benchmark, sample_dataset):
    """End-to-end dataset API (chunked `compress_batch` + statistics)."""
    from repro.core.baselines import compress_dataset_with_table

    table = QuantizationTable.standard_luminance(50)
    compressed = benchmark(compress_dataset_with_table, sample_dataset, table)
    assert len(compressed.dataset) == len(sample_dataset)
    assert compressed.total_bytes > 0


def test_frequency_analysis(benchmark, sample_images):
    statistics = benchmark(analyze_images, sample_images)
    assert statistics.std.shape == (8, 8)


def test_table_design(benchmark, sample_images):
    statistics = analyze_images(sample_images)
    designer = DeepNJpegTableDesigner()
    result = benchmark(designer.design, statistics)
    assert result.table.values.shape == (8, 8)


def test_block_dct_throughput(benchmark, rng=np.random.default_rng(0)):
    from repro.jpeg.dct import block_dct2d

    blocks = rng.normal(size=(1024, 8, 8))
    coefficients = benchmark(block_dct2d, blocks)
    assert coefficients.shape == blocks.shape


# ----------------------------------------------------------------------
# Entropy decode: the table-driven walk, one stream at a time
# ----------------------------------------------------------------------

#: Dataset-scale stream count, kept at the size earlier trajectory
#: entries recorded so ``repro bench --check`` compares like with like.
DECODE_STREAMS = 512


@pytest.fixture(scope="module")
def entropy_streams():
    """Encoded scan data for ``DECODE_STREAMS`` small smooth images."""
    rng = np.random.default_rng(5)
    codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(60))
    coder = codec._coder
    y, x = np.mgrid[0:24, 0:24]
    datas, counts = [], []
    for _ in range(DECODE_STREAMS):
        image = (
            96.0
            + 80.0 * np.sin(x / rng.uniform(2.0, 9.0))
            + 60.0 * np.cos(y / rng.uniform(2.0, 9.0))
            + rng.normal(0.0, 6.0, size=(24, 24))
        ).clip(0.0, 255.0)
        zz_blocks, _grid = coder.quantized_blocks(image)
        datas.append(coder.encode_quantized(zz_blocks))
        counts.append(zz_blocks.shape[0])
    return coder, datas, counts


def test_entropy_decode_walk(benchmark, entropy_streams):
    """Table-driven walk decode, stream by stream."""
    coder, datas, counts = entropy_streams

    def walk_all():
        return [
            coder.decode_to_zigzag(data, count)
            for data, count in zip(datas, counts)
        ]

    results = benchmark(walk_all)
    assert len(results) == DECODE_STREAMS
    benchmark.extra_info["streams"] = DECODE_STREAMS


def test_peek_words(benchmark):
    """The destuff + 64-bit peek-word precompute behind every decode."""
    from repro.jpeg.bitstream import peek_words

    rng = np.random.default_rng(9)
    payload = rng.integers(0, 256, size=64 * 1024, dtype=np.uint8).tobytes()
    words, bit_count = benchmark(peek_words, payload)
    assert isinstance(words, np.ndarray) and words.dtype == np.uint64
    assert bit_count > 0
