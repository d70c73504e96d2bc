"""DeepN-JPEG's per-image entry points, its spec identity and stack dispatch."""

import json

import numpy as np
import pytest

from repro.core.baselines import codec_for_stack, compress_dataset_with_table
from repro.core.config import DeepNJpegConfig
from repro.core.pipeline import DeepNJpeg
from repro.core.table_design import TableDesignResult
from repro.data.synthetic import FreqNetConfig, generate_freqnet
from repro.jpeg.codec import ColorJpegCodec, GrayscaleJpegCodec
from repro.jpeg.quantization import QuantizationTable


@pytest.fixture(scope="module")
def gray_image():
    rng = np.random.default_rng(31)
    return rng.uniform(0.0, 255.0, size=(24, 24)).round()


@pytest.fixture(scope="module")
def fitted_deepn():
    dataset = generate_freqnet(
        FreqNetConfig(image_size=16, images_per_class=4, seed=5)
    )
    return DeepNJpeg().fit(dataset)


class TestDeepNJpegEntryPoints:
    def test_three_wide_grayscale_image(self, fitted_deepn):
        # A single (H, 3) image is rank-unambiguous: it compresses
        # through the grayscale path, not the colour one.
        image = np.arange(48, dtype=np.float64).reshape(16, 3)
        reference = GrayscaleJpegCodec(fitted_deepn.table).compress(image)
        result = fitted_deepn.compress(image)
        assert result.payload_bytes == reference.payload_bytes
        np.testing.assert_array_equal(
            result.reconstructed, reference.reconstructed
        )

    def test_dataset_path_honours_optimize_huffman(self):
        dataset = generate_freqnet(
            FreqNetConfig(image_size=16, images_per_class=4, seed=6)
        )
        deepn = DeepNJpeg(DeepNJpegConfig(optimize_huffman=True)).fit(dataset)
        compressed = deepn.compress_dataset(dataset)
        reference = compress_dataset_with_table(
            dataset, deepn.table, deepn.design.chroma_table,
            optimize_huffman=True,
        )
        assert compressed.payload_bytes == reference.payload_bytes
        assert compressed.header_bytes == reference.header_bytes
        # The flag reaches the codec: Annex K tables code differently.
        assert compressed.payload_bytes != compress_dataset_with_table(
            dataset, deepn.table, deepn.design.chroma_table
        ).payload_bytes


class TestSpecRoundTrips:
    def test_specs_survive_json_serialization(self, gray_image, fitted_deepn):
        spec = json.loads(json.dumps(fitted_deepn.spec()))
        rebuilt = DeepNJpeg.from_design(
            DeepNJpegConfig.from_json(spec["config"]),
            TableDesignResult.from_json(spec["design"]),
        )
        assert rebuilt.is_fitted
        assert rebuilt.spec() == fitted_deepn.spec()
        assert rebuilt.encode_to_bytes(gray_image) == (
            fitted_deepn.encode_to_bytes(gray_image)
        )
        np.testing.assert_array_equal(
            rebuilt.compress(gray_image).reconstructed,
            fitted_deepn.compress(gray_image).reconstructed,
        )

    def test_unfitted_deepn_spec(self):
        pipeline = DeepNJpeg()
        assert not pipeline.is_fitted
        assert pipeline.spec()["design"] is None


class TestCodecForStack:
    def test_modality_dispatch(self):
        table = QuantizationTable.standard_luminance(80)
        assert isinstance(
            codec_for_stack(np.zeros((2, 8, 8)), table), GrayscaleJpegCodec
        )
        assert isinstance(
            codec_for_stack(np.zeros((2, 8, 8, 3)), table), ColorJpegCodec
        )
        # The rank decides: (N, H, 3) is a stack of 3-wide grayscale images.
        assert isinstance(
            codec_for_stack(np.zeros((4, 8, 3)), table), GrayscaleJpegCodec
        )

    def test_bad_rank_rejected(self):
        table = QuantizationTable.standard_luminance(80)
        with pytest.raises(ValueError, match="stack"):
            codec_for_stack(np.zeros((8, 8)), table)
