"""DeepN-JPEG's per-image entry points and its spec identity."""

import json

import numpy as np
import pytest

from repro.core.config import DeepNJpegConfig
from repro.core.pipeline import DeepNJpeg
from repro.core.table_design import TableDesignResult
from repro.data.synthetic import FreqNetConfig, generate_freqnet
from repro.jpeg.codec import GrayscaleJpegCodec


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
        # A single (H, 3) image is a 3-wide grayscale image.
        image = np.arange(48, dtype=np.float64).reshape(16, 3)
        reference = GrayscaleJpegCodec(fitted_deepn.table).compress(image)
        result = fitted_deepn.compress(image)
        assert result.payload_bytes == reference.payload_bytes
        np.testing.assert_array_equal(
            result.reconstructed, reference.reconstructed
        )


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
