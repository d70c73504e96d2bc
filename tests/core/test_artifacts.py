"""Serializable artifacts: JSON round-trips and DeepNJpeg.save/load."""

import json
import os
import re

import numpy as np
import pytest

from repro.analysis.bands import BandSegmentation, position_based_segmentation
from repro.analysis.frequency import FrequencyStatistics
from repro.core.config import DeepNJpegConfig
from repro.core.pipeline import DeepNJpeg
from repro.core.plm import PiecewiseLinearMapping
from repro.core.table_design import TableDesignResult
from repro.data.synthetic import FreqNetConfig, generate_freqnet
from repro.files import MAX_FILE_BYTES
from repro.jpeg.quantization import QuantizationTable


@pytest.fixture(scope="module")
def dataset():
    return generate_freqnet(
        FreqNetConfig(image_size=16, images_per_class=6, seed=9)
    )


@pytest.fixture(scope="module")
def fitted(dataset):
    return DeepNJpeg(DeepNJpegConfig(sampling_interval=2)).fit(dataset)


def _json_round_trip(payload):
    """Force the payload through real JSON text (floats via repr)."""
    return json.loads(json.dumps(payload))


class TestJsonRoundTrips:
    def test_quantization_table(self):
        table = QuantizationTable.standard_luminance(35)
        rebuilt = QuantizationTable.from_json(_json_round_trip(table.to_json()))
        np.testing.assert_array_equal(rebuilt.values, table.values)
        assert rebuilt.name == table.name

    def test_frequency_statistics_exact_floats(self, fitted):
        statistics = fitted.statistics
        rebuilt = FrequencyStatistics.from_json(
            _json_round_trip(statistics.to_json())
        )
        np.testing.assert_array_equal(rebuilt.std, statistics.std)
        np.testing.assert_array_equal(rebuilt.mean, statistics.mean)
        assert rebuilt.block_count == statistics.block_count
        assert rebuilt.image_count == statistics.image_count

    def test_piecewise_linear_mapping(self):
        mapping = PiecewiseLinearMapping.paper_imagenet()
        rebuilt = PiecewiseLinearMapping.from_json(
            _json_round_trip(mapping.to_json())
        )
        assert rebuilt == mapping

    def test_band_segmentation(self):
        segmentation = position_based_segmentation()
        rebuilt = BandSegmentation.from_json(
            _json_round_trip(segmentation.to_json())
        )
        np.testing.assert_array_equal(rebuilt.groups, segmentation.groups)
        assert rebuilt.method == segmentation.method

    def test_config(self):
        config = DeepNJpegConfig(k3=2.5, lf_intercept=None, sampling_interval=3)
        assert DeepNJpegConfig.from_json(
            _json_round_trip(config.to_json())
        ) == config

    def test_table_design_result(self, fitted):
        design = fitted.design
        rebuilt = TableDesignResult.from_json(
            _json_round_trip(design.to_json())
        )
        np.testing.assert_array_equal(rebuilt.table.values, design.table.values)
        assert rebuilt.mapping == design.mapping
        np.testing.assert_array_equal(
            rebuilt.statistics.std, design.statistics.std
        )
        np.testing.assert_array_equal(
            rebuilt.segmentation.groups, design.segmentation.groups
        )


class TestSaveLoad:
    def test_save_requires_fitted(self, tmp_path):
        with pytest.raises(RuntimeError, match="fitted"):
            DeepNJpeg().save(str(tmp_path / "artifact.json"))

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="format"):
            DeepNJpeg.load(str(path))

    @pytest.mark.parametrize(
        "mutate, from_json_error",
        [
            (lambda valid: [valid], False),
            (lambda valid: None, False),
            (lambda valid: {k: v for k, v in valid.items() if k != "config"},
             True),
            (lambda valid: {**valid, "design": {
                k: v for k, v in valid["design"].items() if k != "mapping"
            }}, True),
            (lambda valid: {**valid, "config": {**valid["config"], "bogus": 1}},
             True),
            (lambda valid: {**valid, "config": [1, 2]}, True),
        ],
        ids=[
            "json-list", "json-null", "missing-config", "wrong-shape-design",
            "unknown-config-field", "non-object-config",
        ],
    )
    def test_load_rejects_malformed_artifact(
        self, tmp_path, fitted, mutate, from_json_error
    ):
        path = tmp_path / "artifact.json"
        fitted.save(str(path))
        path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match=re.escape(str(path))) as info:
            DeepNJpeg.load(str(path))
        # A payload that reached from_json chains the decoder's error.
        assert (info.value.__cause__ is not None) == from_json_error

    @pytest.mark.parametrize(
        "content",
        [b"[" * 200_000, b"{not json", b"", b"\xff\xfe\x00{"],
        ids=["deep-nesting", "not-json", "empty", "not-utf8"],
    )
    def test_load_rejects_unreadable_file(self, tmp_path, content):
        path = tmp_path / "artifact.json"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=re.escape(str(path))) as info:
            DeepNJpeg.load(str(path))
        assert info.value.__cause__ is not None

    def test_load_rejects_a_fifo(self, tmp_path, without_blocking):
        path = tmp_path / "artifact.json"
        os.mkfifo(path)
        with pytest.raises(ValueError, match=re.escape(str(path))) as info:
            without_blocking(lambda: DeepNJpeg.load(str(path)), str(path))
        assert "not a regular file" in str(info.value)

    def test_load_rejects_an_oversized_file(self, tmp_path, fitted):
        # A valid artifact, padded past the read cap with whitespace.
        path = tmp_path / "artifact.json"
        fitted.save(str(path))
        path.write_text(path.read_text() + " " * MAX_FILE_BYTES)
        with pytest.raises(ValueError, match=re.escape(str(path))) as info:
            DeepNJpeg.load(str(path))
        assert f"larger than {MAX_FILE_BYTES} bytes" in str(info.value)

    def test_missing_file_and_directory_stay_oserrors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            DeepNJpeg.load(str(tmp_path / "absent.json"))
        with pytest.raises(IsADirectoryError):
            DeepNJpeg.load(str(tmp_path))

    def test_load_rejects_version_1_artifact(self, tmp_path, fitted):
        # Version 1 also carried the colour-table and Huffman knobs that
        # no longer exist; it is refused by version, before any field.
        path = tmp_path / "artifact.json"
        fitted.save(str(path))
        payload = json.loads(path.read_text())
        payload["version"] = 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unsupported artifact version 1"):
            DeepNJpeg.load(str(path))

    def test_load_rejects_future_version(self, tmp_path, fitted):
        path = tmp_path / "artifact.json"
        fitted.save(str(path))
        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            DeepNJpeg.load(str(path))

    @pytest.mark.parametrize(
        "keys, old, new",
        [
            (("design", "table", "values", 0, 0), 5, 12),
            (("design", "segmentation", "groups", 7, 7), "HF", "LF"),
            # The largest std makes the (7, 7) band an LF band.
            (("design", "statistics", "std", 7, 7), None, 1e6),
            (("design", "mapping", "k3"), 3.0, 1.0),
            (("config", "q_min"), 5.0, 8.0),
        ],
        ids=["table-step", "segmentation", "statistics", "mapping", "config"],
    )
    def test_load_rejects_a_design_that_does_not_re_derive(
        self, tmp_path, fitted, keys, old, new
    ):
        # A well-formed artifact with one field edited: the design no
        # longer follows from the config and the embedded statistics.
        path = tmp_path / "artifact.json"
        fitted.save(str(path))
        payload = json.loads(path.read_text())
        parent = payload
        for key in keys[:-1]:
            parent = parent[key]
        if old is not None:
            assert parent[keys[-1]] == old
        parent[keys[-1]] = new
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(str(path))) as info:
            DeepNJpeg.load(str(path))
        assert "does not re-derive" in str(info.value)

    @pytest.mark.parametrize(
        "config",
        [
            DeepNJpegConfig(k3=1.0, sampling_interval=2),
            DeepNJpegConfig(q1=90.0, q2=60.0, q_min=8.0, sampling_interval=2),
            DeepNJpegConfig(lf_intercept=30.0, sampling_interval=2),
            DeepNJpegConfig(lf_band_count=4, mf_band_count=18,
                            sampling_interval=3),
        ],
        ids=["k3", "anchors", "lf-intercept", "band-counts"],
    )
    def test_load_accepts_a_genuine_artifact_of_any_config(
        self, tmp_path, dataset, config
    ):
        # The re-derivation is exact: no genuine artifact is refused.
        fitted = DeepNJpeg(config).fit(dataset)
        path = tmp_path / "artifact.json"
        fitted.save(str(path))
        loaded = DeepNJpeg.load(str(path))
        assert loaded.config == config
        assert loaded.design.to_json() == fitted.design.to_json()

    def test_round_trip_bit_identical_streams(self, tmp_path, fitted, dataset):
        path = tmp_path / "artifact.json"
        fitted.save(str(path))
        loaded = DeepNJpeg.load(str(path))
        assert loaded.config == fitted.config
        np.testing.assert_array_equal(
            loaded.table.values, fitted.table.values
        )
        for image in dataset.images[:3]:
            assert (
                loaded.encode_to_bytes(image) == fitted.encode_to_bytes(image)
            )

    def test_loaded_pipeline_compresses_dataset_identically(
        self, tmp_path, fitted, dataset
    ):
        path = tmp_path / "artifact.json"
        fitted.save(str(path))
        loaded = DeepNJpeg.load(str(path))
        original = fitted.compress_dataset(dataset)
        reloaded = loaded.compress_dataset(dataset)
        assert reloaded.payload_bytes == original.payload_bytes
        assert reloaded.header_bytes == original.header_bytes
        np.testing.assert_array_equal(
            reloaded.dataset.images, original.dataset.images
        )
