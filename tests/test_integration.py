"""End-to-end integration tests across the whole framework."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import DeepNJpeg, DeepNJpegConfig, generate_freqnet
from repro.core.baselines import JpegCompressor
from repro.data import FreqNetConfig, prepare_for_network, train_test_split
from repro.nn import Adam, Trainer, models


class TestPublicApi:
    def test_top_level_exports(self):
        import repro

        assert repro.__version__
        assert callable(repro.generate_freqnet)
        assert repro.DeepNJpeg is DeepNJpeg

    def test_quickstart_path(self, small_freqnet):
        """The README quickstart: fit, compress, inspect the ratio."""
        deepn = DeepNJpeg(DeepNJpegConfig(sampling_interval=2)).fit(small_freqnet)
        result = deepn.compress_dataset(small_freqnet)
        assert result.compression_ratio > 1.0
        assert np.isfinite(result.mean_psnr)


class TestEndToEndAccuracyPipeline:
    """The central claim at a micro scale: training and testing on
    DeepN-JPEG-compressed data matches the uncompressed pipeline while the
    compressed dataset is substantially smaller."""

    @pytest.fixture(scope="class")
    def pipeline_results(self):
        dataset = generate_freqnet(
            FreqNetConfig(images_per_class=14, image_size=32, seed=21)
        )
        train_set, test_set = train_test_split(dataset, 0.25, seed=1)
        deepn = DeepNJpeg(DeepNJpegConfig(sampling_interval=2)).fit(train_set)

        def train_and_eval(train_data, test_data):
            model = models.alexnet_mini(num_classes=dataset.num_classes, seed=0)
            trainer = Trainer(model, optimizer=Adam(0.002), batch_size=16, seed=0)
            trainer.fit(
                prepare_for_network(train_data.images), train_data.labels,
                epochs=12,
            )
            return trainer.evaluate(
                prepare_for_network(test_data.images), test_data.labels
            )

        original_train = JpegCompressor(100).compress_dataset(train_set)
        original_test = JpegCompressor(100).compress_dataset(test_set)
        deepn_train = deepn.compress_dataset(train_set)
        deepn_test = deepn.compress_dataset(test_set)
        return {
            "original_accuracy": train_and_eval(
                original_train.dataset, original_test.dataset
            ),
            "deepn_accuracy": train_and_eval(
                deepn_train.dataset, deepn_test.dataset
            ),
            "original_bytes": original_test.total_bytes,
            "deepn_bytes": deepn_test.total_bytes,
        }

    def test_original_pipeline_learns(self, pipeline_results):
        assert pipeline_results["original_accuracy"] >= 0.75

    def test_deepn_accuracy_close_to_original(self, pipeline_results):
        assert pipeline_results["deepn_accuracy"] >= (
            pipeline_results["original_accuracy"] - 0.13
        )

    def test_deepn_compresses_substantially(self, pipeline_results):
        assert pipeline_results["deepn_bytes"] < (
            0.65 * pipeline_results["original_bytes"]
        )


class TestModelsTrainOnFreqNet:
    @pytest.mark.parametrize("model_name", ["GoogLeNet", "ResNet-34"])
    def test_non_alexnet_families_learn_something(self, model_name, tiny_freqnet):
        train_set, test_set = train_test_split(tiny_freqnet, 0.25, seed=0)
        model = models.build_model(
            model_name, num_classes=tiny_freqnet.num_classes,
            input_shape=(1, 16, 16), seed=0,
        )
        trainer = Trainer(model, optimizer=Adam(0.003), batch_size=8, seed=0)
        history = trainer.fit(
            prepare_for_network(train_set.images), train_set.labels, epochs=3
        )
        assert history.train_loss[-1] < history.train_loss[0]


class TestEdgeExample:
    def test_leaves_nothing_in_the_temp_directory(self, tmp_path):
        """The saved artifact lives in a private directory the run removes."""
        root = Path(__file__).resolve().parents[1]
        temp = tmp_path / "tmp"
        temp.mkdir()
        env = dict(os.environ, TMPDIR=str(temp))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")])
        )
        child = subprocess.run(
            [sys.executable, str(root / "examples" / "edge_iot_pipeline.py")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert child.returncode == 0, child.stderr
        assert "fitted artifact: " in child.stdout
        assert list(temp.iterdir()) == []
