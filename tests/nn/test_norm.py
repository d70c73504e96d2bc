"""Tests for batch normalisation."""

import numpy as np
import pytest

from repro.nn.base import Sequential
from repro.nn.dense import Dense
from repro.nn.norm import BatchNorm2D
from repro.nn.pooling import GlobalAvgPool2D
from tests.nn.gradient_check import check_layer_gradients


class TestBatchNorm2D:
    def test_training_output_is_normalised(self, rng):
        layer = BatchNorm2D(3)
        inputs = rng.normal(5.0, 3.0, size=(8, 3, 4, 4))
        outputs = layer.forward(inputs, training=True)
        np.testing.assert_allclose(outputs.mean(axis=(0, 2, 3)), 0.0, atol=1e-9)
        np.testing.assert_allclose(outputs.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_gamma_beta_rescale(self, rng):
        layer = BatchNorm2D(2)
        layer.gamma.value[:] = [2.0, 1.0]
        layer.beta.value[:] = [0.0, 5.0]
        inputs = rng.normal(size=(4, 2, 3, 3))
        outputs = layer.forward(inputs, training=True)
        np.testing.assert_allclose(outputs.mean(axis=(0, 2, 3)), [0.0, 5.0],
                                   atol=1e-9)
        np.testing.assert_allclose(outputs.std(axis=(0, 2, 3))[0], 2.0, atol=1e-3)

    def test_running_statistics_updated_only_in_training(self, rng):
        layer = BatchNorm2D(2, momentum=0.5)
        inputs = rng.normal(3.0, 2.0, size=(16, 2, 4, 4))
        layer.forward(inputs, training=False)
        np.testing.assert_allclose(layer.running_mean, 0.0)
        layer.forward(inputs, training=True)
        assert np.all(layer.running_mean > 0.5)

    def test_inference_uses_running_statistics(self, rng):
        layer = BatchNorm2D(1, momentum=0.0)
        train_inputs = rng.normal(10.0, 2.0, size=(32, 1, 4, 4))
        layer.forward(train_inputs, training=True)
        test_outputs = layer.forward(
            np.full((2, 1, 4, 4), 10.0), training=False
        )
        # A constant input equal to the running mean normalises to ~0.
        np.testing.assert_allclose(test_outputs, 0.0, atol=0.2)

    def test_training_gradients(self, rng):
        model = Sequential([
            BatchNorm2D(3),
            GlobalAvgPool2D(),
            Dense(3, 2, rng=np.random.default_rng(11)),
        ])
        inputs = rng.normal(size=(6, 3, 4, 4))
        check_layer_gradients(model, inputs, np.array([0, 1, 0, 1, 0, 1]))

    def test_rejects_invalid_arguments(self):
        with pytest.raises(ValueError):
            BatchNorm2D(0)
        with pytest.raises(ValueError):
            BatchNorm2D(3, momentum=1.5)

    def test_rejects_wrong_channel_count(self, rng):
        layer = BatchNorm2D(3)
        with pytest.raises(ValueError):
            layer.forward(rng.normal(size=(2, 4, 4, 4)))

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            BatchNorm2D(2).backward(np.zeros((1, 2, 2, 2)))
