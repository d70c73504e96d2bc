"""Tests for pooling layers."""

import numpy as np
import pytest

from repro.nn.base import Sequential
from repro.nn.dense import Dense, Flatten
from repro.nn.pooling import GlobalAvgPool2D, MaxPool2D
from tests.nn.gradient_check import check_layer_gradients


class TestMaxPool:
    def test_output_shape(self, rng):
        layer = MaxPool2D()
        assert layer.forward(rng.normal(size=(2, 3, 8, 8))).shape == (2, 3, 4, 4)

    def test_picks_maximum(self):
        inputs = np.zeros((1, 1, 4, 4))
        inputs[0, 0, 0, 1] = 5.0
        inputs[0, 0, 2, 2] = -3.0
        outputs = MaxPool2D().forward(inputs)
        assert outputs[0, 0, 0, 0] == 5.0
        assert outputs[0, 0, 1, 1] == 0.0

    def test_channels_independent(self):
        inputs = np.zeros((1, 2, 2, 2))
        inputs[0, 0] = 1.0
        inputs[0, 1] = 7.0
        outputs = MaxPool2D().forward(inputs)
        assert outputs[0, 0, 0, 0] == 1.0
        assert outputs[0, 1, 0, 0] == 7.0

    def test_backward_routes_gradient_to_argmax(self):
        inputs = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        layer = MaxPool2D()
        layer.forward(inputs, training=True)
        grad = layer.backward(np.array([[[[10.0]]]]))
        expected = np.zeros((1, 1, 2, 2))
        expected[0, 0, 1, 1] = 10.0
        np.testing.assert_allclose(grad, expected)

    def test_gradients(self, rng):
        model = Sequential([
            MaxPool2D(),
            Flatten(),
            Dense(2 * 3 * 3, 3, rng=np.random.default_rng(7)),
        ])
        inputs = rng.normal(size=(2, 2, 6, 6))
        check_layer_gradients(model, inputs, np.array([0, 2]))

    def test_invalid_pool_size(self):
        # The geometry is fixed at 2x2, stride 2: a pool size is refused.
        with pytest.raises(TypeError):
            MaxPool2D(0)
        with pytest.raises(TypeError):
            MaxPool2D(2)


class TestGlobalAvgPool:
    def test_reduces_to_channel_vector(self, rng):
        inputs = rng.normal(size=(4, 5, 7, 7))
        outputs = GlobalAvgPool2D().forward(inputs)
        assert outputs.shape == (4, 5)
        np.testing.assert_allclose(outputs, inputs.mean(axis=(2, 3)))

    def test_backward_shape(self, rng):
        layer = GlobalAvgPool2D()
        inputs = rng.normal(size=(2, 3, 4, 4))
        layer.forward(inputs, training=True)
        grad = layer.backward(np.ones((2, 3)))
        assert grad.shape == inputs.shape
        np.testing.assert_allclose(grad, 1.0 / 16.0)

    def test_rejects_non_nchw(self):
        with pytest.raises(ValueError):
            GlobalAvgPool2D().forward(np.zeros((3, 4)))

    def test_gradients(self, rng):
        model = Sequential([
            GlobalAvgPool2D(),
            Dense(3, 2, rng=np.random.default_rng(9)),
        ])
        inputs = rng.normal(size=(3, 3, 5, 5))
        check_layer_gradients(model, inputs, np.array([0, 1, 0]))
