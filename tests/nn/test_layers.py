"""Tests for convolution, dense and activation layers."""

import numpy as np
import pytest

from repro.nn.activations import ReLU
from repro.nn.base import Sequential
from repro.nn.conv import Conv2D
from repro.nn.dense import Dense, Flatten
from tests.nn.gradient_check import check_layer_gradients


class TestConv2D:
    def test_output_shape(self, rng):
        layer = Conv2D(3, 5, 3, stride=1, padding=1, rng=rng)
        outputs = layer.forward(rng.normal(size=(2, 3, 8, 8)))
        assert outputs.shape == (2, 5, 8, 8)

    def test_stride_reduces_spatial_size(self, rng):
        layer = Conv2D(1, 2, 3, stride=2, padding=1, rng=rng)
        outputs = layer.forward(rng.normal(size=(1, 1, 8, 8)))
        assert outputs.shape == (1, 2, 4, 4)

    def test_identity_kernel_passthrough(self):
        layer = Conv2D(1, 1, 1, rng=np.random.default_rng(0))
        layer.weight.value[...] = 1.0
        layer.bias.value[...] = 0.0
        inputs = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        np.testing.assert_allclose(layer.forward(inputs), inputs)

    def test_bias_added_per_channel(self, rng):
        layer = Conv2D(1, 2, 1, rng=rng)
        layer.weight.value[...] = 0.0
        layer.bias.value[:] = [3.0, -1.0]
        outputs = layer.forward(np.zeros((1, 1, 4, 4)))
        np.testing.assert_allclose(outputs[0, 0], 3.0)
        np.testing.assert_allclose(outputs[0, 1], -1.0)

    def test_matches_manual_convolution(self, rng):
        layer = Conv2D(1, 1, 3, padding=0, rng=rng)
        inputs = rng.normal(size=(1, 1, 5, 5))
        outputs = layer.forward(inputs)
        kernel = layer.weight.value[0, 0]
        expected = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                expected[i, j] = np.sum(
                    inputs[0, 0, i:i + 3, j:j + 3] * kernel
                ) + layer.bias.value[0]
        np.testing.assert_allclose(outputs[0, 0], expected)

    def test_gradients(self, rng):
        model = Sequential([
            Conv2D(2, 3, 3, padding=1, rng=np.random.default_rng(1)),
            Flatten(),
            Dense(3 * 6 * 6, 4, rng=np.random.default_rng(2)),
        ])
        inputs = rng.normal(size=(3, 2, 6, 6))
        labels = np.array([0, 1, 3])
        check_layer_gradients(model, inputs, labels)

    def test_rejects_wrong_channel_count(self, rng):
        layer = Conv2D(3, 4, 3, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(rng.normal(size=(1, 2, 8, 8)))

    def test_rejects_invalid_construction(self):
        with pytest.raises(ValueError):
            Conv2D(0, 4, 3)
        with pytest.raises(ValueError):
            Conv2D(1, 4, 3, stride=0)

    def test_backward_before_forward_raises(self, rng):
        layer = Conv2D(1, 1, 3, rng=rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 1, 6, 6)))

    def test_parameter_count(self, rng):
        layer = Conv2D(3, 8, 5, rng=rng)
        assert layer.parameter_count() == 3 * 8 * 25 + 8


class TestDense:
    def test_output_shape(self, rng):
        layer = Dense(10, 4, rng=rng)
        assert layer.forward(rng.normal(size=(7, 10))).shape == (7, 4)

    def test_linear_map(self):
        layer = Dense(2, 2, rng=np.random.default_rng(0))
        layer.weight.value[...] = np.array([[1.0, 2.0], [3.0, 4.0]])
        layer.bias.value[:] = [1.0, -1.0]
        outputs = layer.forward(np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(outputs, [[5.0, 5.0]])

    def test_gradients(self, rng):
        model = Sequential([Dense(6, 5, rng=np.random.default_rng(3)),
                            Dense(5, 3, rng=np.random.default_rng(4))])
        inputs = rng.normal(size=(4, 6))
        labels = np.array([0, 2, 1, 2])
        check_layer_gradients(model, inputs, labels)

    def test_rejects_wrong_feature_count(self, rng):
        layer = Dense(8, 2, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(rng.normal(size=(4, 9)))


class TestFlatten:
    def test_flatten_and_restore(self, rng):
        layer = Flatten()
        inputs = rng.normal(size=(2, 3, 4, 5))
        flattened = layer.forward(inputs, training=True)
        assert flattened.shape == (2, 60)
        restored = layer.backward(flattened)
        assert restored.shape == inputs.shape


class TestActivations:
    def test_relu_forward(self):
        layer = ReLU()
        np.testing.assert_allclose(
            layer.forward(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0]
        )

    def test_relu_backward_masks_gradient(self):
        layer = ReLU()
        layer.forward(np.array([-1.0, 3.0]), training=True)
        np.testing.assert_allclose(
            layer.backward(np.array([10.0, 10.0])), [0.0, 10.0]
        )

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            ReLU().backward(np.zeros(3))


class TestSequential:
    def test_forward_applies_in_order(self):
        model = Sequential([ReLU(), ReLU()])
        inputs = np.array([[-1.0, 2.0]])
        np.testing.assert_allclose(model.forward(inputs), [[0.0, 2.0]])

    def test_parameters_aggregated(self, rng):
        model = Sequential([Dense(4, 3, rng=rng), Dense(3, 2, rng=rng)])
        assert len(model.parameters()) == 4

    def test_predict_returns_class_indices(self, rng):
        model = Sequential([Dense(5, 3, rng=rng)])
        predictions = model.predict(rng.normal(size=(10, 5)))
        assert predictions.shape == (10,)
        assert predictions.min() >= 0
        assert predictions.max() < 3

    def test_predict_proba_rows_sum_to_one(self, rng):
        model = Sequential([Dense(5, 3, rng=rng)])
        probabilities = model.predict_proba(rng.normal(size=(6, 5)))
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0)
