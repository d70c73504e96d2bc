"""Parity and determinism tests for the fast NN compute path.

Covers the dtype policy (float32 fast mode vs float64 reference mode),
the in-place optimizer updates (bit-for-bit against the original
allocating formulas in float64), the 2x2 max-pool tournament, and the
rule that a backward pass needs a training forward.
"""

import numpy as np
import pytest

from repro.experiments.common import (
    ExperimentConfig,
    make_splits,
    train_classifier,
)
from repro.nn import models
from repro.nn.activations import ReLU
from repro.nn.base import Parameter, Sequential
from repro.nn.blocks import ResidualBlock, _PaddedMaxPool
from repro.nn.conv import Conv2D
from repro.nn.dense import Dense, Flatten
from repro.nn.dtype import REFERENCE_DTYPE
from repro.nn.norm import BatchNorm2D
from repro.nn.optim import Adam
from repro.nn.pooling import GlobalAvgPool2D, MaxPool2D
from repro.nn.regularization import Dropout
from repro.nn.trainer import Trainer


# ----------------------------------------------------------------------
# Reference optimizers: the original allocating formulas, verbatim.
# ----------------------------------------------------------------------


def reference_adam_step(values, grads, state, lr, beta1, beta2, eps,
                        weight_decay):
    new_values = []
    for index, (value, grad) in enumerate(zip(values, grads)):
        if weight_decay:
            grad = grad + weight_decay * value
        slot = state.setdefault(
            index,
            {"step": 0, "m": np.zeros_like(value), "v": np.zeros_like(value)},
        )
        slot["step"] += 1
        slot["m"] = beta1 * slot["m"] + (1.0 - beta1) * grad
        slot["v"] = beta2 * slot["v"] + (1.0 - beta2) * grad * grad
        m_hat = slot["m"] / (1.0 - beta1 ** slot["step"])
        v_hat = slot["v"] / (1.0 - beta2 ** slot["step"])
        new_values.append(value - lr * m_hat / (np.sqrt(v_hat) + eps))
    return new_values


class TestOptimizerBitParity:
    """In-place updates must equal the old formulas bit for bit (float64)."""

    def _run_both(self, optimizer, reference_step, steps=7):
        rng = np.random.default_rng(11)
        shapes = [(4, 3), (8,), (2, 2, 3)]
        initial = [rng.normal(size=shape) for shape in shapes]
        parameters = [
            Parameter(value.copy(), name=f"p{i}")
            for i, value in enumerate(initial)
        ]
        reference_values = [value.copy() for value in initial]
        reference_state = {}
        for _ in range(steps):
            grads = [rng.normal(size=shape) for shape in shapes]
            for parameter, grad in zip(parameters, grads):
                parameter.zero_grad()
                parameter.grad += grad
            optimizer.step(parameters)
            reference_values = reference_step(reference_values, grads,
                                              reference_state)
        for parameter, expected in zip(parameters, reference_values):
            np.testing.assert_array_equal(parameter.value, expected)

    def test_adam(self):
        self._run_both(
            Adam(learning_rate=0.002),
            lambda v, g, s: reference_adam_step(
                v, g, s, 0.002, 0.9, 0.999, 1e-8, 0.0
            ),
        )

    def test_adam_weight_decay(self):
        self._run_both(
            Adam(learning_rate=0.002, weight_decay=1e-2),
            lambda v, g, s: reference_adam_step(
                v, g, s, 0.002, 0.9, 0.999, 1e-8, 1e-2
            ),
        )


class TestOptimizerState:
    def test_state_keyed_by_name(self):
        optimizer = Adam(learning_rate=0.1)
        parameter = Parameter(np.zeros(3), name="layer.weight")
        parameter.grad += 1.0
        optimizer.step([parameter])
        assert "layer.weight" in optimizer._state

    def test_state_readable_by_layer_name(self):
        """The state mapping is keyed by layer names (checkpoint-style)."""
        optimizer = Adam(learning_rate=0.1)
        parameter = Parameter(np.zeros(2), name="fc.weight")
        parameter.grad += 1.0
        optimizer.step([parameter])
        moments = optimizer._state["fc.weight"]
        assert np.any(moments["m"] != 0.0)

    def test_identically_named_parameters_do_not_share_state(self):
        optimizer = Adam(learning_rate=0.1)
        first = Parameter(np.zeros(2))
        second = Parameter(np.zeros(2))
        for _ in range(3):
            first.zero_grad()
            second.zero_grad()
            first.grad += 1.0
            second.grad -= 1.0
            optimizer.step([first, second])
        # Symmetric gradients must produce symmetric trajectories, which
        # only holds if each parameter has its own moment estimates.
        np.testing.assert_array_equal(first.value, -second.value)

    def test_no_per_step_allocations_reuse_scratch(self):
        optimizer = Adam(learning_rate=0.01, weight_decay=1e-3)
        parameter = Parameter(np.ones(16), name="w")
        parameter.grad += 0.5
        optimizer.step([parameter])
        buffers = {id(buffer) for buffer in optimizer._scratch.values()}
        parameter.zero_grad()
        parameter.grad += 0.25
        optimizer.step([parameter])
        assert buffers == {
            id(buffer) for buffer in optimizer._scratch.values()
        }


class TestDtypePolicy:
    def test_default_model_is_float32(self):
        model = models.build_model("AlexNet", num_classes=4)
        assert model.dtype == np.float32
        assert all(p.value.dtype == np.float32 for p in model.parameters())

    def test_float64_reference_mode(self):
        model = models.build_model("AlexNet", num_classes=4, dtype="float64")
        assert model.dtype == np.float64

    def test_same_seed_same_weights_across_dtypes(self):
        fast = models.build_model("VGG-16", num_classes=4, seed=3)
        reference = models.build_model(
            "VGG-16", num_classes=4, seed=3, dtype="float64"
        )
        for p32, p64 in zip(fast.parameters(), reference.parameters()):
            np.testing.assert_array_equal(
                p32.value, p64.value.astype(np.float32)
            )

    def test_forward_output_dtype_follows_model(self, rng):
        inputs = rng.normal(size=(2, 1, 32, 32))
        for dtype in ("float32", "float64"):
            model = models.build_model("AlexNet", num_classes=4, dtype=dtype)
            logits = model.forward(inputs, training=False)
            assert logits.dtype == np.dtype(dtype)

    def test_rejects_unsupported_dtype(self):
        with pytest.raises(ValueError):
            models.build_model("AlexNet", num_classes=4, dtype="float16")

    def test_trainer_infers_model_dtype(self):
        model = models.build_model("AlexNet", num_classes=4)
        assert Trainer(model, Adam()).dtype == np.float32

    def test_dtype_skips_leading_layers_without_parameters(self):
        class NoParametersPlease(ReLU):
            def parameters(self):
                raise AssertionError("read past the first parameter")

        model = Sequential([
            ReLU(), Flatten(), Dense(4, 2, dtype="float32"),
            NoParametersPlease(),
        ])
        # The first parameter decides; later layers are never asked.
        assert model.dtype == np.float32

    def test_empty_model_reports_the_reference_dtype(self):
        assert Sequential().dtype == REFERENCE_DTYPE
        assert Sequential([ReLU(), Flatten()]).dtype == REFERENCE_DTYPE


class TestTrainingDeterminismAcrossDtypes:
    """Fast float32 training is deterministic and agrees with float64."""

    @pytest.fixture(scope="class")
    def tiny_runs(self):
        config = ExperimentConfig.tiny()
        train, test = make_splits(config)
        accuracies = {}
        for dtype in ("float32", "float64"):
            run_config = config.with_overrides(compute_dtype=dtype)
            classifier = train_classifier(train, run_config)
            accuracies[dtype] = classifier.accuracy_on(test)
        return train, test, accuracies

    def test_float32_training_is_deterministic(self):
        config = ExperimentConfig.tiny().with_overrides(epochs=3)
        train, test = make_splits(config)
        first = train_classifier(train, config)
        second = train_classifier(train, config)
        for p1, p2 in zip(first.model.parameters(), second.model.parameters()):
            np.testing.assert_array_equal(p1.value, p2.value)
        assert first.accuracy_on(test) == second.accuracy_on(test)

    def test_dtypes_agree_on_tiny_config(self, tiny_runs):
        _, _, accuracies = tiny_runs
        assert accuracies["float32"] == pytest.approx(
            accuracies["float64"], abs=0.1
        )

    def test_both_dtypes_learn(self, tiny_runs):
        _, _, accuracies = tiny_runs
        chance = 1.0 / 8.0
        assert accuracies["float32"] > 2 * chance
        assert accuracies["float64"] > 2 * chance


def _window_oracle(inputs):
    """``(N, C, oh, ow, 4)`` windows, in row-major window order."""
    batch, channels, height, width = inputs.shape
    out_h, out_w = height // 2, width // 2
    return (
        inputs[:, :, :2 * out_h, :2 * out_w]
        .reshape(batch, channels, out_h, 2, out_w, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(batch, channels, out_h, out_w, 4)
    )


def _oracle_backward(inputs, grad):
    """Scatter ``grad`` back to each window's first maximum."""
    argmax = _window_oracle(inputs).argmax(axis=4)
    batch, channels, out_h, out_w = grad.shape
    windows = np.zeros((batch, channels, out_h, out_w, 4), dtype=grad.dtype)
    np.put_along_axis(windows, argmax[..., None], grad[..., None], axis=4)
    result = np.zeros(inputs.shape, dtype=grad.dtype)
    result[:, :, :2 * out_h, :2 * out_w] = (
        windows.reshape(batch, channels, out_h, out_w, 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(batch, channels, 2 * out_h, 2 * out_w)
    )
    return result


class TestMaxPoolFastPath:
    """The tournament against a reshape-and-reduce oracle."""

    @pytest.mark.parametrize("shape", [(2, 3, 8, 8), (1, 2, 7, 9), (3, 1, 2, 2)])
    def test_tournament_matches_generic_forward(self, shape, rng):
        inputs = rng.normal(size=shape)
        expected = _window_oracle(inputs).max(axis=4)
        for training in (False, True):
            np.testing.assert_array_equal(
                MaxPool2D().forward(inputs, training=training), expected
            )

    def test_tournament_matches_generic_on_ties(self):
        inputs = np.zeros((2, 2, 4, 4))  # every window is a 4-way tie
        grad = np.ones((2, 2, 2, 2))
        layer = MaxPool2D()
        np.testing.assert_array_equal(
            layer.forward(inputs, training=True),
            _window_oracle(inputs).max(axis=4),
        )
        np.testing.assert_array_equal(
            layer.backward(grad), _oracle_backward(inputs, grad)
        )

    @pytest.mark.parametrize("shape", [(2, 3, 8, 8), (1, 2, 7, 9)])
    def test_tournament_matches_generic_backward(self, shape, rng):
        inputs = rng.normal(size=shape)
        layer = MaxPool2D()
        layer.forward(inputs, training=True)
        out_h, out_w = shape[2] // 2, shape[3] // 2
        grad = rng.normal(size=(shape[0], shape[1], out_h, out_w))
        np.testing.assert_array_equal(
            layer.backward(grad), _oracle_backward(inputs, grad)
        )

    def test_float32_output_dtype(self, rng):
        inputs = rng.normal(size=(2, 2, 4, 4)).astype(np.float32)
        layer = MaxPool2D()
        assert layer.forward(inputs, training=True).dtype == np.float32
        grad = np.ones((2, 2, 2, 2), dtype=np.float32)
        assert layer.backward(grad).dtype == np.float32


class TestInferenceCaching:
    def test_conv_does_not_cache_patches_in_inference(self, rng):
        layer = Conv2D(2, 3, 3, padding=1, rng=np.random.default_rng(0))
        layer.forward(rng.normal(size=(2, 2, 6, 6)), training=True)
        _, patches = layer._cache
        assert patches is not None
        layer.forward(rng.normal(size=(2, 2, 6, 6)), training=False)
        assert layer._cache is None

    def test_backward_after_inference_forward(self, rng):
        """An inference forward, then a full backward, raises."""
        inputs = rng.normal(size=(2, 1, 8, 8))
        model = Sequential([
            Conv2D(1, 2, 3, padding=1, rng=np.random.default_rng(1)),
            MaxPool2D(),
            Flatten(),
            Dense(2 * 4 * 4, 3, rng=np.random.default_rng(2)),
        ])
        grad_logits = rng.normal(size=(2, 3))
        model.forward(inputs, training=True)
        model.backward(grad_logits)
        model.forward(inputs, training=False)
        with pytest.raises(RuntimeError, match="training forward"):
            model.backward(grad_logits)

    def test_pointwise_conv_gradient_survives_next_step(self, rng):
        """1x1 conv input gradients must not alias the reused scratch."""
        layer = Conv2D(3, 2, 1, rng=np.random.default_rng(5))
        first_inputs = rng.normal(size=(2, 3, 4, 4))
        layer.forward(first_inputs, training=True)
        grad = layer.backward(np.ones((2, 2, 4, 4)))
        retained = grad.copy()
        layer.forward(rng.normal(size=(2, 3, 4, 4)), training=True)
        layer.backward(rng.normal(size=(2, 2, 4, 4)))
        np.testing.assert_array_equal(grad, retained)

    def test_trainer_skips_first_layer_input_gradient(self, rng):
        conv = Conv2D(1, 2, 3, padding=1, rng=np.random.default_rng(3))
        model = Sequential([conv, Flatten(), Dense(2 * 16, 2,
                                                   rng=np.random.default_rng(4))])
        inputs = rng.normal(size=(4, 1, 4, 4))
        logits = model.forward(inputs, training=True)
        result = model.backward(np.ones_like(logits), need_input_grad=False)
        assert result is None
        assert np.isfinite(conv.weight.grad).all()
        assert np.any(conv.weight.grad != 0.0)


#: Every layer that keeps backward state: a builder and an input shape.
_LAYERS = {
    "Conv2D": (
        lambda: Conv2D(2, 3, 3, padding=1, rng=np.random.default_rng(0)),
        (2, 2, 6, 6),
    ),
    "BatchNorm2D": (lambda: BatchNorm2D(2), (2, 2, 6, 6)),
    "MaxPool2D": (MaxPool2D, (2, 2, 6, 6)),
    "Dense": (
        lambda: Dense(12, 3, rng=np.random.default_rng(0)), (2, 12)
    ),
    "Flatten": (Flatten, (2, 2, 6, 6)),
    "ReLU": (ReLU, (2, 2, 6, 6)),
    "Dropout": (
        lambda: Dropout(0.5, rng=np.random.default_rng(0)), (2, 2, 6, 6)
    ),
    "GlobalAvgPool2D": (GlobalAvgPool2D, (2, 2, 6, 6)),
    "_PaddedMaxPool": (_PaddedMaxPool, (2, 2, 6, 6)),
    "ResidualBlock": (
        lambda: ResidualBlock(2, 2, rng=np.random.default_rng(0)),
        (2, 2, 6, 6),
    ),
}


def _model(name):
    return models.build_model(
        name, num_classes=3, input_shape=(1, 16, 16), seed=0
    )


def _assert_no_gradient_written(model):
    for parameter in model.parameters():
        assert not parameter.grad.any(), parameter.name


class TestBackwardNeedsTrainingForward:
    """Only a training forward leaves the state a backward pass reads."""

    @pytest.mark.parametrize("kind", list(_LAYERS))
    def test_layer_after_inference_forward(self, kind, rng):
        build, shape = _LAYERS[kind]
        layer = build()
        outputs = layer.forward(rng.normal(size=shape), training=False)
        with pytest.raises(RuntimeError, match="training forward"):
            layer.backward(np.ones_like(outputs))

    @pytest.mark.parametrize("kind", list(_LAYERS))
    def test_layer_after_train_then_inference_forward(self, kind, rng):
        # Same shape both times: the inference forward reuses the
        # convolution's patch scratch the training cache pointed at.
        build, shape = _LAYERS[kind]
        layer = build()
        layer.forward(rng.normal(size=shape), training=True)
        outputs = layer.forward(rng.normal(size=shape), training=False)
        with pytest.raises(RuntimeError, match="training forward"):
            layer.backward(np.ones_like(outputs))

    def test_dropout_at_rate_zero_passes_the_gradient_through(self, rng):
        layer = Dropout(0.0)
        inputs = rng.normal(size=(2, 5))
        assert layer.forward(inputs, training=True) is inputs
        grad = rng.normal(size=(2, 5))
        assert layer.backward(grad) is grad

    @pytest.mark.parametrize("name", sorted(models.MODEL_BUILDERS))
    def test_model_after_inference_forward(self, name, rng):
        model = _model(name)
        inputs = rng.normal(size=(2, 1, 16, 16))
        logits = model.forward(inputs, training=False)
        with pytest.raises(RuntimeError, match="training forward"):
            model.backward(np.ones_like(logits))
        _assert_no_gradient_written(model)

    @pytest.mark.parametrize("name", sorted(models.MODEL_BUILDERS))
    def test_model_after_train_then_inference_forward(self, name, rng):
        model = _model(name)
        inputs = rng.normal(size=(2, 1, 16, 16))
        model.forward(inputs, training=True)
        logits = model.forward(inputs, training=False)
        with pytest.raises(RuntimeError, match="training forward"):
            model.backward(np.ones_like(logits))
        _assert_no_gradient_written(model)
