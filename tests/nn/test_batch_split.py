"""Conv2D and BatchNorm2D give the same bytes split or whole.

Inside a training fit both layers run their per-sample work through
:func:`repro.runtime.blas.split_batch`.  Here the split width is forced
to 2 and the grain to 0, so every kernel splits even on a 1-CPU runner,
and each output, input gradient and parameter gradient must be
byte-equal to the unsplit path.  An inference forward caches nothing
for a backward pass, so there only the outputs (and batch norm's
running statistics) are compared, and the backward must raise.
"""

import threading
from contextlib import nullcontext

import numpy as np
import pytest

from repro.nn import models, trainer
from repro.nn.base import Layer, Sequential
from repro.nn.conv import Conv2D
from repro.nn.dense import Dense, Flatten
from repro.nn.norm import BatchNorm2D
from repro.nn.optim import Adam
from repro.nn.trainer import Trainer
from repro.runtime import blas

DTYPES = ["float32", "float64"]

#: (batch, channels, height, width, out_channels, kernel, stride, pad)
CONV_GEOMETRIES = [
    (7, 2, 8, 8, 3, 3, 1, 1),     # odd batch
    (1, 2, 8, 8, 3, 3, 1, 1),     # batch smaller than the width
    (7, 1, 8, 8, 2, 3, 1, 1),     # one input channel
    (7, 2, 9, 9, 3, 3, 2, 1),     # stride 2
    (7, 2, 6, 6, 3, 1, 1, 0),     # 1x1, stride 1
    (7, 2, 7, 7, 3, 1, 2, 0),     # 1x1, stride 2
    (7, 2, 8, 8, 2, 5, 1, 2),     # 5x5, pad 2
    (7, 2, 8, 8, 3, 2, 2, 0),     # 2x2 stride 2: col2im's tiled path
    (7, 1, 9, 9, 2, 2, 2, 0),     # tiled, with an untouched last row
]

#: (batch, channels, height, width)
NORM_SHAPES = [(7, 2, 5, 5), (7, 1, 4, 4), (1, 2, 4, 4)]


def _assert_same_bytes(got, want):
    for left, right in zip(got, want, strict=True):
        assert left.dtype == right.dtype
        assert left.shape == right.shape
        assert np.ascontiguousarray(left).tobytes() == (
            np.ascontiguousarray(right).tobytes()
        )


def _run_conv(geometry, dtype, split, params_only=False, training=True):
    batch, channels, height, width, out_channels, kernel, stride, pad = geometry
    conv = Conv2D(
        channels, out_channels, kernel, stride=stride, padding=pad,
        rng=np.random.default_rng(3), dtype=dtype,
    )
    rng = np.random.default_rng(4)
    inputs = rng.standard_normal((batch, channels, height, width)).astype(dtype)
    with blas.split_pool() if split else nullcontext():
        outputs = conv.forward(inputs, training=training)
        grad = rng.standard_normal(outputs.shape).astype(dtype)
        if not training:
            with pytest.raises(RuntimeError, match="training forward"):
                conv.backward(grad)
            return [outputs]
        if params_only:
            results = [outputs]
            conv.backward_params_only(grad)
        else:
            results = [outputs, conv.backward(grad)]
    return results + [conv.weight.grad, conv.bias.grad]


def _run_norm(shape, dtype, split, training=True):
    norm = BatchNorm2D(shape[1], dtype=dtype)
    rng = np.random.default_rng(5)
    norm.gamma.value[...] = rng.uniform(0.5, 1.5, shape[1])
    norm.beta.value[...] = rng.standard_normal(shape[1])
    results = []
    with blas.split_pool() if split else nullcontext():
        for _ in range(2):  # the second pass normalises by running stats
            inputs = rng.standard_normal(shape).astype(dtype)
            outputs = norm.forward(inputs, training=training)
            grad = rng.standard_normal(shape).astype(dtype)
            if training:
                results += [outputs, norm.backward(grad)]
                continue
            results.append(outputs)
            with pytest.raises(RuntimeError, match="training forward"):
                norm.backward(grad)
    if not training:
        return results + [norm.running_mean, norm.running_var]
    return results + [
        norm.gamma.grad, norm.beta.grad, norm.running_mean, norm.running_var,
    ]


@pytest.mark.usefixtures("two_wide")
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("geometry", CONV_GEOMETRIES, ids=str)
class TestConvSplit:
    def test_forward_and_backward(self, geometry, dtype):
        _assert_same_bytes(
            _run_conv(geometry, dtype, split=True),
            _run_conv(geometry, dtype, split=False),
        )

    def test_backward_params_only(self, geometry, dtype):
        _assert_same_bytes(
            _run_conv(geometry, dtype, split=True, params_only=True),
            _run_conv(geometry, dtype, split=False, params_only=True),
        )

    def test_backward_after_an_inference_forward(self, geometry, dtype):
        _assert_same_bytes(
            _run_conv(geometry, dtype, split=True, training=False),
            _run_conv(geometry, dtype, split=False, training=False),
        )


@pytest.mark.usefixtures("two_wide")
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", NORM_SHAPES, ids=str)
@pytest.mark.parametrize("training", [True, False])
def test_batch_norm_split(shape, dtype, training):
    _assert_same_bytes(
        _run_norm(shape, dtype, split=True, training=training),
        _run_norm(shape, dtype, split=False, training=training),
    )


def _fit_weights(monkeypatch, width):
    monkeypatch.setattr(blas, "split_width", lambda: width)
    monkeypatch.setattr(blas, "SPLIT_GRAIN", 0)
    model = models.resnet50_mini(
        num_classes=3, input_shape=(1, 12, 12), seed=1
    )
    rng = np.random.default_rng(6)
    images = rng.standard_normal((23, 1, 12, 12)).astype(np.float32)
    labels = rng.integers(0, 3, 23)
    history = Trainer(
        model, optimizer=Adam(0.01), batch_size=8, seed=2
    ).fit(images, labels, epochs=2)
    return history, [parameter.value for parameter in model.parameters()]


def test_a_split_fit_ends_with_the_same_weights(monkeypatch):
    """Two epochs of ResNet-50 (mini), batches of 8, 8 and 7."""
    whole_history, whole = _fit_weights(monkeypatch, width=1)
    split_history, split = _fit_weights(monkeypatch, width=2)
    _assert_same_bytes(split, whole)
    assert split_history.train_loss == whole_history.train_loss


class _Boom(Layer):
    def forward(self, inputs, training=False):
        raise RuntimeError("boom")


@pytest.mark.usefixtures("two_wide", "two_blas_threads")
class TestFitLifetime:
    """fit leaves no helper thread and the BLAS count as it found them."""

    @staticmethod
    def _fit(layers):
        rng = np.random.default_rng(7)
        trainer_ = Trainer(
            Sequential(layers), optimizer=Adam(0.01), batch_size=4
        )
        return trainer_.fit(
            rng.standard_normal((6, 1, 6, 6)), np.zeros(6, dtype=int),
            epochs=1,
        )

    @staticmethod
    def _conv():
        return Conv2D(1, 2, 3, padding=1, rng=np.random.default_rng(8))

    def test_after_fit_returns(self):
        threads, count = blas.get_threads(), threading.active_count()
        alive = set(threading.enumerate())
        self._fit([
            self._conv(), Flatten(),
            Dense(72, 2, rng=np.random.default_rng(9)),
        ])
        assert set(threading.enumerate()) <= alive
        assert threading.active_count() <= count
        assert blas.get_threads() == threads

    def test_after_fit_raises(self):
        threads, count = blas.get_threads(), threading.active_count()
        alive = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="boom"):
            self._fit([self._conv(), _Boom()])
        assert set(threading.enumerate()) <= alive
        assert threading.active_count() <= count
        assert blas.get_threads() == threads
        assert blas._split is None


def test_fit_on_zero_images_raises_before_the_pool_starts(monkeypatch):
    def no_pool():
        raise AssertionError("the split pool started")

    monkeypatch.setattr(trainer, "split_pool", no_pool)
    model = Sequential([Conv2D(1, 2, 3, rng=np.random.default_rng(0))])
    fit = Trainer(model, seed=0)
    state = fit._rng.bit_generator.state
    with pytest.raises(ValueError, match="empty dataset"):
        fit.fit(np.zeros((0, 1, 6, 6)), np.zeros(0, dtype=int), epochs=2)
    assert fit._rng.bit_generator.state == state
