"""Hot-path checks of the NN training and inference stack.

Runs the hot paths of the pure-NumPy network stack once at the tiny
experiment scale (the configuration the paper-shape checks train at):
one training epoch through ``Trainer.fit``, a ten-epoch run, a single
conv layer's forward and forward+backward, and inference-only
``predict``, in both the float32 mode and the float64 reference mode.
Timing lives in ``perfbench/run.py``.
"""

import numpy as np
import pytest

from repro.data.synthetic import FreqNetConfig, generate_freqnet
from repro.data.transforms import prepare_for_network
from repro.nn import models
from repro.nn.conv import Conv2D
from repro.nn.optim import Adam
from repro.nn.trainer import Trainer


@pytest.fixture(scope="module")
def tiny_dataset():
    """FreqNet at the ``ExperimentConfig.tiny`` scale (128 images, 32x32)."""
    return generate_freqnet(
        FreqNetConfig(images_per_class=16, image_size=32, seed=7)
    )


def _trainer(dataset, dtype):
    model = models.build_model(
        "AlexNet",
        num_classes=dataset.num_classes,
        input_shape=(1, 32, 32),
        seed=0,
        dtype=dtype,
    )
    trainer = Trainer(model, optimizer=Adam(0.002), batch_size=32, seed=0)
    images = prepare_for_network(dataset.images, dtype=dtype)
    return trainer, images, dataset.labels


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_fit_epoch(tiny_dataset, dtype):
    """One full training epoch of AlexNet-mini on the tiny config."""
    trainer, images, labels = _trainer(tiny_dataset, dtype)
    history = trainer.fit(images, labels, epochs=1)
    assert len(history.train_loss) == 1
    assert np.isfinite(history.train_loss[-1])


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_predict(tiny_dataset, dtype):
    """Inference-only classification of the whole tiny dataset."""
    trainer, images, labels = _trainer(tiny_dataset, dtype)
    predictions = trainer.model.predict(images)
    assert predictions.shape == labels.shape


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_conv_forward(dtype):
    """Forward pass of a mid-network convolution (batch 32)."""
    rng = np.random.default_rng(0)
    layer = Conv2D(12, 24, 3, padding=1, rng=np.random.default_rng(1),
                   dtype=dtype)
    inputs = rng.normal(size=(32, 12, 16, 16)).astype(dtype)
    outputs = layer.forward(inputs, training=True)
    assert outputs.shape == (32, 24, 16, 16)
    assert outputs.dtype == np.dtype(dtype)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_conv_forward_backward(dtype):
    """Forward plus backward of the same convolution."""
    rng = np.random.default_rng(0)
    layer = Conv2D(12, 24, 3, padding=1, rng=np.random.default_rng(1),
                   dtype=dtype)
    inputs = rng.normal(size=(32, 12, 16, 16)).astype(dtype)
    grad = np.ones((32, 24, 16, 16), dtype=dtype)
    layer.forward(inputs, training=True)
    grad_input = layer.backward(grad)
    assert grad_input.shape == inputs.shape


def test_fit_full_run(tiny_dataset):
    """Ten-epoch tiny-config training, the paper-shape checks' scale."""
    trainer, images, labels = _trainer(tiny_dataset, "float32")
    history = trainer.fit(images, labels, epochs=10)
    assert len(history.train_loss) == 10
