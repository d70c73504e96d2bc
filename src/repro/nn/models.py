"""Model zoo: CPU-scale versions of the paper's evaluation architectures.

The paper evaluates DeepN-JPEG on AlexNet, VGG-16, GoogLeNet, ResNet-34
and ResNet-50 trained on ImageNet.  Training those on CPU is out of
reach, so this module provides *mini* variants that keep each family's
defining structure — plain deep convolution stacks with large dense heads
(AlexNet/VGG), inception modules (GoogLeNet), and residual blocks with
identity shortcuts (ResNet) — at a scale that trains in seconds on the
synthetic frequency-structured dataset of :mod:`repro.data`.

Every builder takes ``num_classes``, ``input_shape`` (CHW), a ``seed``
so experiments are reproducible, and a ``dtype`` selecting the compute
dtype of the whole stack (default
:data:`~repro.nn.dtype.DEFAULT_DTYPE`, float32; pass ``"float64"`` for
the bit-exact reference mode), and returns a
:class:`~repro.nn.base.Sequential` model.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import ReLU
from repro.nn.base import Sequential
from repro.nn.blocks import InceptionBlock, ResidualBlock
from repro.nn.conv import Conv2D
from repro.nn.dense import Dense, Flatten
from repro.nn.dtype import DEFAULT_DTYPE, resolve_dtype
from repro.nn.norm import BatchNorm2D
from repro.nn.pooling import GlobalAvgPool2D, MaxPool2D
from repro.nn.regularization import Dropout


def _spatial_after(input_size: int, reductions: int) -> int:
    """Spatial size after ``reductions`` stride-2 halvings."""
    size = input_size
    for _ in range(reductions):
        size //= 2
    if size < 1:
        raise ValueError(
            f"input size {input_size} too small for {reductions} poolings"
        )
    return size


def alexnet_mini(
    num_classes: int = 8,
    input_shape: tuple = (1, 32, 32),
    seed: int = 0,
    base_channels: int = 12,
    dtype=None,
) -> Sequential:
    """A small AlexNet-style network: conv/pool stack plus dense head."""
    channels, height, width = input_shape
    rng = np.random.default_rng(seed)
    dtype = resolve_dtype(dtype, default=DEFAULT_DTYPE)
    final_h = _spatial_after(height, 3)
    final_w = _spatial_after(width, 3)
    widest = base_channels * 2
    return Sequential(
        [
            Conv2D(channels, base_channels, 5, padding=2, rng=rng, name="conv1",
                   dtype=dtype),
            ReLU(),
            MaxPool2D(),
            Conv2D(base_channels, widest, 3, padding=1, rng=rng, name="conv2",
                   dtype=dtype),
            ReLU(),
            MaxPool2D(),
            Conv2D(widest, widest, 3, padding=1, rng=rng, name="conv3",
                   dtype=dtype),
            ReLU(),
            MaxPool2D(),
            Flatten(),
            Dense(widest * final_h * final_w, 96, rng=rng, name="fc1",
                  dtype=dtype),
            ReLU(),
            Dropout(0.3, rng=rng),
            Dense(96, num_classes, rng=rng, name="fc2", dtype=dtype),
        ],
        name="alexnet_mini",
    )


def vgg_mini(
    num_classes: int = 8,
    input_shape: tuple = (1, 32, 32),
    seed: int = 0,
    base_channels: int = 10,
    dtype=None,
) -> Sequential:
    """A small VGG-style network: stacked 3x3 convolutions in stages."""
    channels, height, width = input_shape
    rng = np.random.default_rng(seed)
    dtype = resolve_dtype(dtype, default=DEFAULT_DTYPE)
    final_h = _spatial_after(height, 3)
    final_w = _spatial_after(width, 3)
    c1, c2, c3 = base_channels, base_channels * 2, base_channels * 2
    return Sequential(
        [
            Conv2D(channels, c1, 3, padding=1, rng=rng, name="conv1_1",
                   dtype=dtype),
            ReLU(),
            Conv2D(c1, c1, 3, padding=1, rng=rng, name="conv1_2", dtype=dtype),
            ReLU(),
            MaxPool2D(),
            Conv2D(c1, c2, 3, padding=1, rng=rng, name="conv2_1", dtype=dtype),
            ReLU(),
            Conv2D(c2, c2, 3, padding=1, rng=rng, name="conv2_2", dtype=dtype),
            ReLU(),
            MaxPool2D(),
            Conv2D(c2, c3, 3, padding=1, rng=rng, name="conv3_1", dtype=dtype),
            ReLU(),
            MaxPool2D(),
            Flatten(),
            Dense(c3 * final_h * final_w, 96, rng=rng, name="fc1", dtype=dtype),
            ReLU(),
            Dropout(0.3, rng=rng),
            Dense(96, num_classes, rng=rng, name="fc2", dtype=dtype),
        ],
        name="vgg_mini",
    )


def resnet_mini(
    num_classes: int = 8,
    input_shape: tuple = (1, 32, 32),
    seed: int = 0,
    blocks_per_stage: tuple = (1, 1),
    base_channels: int = 12,
    dtype=None,
) -> Sequential:
    """A small ResNet-style network built from residual basic blocks.

    ``blocks_per_stage`` controls depth: ``(1, 1)`` stands in for
    ResNet-34 and ``(2, 2)`` for ResNet-50 in the generality experiment.
    """
    channels, _, _ = input_shape
    rng = np.random.default_rng(seed)
    dtype = resolve_dtype(dtype, default=DEFAULT_DTYPE)
    layers = [
        Conv2D(channels, base_channels, 3, padding=1, rng=rng, name="stem",
               dtype=dtype),
        BatchNorm2D(base_channels, name="stem_bn", dtype=dtype),
        ReLU(),
    ]
    in_channels = base_channels
    for stage_index, block_count in enumerate(blocks_per_stage):
        out_channels = base_channels * (2 ** stage_index)
        for block_index in range(block_count):
            stride = 2 if (block_index == 0 and stage_index > 0) else 1
            layers.append(
                ResidualBlock(
                    in_channels,
                    out_channels,
                    stride=stride,
                    rng=rng,
                    name=f"stage{stage_index}_block{block_index}",
                    dtype=dtype,
                )
            )
            in_channels = out_channels
    layers.extend(
        [
            GlobalAvgPool2D(),
            Dense(in_channels, num_classes, rng=rng, name="fc", dtype=dtype),
        ]
    )
    return Sequential(layers, name=f"resnet_mini_{sum(blocks_per_stage) * 2 + 2}")


def resnet34_mini(
    num_classes: int = 8, input_shape: tuple = (1, 32, 32), seed: int = 0,
    dtype=None,
) -> Sequential:
    """Shallow residual stand-in for ResNet-34 in Fig. 8."""
    return resnet_mini(
        num_classes, input_shape, seed=seed, blocks_per_stage=(1, 1),
        dtype=dtype,
    )


def resnet50_mini(
    num_classes: int = 8, input_shape: tuple = (1, 32, 32), seed: int = 0,
    dtype=None,
) -> Sequential:
    """Deeper residual stand-in for ResNet-50 in Fig. 8."""
    return resnet_mini(
        num_classes, input_shape, seed=seed, blocks_per_stage=(2, 2),
        dtype=dtype,
    )


def googlenet_mini(
    num_classes: int = 8,
    input_shape: tuple = (1, 32, 32),
    seed: int = 0,
    base_channels: int = 12,
    dtype=None,
) -> Sequential:
    """A small GoogLeNet-style network with two inception modules."""
    channels, _, _ = input_shape
    rng = np.random.default_rng(seed)
    dtype = resolve_dtype(dtype, default=DEFAULT_DTYPE)
    inception1 = InceptionBlock(
        base_channels, 6, 4, 8, 2, 4, 4, rng=rng, name="inception1",
        dtype=dtype,
    )
    inception2 = InceptionBlock(
        inception1.out_channels, 8, 4, 12, 2, 4, 4, rng=rng, name="inception2",
        dtype=dtype,
    )
    return Sequential(
        [
            Conv2D(channels, base_channels, 3, padding=1, rng=rng, name="stem",
                   dtype=dtype),
            ReLU(),
            MaxPool2D(),
            inception1,
            MaxPool2D(),
            inception2,
            GlobalAvgPool2D(),
            Dropout(0.2, rng=rng),
            Dense(inception2.out_channels, num_classes, rng=rng, name="fc",
                  dtype=dtype),
        ],
        name="googlenet_mini",
    )


#: Builders for the generality experiment (Fig. 8), keyed by the paper's
#: model names.
MODEL_BUILDERS = {
    "AlexNet": alexnet_mini,
    "VGG-16": vgg_mini,
    "GoogLeNet": googlenet_mini,
    "ResNet-34": resnet34_mini,
    "ResNet-50": resnet50_mini,
}


def build_model(
    name: str,
    num_classes: int = 8,
    input_shape: tuple = (1, 32, 32),
    seed: int = 0,
    dtype=None,
) -> Sequential:
    """Build a model from :data:`MODEL_BUILDERS` by paper name.

    ``dtype`` is the single compute-dtype knob for the whole stack:
    ``None`` builds the fast float32 model, ``"float64"`` the reference
    one.
    """
    try:
        builder = MODEL_BUILDERS[name]
    except KeyError as exc:
        known = ", ".join(sorted(MODEL_BUILDERS))
        raise KeyError(f"unknown model '{name}'; known models: {known}") from exc
    return builder(
        num_classes=num_classes, input_shape=input_shape, seed=seed,
        dtype=dtype,
    )
