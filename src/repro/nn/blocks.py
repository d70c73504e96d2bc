"""Composite blocks: residual (ResNet) and inception (GoogLeNet).

These reproduce the family-specific structure of the paper's evaluation
models (Fig. 8) at a scale trainable on CPU.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import ReLU
from repro.nn.base import Layer, Parameter, Sequential
from repro.nn.conv import Conv2D
from repro.nn.dtype import as_float, resolve_dtype
from repro.nn.engine import PlanError
from repro.nn.init import fallback_rng
from repro.nn.norm import BatchNorm2D


class ResidualBlock(Layer):
    """A two-convolution residual block with identity (or 1x1) shortcut.

    Structure: ``conv3x3 -> BN -> ReLU -> conv3x3 -> BN``, added to the
    shortcut branch and passed through a final ReLU, as in ResNet basic
    blocks.  When the channel count or stride changes, the shortcut is a
    1x1 convolution with batch norm.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        rng: np.random.Generator = None,
        name: str = "residual",
        dtype=None,
    ) -> None:
        rng = fallback_rng(rng)
        dtype = resolve_dtype(dtype)
        self.body = Sequential(
            [
                Conv2D(in_channels, out_channels, 3, stride=stride, padding=1,
                       rng=rng, name=f"{name}.conv1", dtype=dtype),
                BatchNorm2D(out_channels, name=f"{name}.bn1", dtype=dtype),
                ReLU(),
                Conv2D(out_channels, out_channels, 3, stride=1, padding=1,
                       rng=rng, name=f"{name}.conv2", dtype=dtype),
                BatchNorm2D(out_channels, name=f"{name}.bn2", dtype=dtype),
            ],
            name=f"{name}.body",
        )
        if stride != 1 or in_channels != out_channels:
            self.shortcut = Sequential(
                [
                    Conv2D(in_channels, out_channels, 1, stride=stride,
                           padding=0, rng=rng, name=f"{name}.proj",
                           dtype=dtype),
                    BatchNorm2D(out_channels, name=f"{name}.proj_bn",
                                dtype=dtype),
                ],
                name=f"{name}.shortcut",
            )
        else:
            self.shortcut = None
        self._final_relu_mask = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        body_out = self.body.forward(inputs, training=training)
        if self.shortcut is not None:
            identity = self.shortcut.forward(inputs, training=training)
        else:
            identity = inputs
        summed = body_out + identity
        mask = summed > 0
        self._final_relu_mask = mask if training else None
        return summed * mask

    def plan_inference(self, builder, source):
        body_out = self.body.plan_inference(builder, source)
        if self.shortcut is not None:
            identity = self.shortcut.plan_inference(builder, source)
        else:
            identity = source
        if identity.shape != body_out.shape:
            raise PlanError(
                f"residual shapes disagree: body {body_out.shape} "
                f"vs shortcut {identity.shape}"
            )
        out = builder.activation(body_out.shape)
        mask = builder.scratch(body_out.shape, dtype=bool)

        def build(bind):
            b = bind(body_out)
            i = bind(identity)
            y = bind(out)
            m = bind(mask)

            def step():
                np.add(b, i, out=y)
                np.greater(y, 0, out=m)
                np.multiply(y, m, out=y)

            return step

        builder.emit(
            build, reads=(body_out, identity), writes=(out,), scratch=(mask,)
        )
        builder.free(mask, body_out)
        if identity is not source:
            builder.free(identity)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._final_relu_mask is None:
            raise RuntimeError("backward called without a training forward")
        grad_sum = as_float(grad_output) * self._final_relu_mask
        grad_body = self.body.backward(grad_sum)
        if self.shortcut is not None:
            grad_shortcut = self.shortcut.backward(grad_sum)
        else:
            grad_shortcut = grad_sum
        return grad_body + grad_shortcut

    def parameters(self) -> "list[Parameter]":
        params = self.body.parameters()
        if self.shortcut is not None:
            params = params + self.shortcut.parameters()
        return params


class InceptionBlock(Layer):
    """A simplified inception module with four parallel branches.

    Branches: 1x1 convolution, 3x3 convolution (with 1x1 reduction), 5x5
    convolution (with 1x1 reduction), and 3x3 max-pool followed by a 1x1
    projection.  Outputs are concatenated along the channel axis, as in
    GoogLeNet.
    """

    def __init__(
        self,
        in_channels: int,
        branch1_channels: int,
        branch3_reduce: int,
        branch3_channels: int,
        branch5_reduce: int,
        branch5_channels: int,
        pool_proj_channels: int,
        rng: np.random.Generator = None,
        name: str = "inception",
        dtype=None,
    ) -> None:
        rng = fallback_rng(rng)
        dtype = resolve_dtype(dtype)
        self.branch1 = Sequential(
            [
                Conv2D(in_channels, branch1_channels, 1, rng=rng,
                       name=f"{name}.b1", dtype=dtype),
                ReLU(),
            ]
        )
        self.branch3 = Sequential(
            [
                Conv2D(in_channels, branch3_reduce, 1, rng=rng,
                       name=f"{name}.b3r", dtype=dtype),
                ReLU(),
                Conv2D(branch3_reduce, branch3_channels, 3, padding=1, rng=rng,
                       name=f"{name}.b3", dtype=dtype),
                ReLU(),
            ]
        )
        self.branch5 = Sequential(
            [
                Conv2D(in_channels, branch5_reduce, 1, rng=rng,
                       name=f"{name}.b5r", dtype=dtype),
                ReLU(),
                Conv2D(branch5_reduce, branch5_channels, 5, padding=2, rng=rng,
                       name=f"{name}.b5", dtype=dtype),
                ReLU(),
            ]
        )
        self.branch_pool = Sequential(
            [
                _PaddedMaxPool(),
                Conv2D(in_channels, pool_proj_channels, 1, rng=rng,
                       name=f"{name}.bp", dtype=dtype),
                ReLU(),
            ]
        )
        self._split_channels = [
            branch1_channels,
            branch3_channels,
            branch5_channels,
            pool_proj_channels,
        ]
        self.out_channels = sum(self._split_channels)

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        outputs = [
            self.branch1.forward(inputs, training=training),
            self.branch3.forward(inputs, training=training),
            self.branch5.forward(inputs, training=training),
            self.branch_pool.forward(inputs, training=training),
        ]
        return np.concatenate(outputs, axis=1)

    def plan_inference(self, builder, source):
        branch_outs = [
            self.branch1.plan_inference(builder, source),
            self.branch3.plan_inference(builder, source),
            self.branch5.plan_inference(builder, source),
            self.branch_pool.plan_inference(builder, source),
        ]
        spatial = branch_outs[0].shape[2:]
        for branch_out, channels in zip(branch_outs, self._split_channels):
            if (
                branch_out.shape[1] != channels
                or branch_out.shape[2:] != spatial
            ):
                raise PlanError(
                    f"inception branch produced {branch_out.shape}, "
                    f"expected ({source.shape[0]}, {channels}, *{spatial})"
                )
        out = builder.activation(
            (source.shape[0], self.out_channels) + spatial
        )

        def build(bind):
            y = bind(out)
            targets = []
            start = 0
            for branch_out, channels in zip(branch_outs, self._split_channels):
                targets.append((y[:, start:start + channels], bind(branch_out)))
                start += channels

            def step():
                for target, branch_value in targets:
                    np.copyto(target, branch_value)

            return step

        builder.emit(build, reads=tuple(branch_outs), writes=(out,))
        builder.free(*branch_outs)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_output = as_float(grad_output)
        grads = []
        start = 0
        branches = [self.branch1, self.branch3, self.branch5, self.branch_pool]
        for branch, channels in zip(branches, self._split_channels):
            grads.append(
                branch.backward(grad_output[:, start:start + channels])
            )
            start += channels
        return sum(grads)

    def parameters(self) -> "list[Parameter]":
        params = []
        for branch in (self.branch1, self.branch3, self.branch5, self.branch_pool):
            params.extend(branch.parameters())
        return params


class _PaddedMaxPool(Layer):
    """3x3 stride-1 max pooling with same-size output (pad by edge value).

    Implemented directly (not via im2col) because the inception pool branch
    needs 'same' padding, which the generic pooling layers do not support.
    """

    def __init__(self) -> None:
        self._cache = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = as_float(inputs)
        padded = np.pad(
            inputs, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="constant",
            constant_values=-np.inf,
        )
        batch, channels, height, width = inputs.shape
        windows = np.empty(
            (9, batch, channels, height, width), dtype=inputs.dtype
        )
        index = 0
        for dy in range(3):
            for dx in range(3):
                windows[index] = padded[:, :, dy:dy + height, dx:dx + width]
                index += 1
        self._cache = None
        if training:
            self._cache = (inputs.shape, windows.argmax(axis=0))
        return windows.max(axis=0)

    def plan_inference(self, builder, source):
        if source.ndim != 4:
            raise PlanError(f"expected NCHW input, got {source.shape}")
        batch, channels, height, width = source.shape
        out = builder.activation(source.shape)
        padded = builder.scratch((batch, channels, height + 2, width + 2))
        windows = builder.scratch((9, batch, channels, height, width))

        def build(bind):
            x = bind(source)
            y = bind(out)
            padded_view = bind(padded)
            window_buffer = bind(windows)
            interior = padded_view[:, :, 1:1 + height, 1:1 + width]
            # Borders must be refilled every run: the arena may hand
            # these bytes to another slot within the same pass.
            borders = (
                padded_view[:, :, :1, :],
                padded_view[:, :, 1 + height:, :],
                padded_view[:, :, 1:1 + height, :1],
                padded_view[:, :, 1:1 + height, 1 + width:],
            )
            shifts = [
                padded_view[:, :, dy:dy + height, dx:dx + width]
                for dy in range(3)
                for dx in range(3)
            ]

            def step():
                for border in borders:
                    border[...] = -np.inf
                np.copyto(interior, x)
                for index, shifted in enumerate(shifts):
                    np.copyto(window_buffer[index], shifted)
                window_buffer.max(axis=0, out=y)

            return step

        builder.emit(
            build,
            reads=(source,),
            writes=(out,),
            scratch=(padded, windows),
        )
        builder.free(padded, windows)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called without a training forward")
        input_shape, argmax = self._cache
        grad_output = as_float(grad_output)
        batch, channels, height, width = input_shape
        grad_padded = np.zeros(
            (batch, channels, height + 2, width + 2), dtype=grad_output.dtype
        )
        for index in range(9):
            dy, dx = divmod(index, 3)
            mask = argmax == index
            grad_padded[:, :, dy:dy + height, dx:dx + width] += grad_output * mask
        return grad_padded[:, :, 1:1 + height, 1:1 + width]
