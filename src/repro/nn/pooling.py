"""Pooling layers: 2x2 max pooling and global average pooling.

Every model in :mod:`repro.nn.models` builds exactly these two (the
inception pool branch has its own ``_PaddedMaxPool`` in
:mod:`repro.nn.blocks`).  The max-pool argmax is computed, and cached
for the backward pass, only by a training forward; an inference
forward clears the cache, so a backward after it raises.
"""

from __future__ import annotations

import numpy as np

from repro.nn.base import Layer
from repro.nn.dtype import as_float
from repro.nn.engine import PlanError
from repro.nn.im2col import conv_output_size


class MaxPool2D(Layer):
    """Max pooling over 2x2 windows with stride 2.

    A branch-free tournament over four strided quadrant views: no patch
    copy and no ``argmax`` kernel.  Ties go to the first window element
    in row-major order (``argmax``'s convention), and an odd trailing
    row or column is dropped.
    """

    def __init__(self) -> None:
        self._cache = None

    @staticmethod
    def _output_dims(shape: tuple) -> tuple:
        batch, channels, height, width = shape
        out_h = conv_output_size(height, 2, 2, 0)
        out_w = conv_output_size(width, 2, 2, 0)
        return batch, channels, out_h, out_w

    @staticmethod
    def _quadrants(inputs: np.ndarray, out_h: int, out_w: int) -> tuple:
        region = inputs[:, :, :2 * out_h, :2 * out_w]
        return (
            region[:, :, ::2, ::2], region[:, :, ::2, 1::2],
            region[:, :, 1::2, ::2], region[:, :, 1::2, 1::2],
        )

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = as_float(inputs)
        if inputs.ndim != 4:
            raise ValueError(f"expected NCHW input, got shape {inputs.shape}")
        dims = self._output_dims(inputs.shape)
        a, b, c, d = self._quadrants(inputs, dims[2], dims[3])
        top = np.maximum(a, b)
        bottom = np.maximum(c, d)
        outputs = np.maximum(top, bottom)
        self._cache = None
        if training:
            # Index (0-3, row-major window order) of the first maximum:
            # the row bit says whether the bottom pair wins, the column
            # bit comes from the winning pair.
            first = (b > a).view(np.uint8)
            lower = (bottom > top).view(np.uint8)
            argmax = (d > c).view(np.uint8)
            argmax ^= first
            argmax &= lower
            argmax ^= first
            argmax |= np.left_shift(lower, 1, out=lower)
            self._cache = (inputs.shape, argmax)
        return outputs

    def plan_inference(self, builder, source):
        """Emit the tournament into an inference plan.

        The same three ``maximum`` calls as :meth:`forward`, with
        ``out=`` targets, so plan outputs are bit-identical.
        """
        if source.ndim != 4:
            raise PlanError(f"expected NCHW input, got shape {source.shape}")
        dims = self._output_dims(source.shape)
        out_h, out_w = dims[2], dims[3]
        out = builder.activation(dims)
        top_slot = builder.scratch(dims)
        bottom_slot = builder.scratch(dims)

        def build(bind):
            a, b, c, d = self._quadrants(bind(source), out_h, out_w)
            top = bind(top_slot)
            bottom = bind(bottom_slot)
            y = bind(out)

            def step():
                np.maximum(a, b, out=top)
                np.maximum(c, d, out=bottom)
                np.maximum(top, bottom, out=y)

            return step

        builder.emit(
            build, reads=(source,), writes=(out,),
            scratch=(top_slot, bottom_slot),
        )
        builder.free(top_slot, bottom_slot)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called without a training forward")
        input_shape, argmax = self._cache
        grad_output = as_float(grad_output)
        out_h, out_w = argmax.shape[2:]
        grad_input = np.zeros(input_shape, dtype=grad_output.dtype)
        quadrants = self._quadrants(grad_input, out_h, out_w)
        for index, quadrant in enumerate(quadrants):
            np.multiply(grad_output, argmax == index, out=quadrant)
        return grad_input


class GlobalAvgPool2D(Layer):
    """Average every feature map down to a single value, yielding (N, C)."""

    def __init__(self) -> None:
        self._input_shape = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = as_float(inputs)
        if inputs.ndim != 4:
            raise ValueError(f"expected NCHW input, got shape {inputs.shape}")
        self._input_shape = inputs.shape if training else None
        return inputs.mean(axis=(2, 3))

    def plan_inference(self, builder, source):
        if source.ndim != 4:
            raise PlanError(f"expected NCHW input, got shape {source.shape}")
        out = builder.activation(source.shape[:2])

        def build(bind):
            x = bind(source)
            y = bind(out)

            def step():
                np.mean(x, axis=(2, 3), out=y)

            return step

        builder.emit(build, reads=(source,), writes=(out,))
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called without a training forward")
        batch, channels, height, width = self._input_shape
        grad_output = as_float(grad_output)
        grad = grad_output[:, :, None, None] / float(height * width)
        return np.broadcast_to(grad, self._input_shape).copy()
