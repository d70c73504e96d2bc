"""Activation layers.

Activations are dtype-preserving: they compute in whatever float dtype
flows in (float32 fast mode or float64 reference mode) instead of
casting, so the compute dtype chosen at the model level governs the
whole stack.
"""

from __future__ import annotations

import numpy as np

from repro.nn.base import Layer
from repro.nn.dtype import as_float


class ReLU(Layer):
    """Rectified linear unit, ``max(x, 0)``.

    An inference plan may fuse this layer into the preceding
    convolution, which then rectifies its own output in place (see
    :meth:`repro.nn.base.Sequential.plan_inference`).  The dynamic
    forward always runs the layer itself; a training forward keeps its
    mask for the backward pass.
    """

    #: Advertises to the plan compiler that a producer may fuse this
    #: activation.
    accepts_fused_relu = True

    def __init__(self) -> None:
        self._mask = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = as_float(inputs)
        mask = inputs > 0
        self._mask = mask if training else None
        return inputs * mask

    def plan_inference(self, builder, source):
        # The standalone (unfused) rectification: the exact mask-multiply
        # sequence of forward(), for bit-parity with the dynamic path.
        out = builder.activation(source.shape)
        mask = builder.scratch(source.shape, dtype=bool)

        def build(bind):
            x = bind(source)
            y = bind(out)
            m = bind(mask)

            def step():
                np.greater(x, 0, out=m)
                np.multiply(x, m, out=y)

            return step

        builder.emit(build, reads=(source,), writes=(out,), scratch=(mask,))
        builder.free(mask)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called without a training forward")
        return as_float(grad_output) * self._mask
