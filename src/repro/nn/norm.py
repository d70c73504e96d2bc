"""Batch normalisation for NCHW feature maps."""

from __future__ import annotations

import numpy as np

from repro.nn.base import Layer, Parameter
from repro.nn.dtype import resolve_dtype
from repro.nn.engine import PlanError
from repro.runtime.blas import split_batch


class BatchNorm2D(Layer):
    """Per-channel batch normalisation (Ioffe & Szegedy, 2015).

    During training, activations are normalised with batch statistics and
    running estimates are updated with exponential moving averages; during
    inference the running estimates are used.  Only a training forward
    caches what the backward pass needs; an inference forward clears the
    cache, so a backward after it raises.

    The elementwise passes run over batch slices through
    :func:`~repro.runtime.blas.split_batch`; every reduction over the
    batch (statistics, parameter gradients) stays one call on the whole
    array, so its summation order, and so every output bit, is the same
    however the passes are split.
    """

    stochastic = True

    def __init__(
        self,
        num_channels: int,
        momentum: float = 0.9,
        epsilon: float = 1e-5,
        name: str = "batchnorm",
        dtype=None,
    ) -> None:
        if num_channels <= 0:
            raise ValueError("num_channels must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.num_channels = num_channels
        self.momentum = float(momentum)
        self.epsilon = float(epsilon)
        self.dtype = resolve_dtype(dtype)
        self.gamma = Parameter(
            np.ones(num_channels), name=f"{name}.gamma", dtype=self.dtype
        )
        self.beta = Parameter(
            np.zeros(num_channels), name=f"{name}.beta", dtype=self.dtype
        )
        self.running_mean = np.zeros(num_channels, dtype=self.dtype)
        self.running_var = np.ones(num_channels, dtype=self.dtype)
        self._cache = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=self.dtype)
        if inputs.ndim != 4 or inputs.shape[1] != self.num_channels:
            raise ValueError(
                f"expected (N, {self.num_channels}, H, W) input, got {inputs.shape}"
            )
        if training:
            mean = inputs.mean(axis=(0, 2, 3))
            var = inputs.var(axis=(0, 2, 3))
            self.running_mean = (
                self.momentum * self.running_mean + (1.0 - self.momentum) * mean
            )
            self.running_var = (
                self.momentum * self.running_var + (1.0 - self.momentum) * var
            )
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.epsilon)
        centre = mean[None, :, None, None]
        scale = inv_std[None, :, None, None]
        gamma = self.gamma.value[None, :, None, None]
        beta = self.beta.value[None, :, None, None]
        normalized = np.empty(inputs.shape, dtype=self.dtype)
        outputs = np.empty(inputs.shape, dtype=self.dtype)

        def normalize(lo, hi):
            rows = normalized[lo:hi]
            np.subtract(inputs[lo:hi], centre, out=rows)
            np.multiply(rows, scale, out=rows)
            np.multiply(gamma, rows, out=outputs[lo:hi])
            np.add(outputs[lo:hi], beta, out=outputs[lo:hi])

        split_batch(normalize, inputs.shape[0], outputs.size)
        self._cache = (normalized, inv_std, inputs.shape) if training else None
        return outputs

    def plan_inference(self, builder, source):
        """Emit the inference normalisation with runtime statistics.

        The running mean/var arrays are *reassigned* (not updated in
        place) every training step, so the kernel reads ``self.*`` at
        run time rather than capturing the arrays at compile time —
        plans stay valid across interleaved training and evaluation.
        The op sequence matches :meth:`forward` exactly (add-eps, sqrt,
        reciprocal, subtract, three broadcast multiplies/adds) for
        bit-parity with the dynamic path.
        """
        if source.ndim != 4 or source.shape[1] != self.num_channels:
            raise PlanError(
                f"expected (N, {self.num_channels}, H, W) input, "
                f"got {source.shape}"
            )
        out = builder.activation(source.shape)
        svec = builder.scratch((self.num_channels,))

        def build(bind):
            x = bind(source)
            y = bind(out)
            inv_std = bind(svec)

            def step():
                np.add(self.running_var, self.epsilon, out=inv_std)
                np.sqrt(inv_std, out=inv_std)
                np.divide(1.0, inv_std, out=inv_std)
                np.subtract(
                    x, self.running_mean[None, :, None, None], out=y
                )
                np.multiply(y, inv_std[None, :, None, None], out=y)
                np.multiply(y, self.gamma.value[None, :, None, None], out=y)
                np.add(y, self.beta.value[None, :, None, None], out=y)

            return step

        builder.emit(build, reads=(source,), writes=(out,), scratch=(svec,))
        builder.free(svec)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called without a training forward")
        normalized, inv_std, input_shape = self._cache
        grad_output = np.asarray(grad_output, dtype=self.dtype)
        batch, _, height, width = input_shape
        count = batch * height * width
        gamma = self.gamma.value[None, :, None, None]
        scale = inv_std[None, :, None, None]

        # Pass 1: the products the batch sums below reduce.
        grad_gamma = np.empty(input_shape, dtype=self.dtype)
        grad_normalized = np.empty(input_shape, dtype=self.dtype)
        grad_scaled = np.empty(input_shape, dtype=self.dtype)

        def products(lo, hi):
            np.multiply(
                grad_output[lo:hi], normalized[lo:hi], out=grad_gamma[lo:hi]
            )
            np.multiply(grad_output[lo:hi], gamma, out=grad_normalized[lo:hi])
            np.multiply(
                grad_normalized[lo:hi], normalized[lo:hi],
                out=grad_scaled[lo:hi],
            )

        split_batch(products, batch, grad_normalized.size)
        self.gamma.grad += grad_gamma.sum(axis=(0, 2, 3))
        self.beta.grad += grad_output.sum(axis=(0, 2, 3))

        mean_grad = grad_normalized.sum(axis=(0, 2, 3), keepdims=True) / count
        sum_grad_normalized = grad_scaled.sum(axis=(0, 2, 3), keepdims=True)
        grad_input = np.empty(input_shape, dtype=self.dtype)

        def input_gradient(lo, hi):
            # (grad_normalized - mean_grad
            #  - normalized * sum_grad_normalized / count) * inv_std
            rows = grad_input[lo:hi]
            correction = grad_scaled[lo:hi]
            np.multiply(normalized[lo:hi], sum_grad_normalized, out=correction)
            np.divide(correction, count, out=correction)
            np.subtract(grad_normalized[lo:hi], mean_grad, out=rows)
            np.subtract(rows, correction, out=rows)
            np.multiply(rows, scale, out=rows)

        split_batch(input_gradient, batch, grad_input.size)
        return grad_input

    def parameters(self) -> "list[Parameter]":
        return [self.gamma, self.beta]
