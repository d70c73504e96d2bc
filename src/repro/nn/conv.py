"""2-D convolution layer implemented with im2col."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.base import Layer, Parameter
from repro.nn.dtype import resolve_dtype
from repro.nn.engine import PlanError
from repro.nn.im2col import (
    _gather,
    _gather_shifted,
    _scatter,
    _scatter_target,
    _shift_views,
    _shifts,
    conv_output_size,
)
from repro.nn.init import fallback_rng, he_normal
from repro.runtime.blas import split_batch

#: Per-shape scratch buffers kept per layer.  Two shapes flow through a
#: typical predict/fit loop (the full tile and the remainder tile); a
#: couple more covers validation sets of a different size without
#: letting pathological callers grow the cache without bound.
_SCRATCH_SLOTS = 4


def _cached_scratch(cache: dict, key, buffer) -> None:
    """Insert ``buffer`` under ``key``, evicting oldest beyond the bound."""
    while len(cache) >= _SCRATCH_SLOTS:
        cache.pop(next(iter(cache)))
    cache[key] = buffer


class Conv2D(Layer):
    """Convolution over NCHW inputs.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts of input and output feature maps.
    kernel_size:
        Side of the square kernel.
    stride, padding:
        Convolution stride and symmetric zero padding.
    rng:
        Source of randomness for weight initialisation; pass a seeded
        generator for reproducible models.
    dtype:
        Compute dtype of the layer (weights, activations, gradients);
        ``None`` keeps the float64 reference mode.

    The forward pass is one batched GEMM over the channel-major patch
    tensor that :func:`~repro.nn.im2col._gather` fills, producing
    NCHW-contiguous outputs with no transpose.  A same-size convolution
    (stride 1, kernel ``2 * padding + 1``) gathers and scatters whole
    shifted planes (:func:`~repro.nn.im2col._shifts`), and its input
    gradient is the interior view of a flat scatter target.  The patch
    tensor — the layer's dominant allocation — is written into one
    scratch buffer per input shape, reused across steps.  Only a
    training forward caches it for the backward pass.  An inference
    forward clears the cache, because it overwrites the same-shape
    scratch buffer a training cache would point at; a backward after it
    raises.

    Forward and backward each run their per-sample work (gather, GEMMs,
    scatter) as one kernel over batch slices through
    :func:`~repro.runtime.blas.split_batch`, so inside a training fit
    they use every CPU; the weight and bias gradients are summed over
    the whole batch afterwards, in one call each.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        rng: np.random.Generator = None,
        name: str = "conv",
        dtype=None,
    ) -> None:
        if in_channels <= 0 or out_channels <= 0 or kernel_size <= 0:
            raise ValueError("channel counts and kernel size must be positive")
        if stride <= 0 or padding < 0:
            raise ValueError("stride must be positive and padding non-negative")
        rng = fallback_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.dtype = resolve_dtype(dtype)
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            he_normal(
                (out_channels, in_channels, kernel_size, kernel_size),
                fan_in,
                rng,
                dtype=self.dtype,
            ),
            name=f"{name}.weight",
            dtype=self.dtype,
        )
        self.bias = Parameter(
            np.zeros(out_channels), name=f"{name}.bias", dtype=self.dtype
        )
        self._cache = None
        self._patch_scratch = {}
        self._grad_patch_scratch = {}

    def _patch_buffer(self, inputs: np.ndarray, positions: int) -> np.ndarray:
        """The scratch patch tensor for ``inputs``' shape and dtype."""
        # Keyed per (shape, dtype) so the full-tile / remainder-tile
        # alternation of predict and fit loops hits a stable buffer
        # instead of reallocating the scratch twice per call.
        key = (inputs.shape, inputs.dtype.str)
        patches = self._patch_scratch.get(key)
        if patches is None:
            batch, channels = inputs.shape[:2]
            patches = np.empty(
                (batch, channels * self.kernel_size ** 2, positions),
                dtype=inputs.dtype,
            )
            _cached_scratch(self._patch_scratch, key, patches)
        return patches

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=self.dtype)
        if inputs.ndim != 4 or inputs.shape[1] != self.in_channels:
            raise ValueError(
                f"expected (N, {self.in_channels}, H, W) input, got {inputs.shape}"
            )
        batch, _, height, width = inputs.shape
        size, stride, pad = self.kernel_size, self.stride, self.padding
        out_h = conv_output_size(height, size, stride, pad)
        out_w = conv_output_size(width, size, stride, pad)
        patches = self._patch_buffer(inputs, out_h * out_w)
        kernel_matrix = self.weight.value.reshape(self.out_channels, -1)
        bias = self.bias.value[:, None]
        outputs = np.empty(
            (batch, self.out_channels, out_h * out_w), dtype=self.dtype
        )

        def convolve(lo, hi):
            _gather(inputs[lo:hi], patches[lo:hi], size, size, stride, pad)
            np.matmul(kernel_matrix, patches[lo:hi], out=outputs[lo:hi])
            outputs[lo:hi] += bias

        self._cache = None
        split_batch(convolve, batch, patches.size)
        if training:
            self._cache = (inputs.shape, patches)
        return outputs.reshape(batch, self.out_channels, out_h, out_w)

    def plan_inference(self, builder, source):
        return self._plan_conv(builder, source, fuse_relu=False)

    def plan_fused_relu(self, builder, source):
        """Plan hook for the fused conv → ReLU inference epilogue."""
        return self._plan_conv(builder, source, fuse_relu=True)

    def _plan_conv(self, builder, source, fuse_relu: bool):
        """Emit the im2col-GEMM kernel into an inference plan.

        Same operation sequence as :meth:`forward` (gather, one batched
        ``matmul``, in-place bias add), so outputs are bit-identical to
        the dynamic path; a fused ReLU adds one in-place ``maximum``.
        The patch tensor and the padded-input buffer live in reusable
        arena scratch.  A same-size convolution runs the training
        gather's own :func:`~repro.nn.im2col._gather_shifted` through
        views :func:`~repro.nn.im2col._shift_views` builds once, at plan
        build, over the padded buffer used flat; other padded geometries
        gather from a window view of the zero-bordered buffer.
        1x1/stride-1/pad-0 convolutions skip the gather entirely — the
        input reshaped to ``(N, C, H*W)`` *is* the patch tensor.
        """
        if source.ndim != 4 or source.shape[1] != self.in_channels:
            raise PlanError(
                f"expected (N, {self.in_channels}, H, W) input, "
                f"got {source.shape}"
            )
        batch, _, height, width = source.shape
        kernel = self.kernel_size
        stride = self.stride
        pad = self.padding
        out_h = conv_output_size(height, kernel, stride, pad)
        out_w = conv_output_size(width, kernel, stride, pad)
        positions = out_h * out_w
        out = builder.activation((batch, self.out_channels, out_h, out_w))

        if kernel == 1 and stride == 1 and pad == 0:
            def build(bind):
                x3 = bind(source).reshape(batch, self.in_channels, positions)
                y3 = bind(out).reshape(batch, self.out_channels, positions)

                def step():
                    weights = self.weight.value.reshape(self.out_channels, -1)
                    np.matmul(weights, x3, out=y3)
                    np.add(y3, self.bias.value[:, None], out=y3)
                    if fuse_relu:
                        np.maximum(y3, 0.0, out=y3)

                return step

            builder.emit(build, reads=(source,), writes=(out,))
            return out

        patches = builder.scratch(
            (batch, self.in_channels * kernel * kernel, positions)
        )
        padded = (
            builder.scratch(
                (batch, self.in_channels, height + 2 * pad, width + 2 * pad)
            )
            if pad else None
        )

        def build(bind):
            x = bind(source)
            y3 = bind(out).reshape(batch, self.out_channels, positions)
            patch_buffer = bind(patches)
            # The margins and borders are re-zeroed every run: the arena
            # may hand these bytes to a later slot within the same pass.
            views = interior = sink = windows = None
            borders = ()
            if _shifts(kernel, kernel, stride, pad):
                views = _shift_views(bind(padded), patch_buffer, pad)
            else:
                sink = patch_buffer.reshape(
                    batch, self.in_channels, kernel, kernel, out_h, out_w
                )
                window_source = x
                if pad:
                    window_source = bind(padded)
                    interior = window_source[
                        :, :, pad:pad + height, pad:pad + width
                    ]
                    borders = (
                        window_source[:, :, :pad, :],
                        window_source[:, :, pad + height:, :],
                        window_source[:, :, pad:pad + height, :pad],
                        window_source[:, :, pad:pad + height, pad + width:],
                    )
                windows = sliding_window_view(
                    window_source, (kernel, kernel), axis=(2, 3)
                )[:, :, ::stride, ::stride].transpose(0, 1, 4, 5, 2, 3)

            def step():
                if views is not None:
                    _gather_shifted(x, views)
                else:
                    for border in borders:
                        border[...] = 0.0
                    if interior is not None:
                        np.copyto(interior, x)
                    np.copyto(sink, windows)
                weights = self.weight.value.reshape(self.out_channels, -1)
                np.matmul(weights, patch_buffer, out=y3)
                np.add(y3, self.bias.value[:, None], out=y3)
                if fuse_relu:
                    np.maximum(y3, 0.0, out=y3)

            return step

        scratch = (patches,) + ((padded,) if padded is not None else ())
        builder.emit(build, reads=(source,), writes=(out,), scratch=scratch)
        builder.free(*scratch)
        return out

    def backward_params_only(self, grad_output: np.ndarray) -> None:
        """Accumulate weight/bias gradients without the input gradient.

        Used by the training loop for the network's first layer, whose
        input gradient nobody consumes — skipping it avoids the col2im
        scatter and one GEMM per step.
        """
        self._backward(grad_output, input_grad=False)
        return None

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self._backward(grad_output, input_grad=True)

    def _backward(self, grad_output: np.ndarray, input_grad: bool):
        if self._cache is None:
            raise RuntimeError("backward called without a training forward")
        input_shape, patches = self._cache
        grad_output = np.asarray(grad_output, dtype=self.dtype)
        batch, _, out_h, out_w = grad_output.shape
        size, stride, pad = self.kernel_size, self.stride, self.padding
        grad_matrix = grad_output.reshape(
            batch, self.out_channels, out_h * out_w
        )
        kernel_matrix = self.weight.value.reshape(self.out_channels, -1)
        # Per-sample weight gradients, summed over the batch below.
        sample_grads = np.empty(
            (batch,) + kernel_matrix.shape, dtype=self.dtype
        )
        # The split threshold counts the largest array a slice writes.
        written = sample_grads.size
        if input_grad:
            key = (patches.shape, patches.dtype.str)
            grad_patches = self._grad_patch_scratch.get(key)
            if grad_patches is None:
                grad_patches = np.empty_like(patches)
                _cached_scratch(self._grad_patch_scratch, key, grad_patches)
            grad_input, interior = _scatter_target(
                input_shape, size, size, stride, pad, grad_patches.dtype
            )
            written = max(grad_patches.size, grad_input.size)

        def backpropagate(lo, hi):
            np.matmul(
                grad_matrix[lo:hi], patches[lo:hi].transpose(0, 2, 1),
                out=sample_grads[lo:hi],
            )
            if input_grad:
                np.matmul(
                    kernel_matrix.T, grad_matrix[lo:hi],
                    out=grad_patches[lo:hi],
                )
                _scatter(
                    grad_patches[lo:hi], grad_input[lo:hi],
                    size, size, stride, pad,
                )

        split_batch(backpropagate, batch, written)
        self.weight.grad += sample_grads.sum(axis=0).reshape(
            self.weight.value.shape
        )
        self.bias.grad += grad_matrix.sum(axis=(0, 2))
        if input_grad:
            return interior
        return None

    def parameters(self) -> "list[Parameter]":
        return [self.weight, self.bias]
