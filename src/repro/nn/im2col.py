"""im2col / col2im kernels of the convolution layer.

Convolution is implemented as a matrix multiply over the patches of
every receptive field; the backward pass scatters gradients back onto
the input.  Layout convention throughout the framework is NCHW.

:func:`_gather` fills the channel-major patch tensor
``(n, C*kernel_h*kernel_w, out_h*out_w)`` from a zero-copy
:func:`numpy.lib.stride_tricks.sliding_window_view` (one strided view,
one write into a GEMM-ready contiguous buffer that the layer keeps and
reuses across steps).  :func:`_scatter` adds a patch tensor back into a
:func:`_scatter_target` with at most ``kernel_h * kernel_w`` vectorized
strided adds — or a single transpose-copy when windows do not overlap
(stride == kernel, no padding) — and :func:`_unpad` crops the result.
:class:`~repro.nn.conv.Conv2D` calls them on the batch slices of
:func:`repro.runtime.blas.split_batch`.  Their
loop-and-copy references are :func:`repro.reference.im2col_scalar` and
:func:`repro.reference.col2im_scalar`; the tests assert both agree
exactly across geometries.  Neither kernel casts its input: the compute
dtype of the caller (float32 fast mode or float64 reference mode) flows
straight through.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"invalid convolution geometry: size={size} kernel={kernel} "
            f"stride={stride} pad={pad}"
        )
    return out


def _windows(
    images: np.ndarray, kernel_h: int, kernel_w: int, stride: int, pad: int
) -> np.ndarray:
    """Strided view of every receptive field of a validated NCHW batch.

    Shape ``(N, C, out_h, out_w, kernel_h, kernel_w)``; a copy only when
    ``pad > 0`` forces one via :func:`numpy.pad`.
    """
    if pad:
        images = np.pad(
            images, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant"
        )
    windows = sliding_window_view(
        images, (kernel_h, kernel_w), axis=(2, 3)
    )
    return windows[:, :, ::stride, ::stride]


def _gather(
    images: np.ndarray,
    patches: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    pad: int,
) -> None:
    """Write the patch tensor of ``images`` into C-contiguous ``patches``.

    ``images`` is a validated NCHW batch or batch slice, ``patches`` the
    matching ``(n, C*kernel_h*kernel_w, out_h*out_w)`` rows of the
    layer's patch tensor.  Pads its own copy of the slice.
    """
    windows = _windows(images, kernel_h, kernel_w, stride, pad)
    batch, channels, out_h, out_w = windows.shape[:4]
    sink = patches.reshape(batch, channels, kernel_h, kernel_w, out_h, out_w)
    np.copyto(sink, windows.transpose(0, 1, 4, 5, 2, 3))


def _tiles(kernel_h: int, kernel_w: int, stride: int, pad: int) -> bool:
    """Whether the windows tile the input without overlap or padding."""
    return pad == 0 and stride == kernel_h and stride == kernel_w


def _scatter_target(
    input_shape: tuple,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    pad: int,
    dtype,
) -> np.ndarray:
    """The padded NCHW array :func:`_scatter` adds a batch's patches into.

    Zeroed, except where the windows tile the whole input: every element
    is then written exactly once.
    """
    batch, channels, height, width = input_shape
    shape = (batch, channels, height + 2 * pad, width + 2 * pad)
    out_h = conv_output_size(height, kernel_h, stride, pad)
    out_w = conv_output_size(width, kernel_w, stride, pad)
    if _tiles(kernel_h, kernel_w, stride, pad) and (
        out_h * kernel_h, out_w * kernel_w
    ) == (height, width):
        return np.empty(shape, dtype=dtype)
    return np.zeros(shape, dtype=dtype)


def _scatter(
    patches: np.ndarray,
    target: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    pad: int,
) -> None:
    """Scatter-add a patch tensor into its rows of a scatter target.

    ``patches`` holds a batch (or batch slice) of
    ``(n, C*kernel_h*kernel_w, out_h*out_w)`` patches and ``target`` the
    same samples' rows of :func:`_scatter_target`'s array.  Overlapping
    window positions accumulate, one strided add per kernel offset;
    windows that tile the input are copied in with one transpose.
    """
    batch, channels, padded_h, padded_w = target.shape
    out_h = conv_output_size(padded_h, kernel_h, stride, 0)
    out_w = conv_output_size(padded_w, kernel_w, stride, 0)
    view = patches.reshape(
        batch, channels, kernel_h, kernel_w, out_h, out_w
    )
    if _tiles(kernel_h, kernel_w, stride, pad):
        # Splitting the two spatial axes keeps this a view of `target`.
        sink = target[:, :, :out_h * kernel_h, :out_w * kernel_w].reshape(
            batch, channels, out_h, kernel_h, out_w, kernel_w
        )
        np.copyto(sink, view.transpose(0, 1, 4, 2, 5, 3))
        return
    for row in range(kernel_h):
        row_end = row + stride * out_h
        for col in range(kernel_w):
            col_end = col + stride * out_w
            target[:, :, row:row_end:stride, col:col_end:stride] += view[
                :, :, row, col
            ]


def _unpad(target: np.ndarray, pad: int) -> np.ndarray:
    """The input-sized interior of a scatter target (a view)."""
    if pad == 0:
        return target
    return target[:, :, pad:-pad, pad:-pad]
