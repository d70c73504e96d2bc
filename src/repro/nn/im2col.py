"""im2col / col2im transforms used by the convolution and pooling layers.

Convolution is implemented as a matrix multiply over patches extracted by
``im2col``; the backward pass scatters gradients back with ``col2im``.
Layout convention throughout the framework is NCHW.

The fast paths gather patches through a zero-copy
:func:`numpy.lib.stride_tricks.sliding_window_view` (one strided view,
one write into a GEMM-ready contiguous buffer that callers can
preallocate and reuse across steps) and scatter gradients back with at
most ``kernel_h * kernel_w`` vectorized strided adds — or a single
transpose-copy when windows do not overlap (the stride == kernel pooling
case).  That math lives in the private slice helpers :func:`_gather` and
:func:`_scatter`, which every sample goes through alone: the public
transforms call them on the whole batch, and the convolution layer on
the batch slices of :func:`repro.runtime.blas.split_batch`.  The
original loop-and-copy implementations are kept as ``im2col_scalar`` /
``col2im_scalar`` references; the tests assert both paths agree exactly
across geometries.  Neither path casts its input: the compute dtype of
the caller (float32 fast mode or float64 reference mode) flows straight
through.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.dtype import as_float


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"invalid convolution geometry: size={size} kernel={kernel} "
            f"stride={stride} pad={pad}"
        )
    return out


def sliding_windows(
    images: np.ndarray, kernel_h: int, kernel_w: int, stride: int, pad: int
) -> np.ndarray:
    """Strided zero-copy view of all receptive fields of an NCHW batch.

    Returns a ``(N, C, out_h, out_w, kernel_h, kernel_w)`` view (a copy
    only when ``pad > 0`` forces one via :func:`numpy.pad`).  Pooling
    reduces directly over the last two axes of this view without ever
    materializing the patch matrix.
    """
    images = as_float(images)
    if images.ndim != 4:
        raise ValueError(f"expected NCHW input, got shape {images.shape}")
    _, _, height, width = images.shape
    # Validate geometry up front (raises on degenerate sizes).
    conv_output_size(height, kernel_h, stride, pad)
    conv_output_size(width, kernel_w, stride, pad)
    return _windows(images, kernel_h, kernel_w, stride, pad)


def _windows(
    images: np.ndarray, kernel_h: int, kernel_w: int, stride: int, pad: int
) -> np.ndarray:
    """:func:`sliding_windows` of a validated batch (or batch slice)."""
    if pad:
        images = np.pad(
            images, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant"
        )
    windows = sliding_window_view(
        images, (kernel_h, kernel_w), axis=(2, 3)
    )
    return windows[:, :, ::stride, ::stride]


def im2col(
    images: np.ndarray, kernel_h: int, kernel_w: int, stride: int, pad: int
) -> np.ndarray:
    """Extract sliding patches from a batch of NCHW images.

    Returns an array of shape ``(N * out_h * out_w, C * kernel_h * kernel_w)``
    where each row is one receptive field.  A thin row-layout wrapper
    over :func:`im2col_patches` (the layout the layers consume);
    kept as the public transform the reference tests and external
    callers know.
    """
    images = as_float(images)
    if images.ndim != 4:
        raise ValueError(f"expected NCHW input, got shape {images.shape}")
    batch, _, height, width = images.shape
    out_h = conv_output_size(height, kernel_h, stride, pad)
    out_w = conv_output_size(width, kernel_w, stride, pad)
    patches = im2col_patches(images, kernel_h, kernel_w, stride, pad)
    return patches.transpose(0, 2, 1).reshape(batch * out_h * out_w, -1)


def col2im(
    columns: np.ndarray,
    input_shape: tuple,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Scatter-add patch columns back into an NCHW image batch.

    Inverse (in the adjoint sense) of :func:`im2col`: overlapping patch
    positions accumulate.  Delegates to :func:`col2im_patches` after a
    row-to-patch relayout.
    """
    columns = as_float(columns)
    batch, channels, height, width = input_shape
    out_h = conv_output_size(height, kernel_h, stride, pad)
    out_w = conv_output_size(width, kernel_w, stride, pad)
    patches = columns.reshape(
        batch, out_h * out_w, channels * kernel_h * kernel_w
    ).transpose(0, 2, 1)
    return col2im_patches(
        patches, input_shape, kernel_h, kernel_w, stride, pad
    )


def im2col_patches(
    images: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    pad: int,
    out: np.ndarray = None,
) -> np.ndarray:
    """Patch tensor ``(N, C*kernel_h*kernel_w, out_h*out_w)`` of an NCHW batch.

    The channel-major layout the convolution layer multiplies directly:
    ``weights (C_out, C*kh*kw) @ patches`` broadcasts over the batch axis
    and yields NCHW-contiguous feature maps without any output transpose.
    Filling this layout from the sliding-window view is also several
    times faster than the row layout of :func:`im2col` because source
    reads stay contiguous along the spatial axes.  ``out`` may supply a
    preallocated scratch buffer (reused across training steps).
    """
    images = as_float(images)
    if images.ndim != 4:
        raise ValueError(f"expected NCHW input, got shape {images.shape}")
    batch, channels, height, width = images.shape
    out_h = conv_output_size(height, kernel_h, stride, pad)
    out_w = conv_output_size(width, kernel_w, stride, pad)
    shape = (batch, channels * kernel_h * kernel_w, out_h * out_w)
    if (
        out is None or out.shape != shape or out.dtype != images.dtype
        or not out.flags.c_contiguous
    ):
        out = np.empty(shape, dtype=images.dtype)
    _gather(images, out, kernel_h, kernel_w, stride, pad)
    return out


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
    matching ``(n, C*kernel_h*kernel_w, out_h*out_w)`` rows of
    :func:`im2col_patches`' output.  Pads its own copy of the slice.
    """
    windows = _windows(images, kernel_h, kernel_w, stride, pad)
    batch, channels, out_h, out_w = windows.shape[:4]
    sink = patches.reshape(batch, channels, kernel_h, kernel_w, out_h, out_w)
    np.copyto(sink, windows.transpose(0, 1, 4, 5, 2, 3))


def col2im_patches(
    patches: np.ndarray,
    input_shape: tuple,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col_patches`: scatter-add patches back to NCHW.

    Same reduction as :func:`col2im`, operating on the channel-major
    layout; every per-offset add reads a contiguous slab of the patch
    tensor.
    """
    patches = as_float(patches)
    target = _scatter_target(
        input_shape, kernel_h, kernel_w, stride, pad, patches.dtype
    )
    _scatter(patches, target, kernel_h, kernel_w, stride, pad)
    return _unpad(target, pad)


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


# ----------------------------------------------------------------------
# Scalar reference implementations (kept for parity testing)
# ----------------------------------------------------------------------


def im2col_scalar(
    images: np.ndarray, kernel_h: int, kernel_w: int, stride: int, pad: int
) -> np.ndarray:
    """Reference im2col: loop-and-copy through a 6-D scratch tensor."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4:
        raise ValueError(f"expected NCHW input, got shape {images.shape}")
    batch, channels, height, width = images.shape
    out_h = conv_output_size(height, kernel_h, stride, pad)
    out_w = conv_output_size(width, kernel_w, stride, pad)

    padded = np.pad(
        images, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant"
    )
    columns = np.zeros(
        (batch, channels, kernel_h, kernel_w, out_h, out_w), dtype=np.float64
    )
    for row in range(kernel_h):
        row_end = row + stride * out_h
        for col in range(kernel_w):
            col_end = col + stride * out_w
            columns[:, :, row, col, :, :] = padded[
                :, :, row:row_end:stride, col:col_end:stride
            ]
    return columns.transpose(0, 4, 5, 1, 2, 3).reshape(
        batch * out_h * out_w, -1
    )


def col2im_scalar(
    columns: np.ndarray,
    input_shape: tuple,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Reference col2im: transpose to a 6-D tensor, then scatter-add."""
    columns = np.asarray(columns, dtype=np.float64)
    batch, channels, height, width = input_shape
    out_h = conv_output_size(height, kernel_h, stride, pad)
    out_w = conv_output_size(width, kernel_w, stride, pad)

    reshaped = columns.reshape(
        batch, out_h, out_w, channels, kernel_h, kernel_w
    ).transpose(0, 3, 4, 5, 1, 2)
    padded = np.zeros(
        (batch, channels, height + 2 * pad, width + 2 * pad), dtype=np.float64
    )
    for row in range(kernel_h):
        row_end = row + stride * out_h
        for col in range(kernel_w):
            col_end = col + stride * out_w
            padded[:, :, row:row_end:stride, col:col_end:stride] += reshaped[
                :, :, row, col, :, :
            ]
    if pad == 0:
        return padded
    return padded[:, :, pad:pad + height, pad:pad + width]
