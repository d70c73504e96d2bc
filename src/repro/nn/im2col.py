"""im2col / col2im kernels of the convolution layer.

Convolution is implemented as a matrix multiply over the patches of
every receptive field; the backward pass scatters gradients back onto
the input.  Layout convention throughout the framework is NCHW.

:func:`_gather` fills the channel-major patch tensor
``(n, C*kernel_h*kernel_w, out_h*out_w)``, a GEMM-ready contiguous
buffer that the layer keeps and reuses across steps.  :func:`_scatter`
adds a patch tensor back into the target :func:`_scatter_target`
makes, whose interior view is the input gradient.  Three geometries:

- **Same size** (:func:`_shifts`: stride 1 and a square kernel of
  ``2 * pad + 1``, which covers every 3x3/pad-1 and 5x5/pad-2 layer
  the model zoo builds).  Each patch plane is the whole input shifted
  by one kernel tap.  The input sits flat in a buffer with at least
  ``pad * (W + 1)`` zeros on each side (:func:`_flat_layout`); one
  read-only strided view over that buffer yields all ``kernel**2``
  planes for a single copy, after which the columns whose taps wrap
  into the neighbouring row are zeroed (:func:`_wrapped_columns`).
  The scatter zeroes the same columns of the gradient and adds each
  plane into a flat target with one contiguous add, in the row-major
  tap order of the reference.
- **Tiling** windows (stride == kernel, no padding) scatter with a
  single transposed add of each term to ``+0.0``.
- **Any other** geometry gathers from a
  :func:`numpy.lib.stride_tricks.sliding_window_view` of the input,
  padded by :func:`numpy.pad`, and scatters with one strided add per
  kernel offset.

:class:`~repro.nn.conv.Conv2D` calls the kernels on the batch slices of
:func:`repro.runtime.blas.split_batch`, and its inference plans run the
same-size gather through :func:`_shift_views` and
:func:`_gather_shifted`.  The loop-and-copy references are
:func:`repro.reference.im2col_scalar` and
:func:`repro.reference.col2im_scalar`; the tests compare bytes across
geometries.  The same-size kernels only copy values or write ``+0.0``
where the reference reads padding, and each of their scatter sums adds
the reference's terms in the reference's order, starting from ``+0.0``:
the ``+0.0`` terms in between cannot change a sum that never becomes
``-0.0``.  The tiling scatter writes each element once, as the
reference's single term added to ``+0.0``.  Neither kernel casts its
input: the compute dtype of the caller (float32 fast mode or
float64 reference mode) flows straight through.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"invalid convolution geometry: size={size} kernel={kernel} "
            f"stride={stride} pad={pad}"
        )
    return out


def _shifts(kernel_h: int, kernel_w: int, stride: int, pad: int) -> bool:
    """Whether every patch plane is the input shifted by one kernel tap.

    True for a stride-1 convolution with a square ``2 * pad + 1`` kernel
    and ``pad > 0``: its output keeps the input's size, and tap
    ``(r, s)`` reads the input moved by ``(r - pad, s - pad)``.
    """
    return stride == 1 and pad > 0 and kernel_h == kernel_w == 2 * pad + 1


def _flat_layout(buffer: np.ndarray, pad: int) -> tuple:
    """The flat, interior and margin views of a same-size conv buffer.

    ``buffer`` is a C-contiguous ``(n, C, H + 2*pad, W + 2*pad)`` array
    used flat per channel: the image, in rows of ``W``, starts at offset
    ``pad * (W + 1)``, so tap ``(r, s)`` of output ``j`` sits at flat
    element ``j + r*W + s``.  Returns the ``(n, C, -1)`` flat view, the
    ``(n, C, H, W)`` interior view and the two margins around it, which
    must hold zeros whenever taps read them.
    """
    batch, channels, padded_h, padded_w = buffer.shape
    height, width = padded_h - 2 * pad, padded_w - 2 * pad
    flat = buffer.reshape(batch, channels, padded_h * padded_w)
    start = pad * (width + 1)
    end = start + height * width
    interior = flat[:, :, start:end].reshape(batch, channels, height, width)
    return flat, interior, (flat[:, :, :start], flat[:, :, end:])


def _wrapped_columns(planes: np.ndarray, pad: int) -> list:
    """The columns of a same-size patch view whose taps wrap a row.

    ``planes`` is a ``(n, C, k, k, H, W)`` view of a patch tensor.  Tap
    column ``s`` reads input column ``x + s - pad``; where that leaves
    ``[0, W)`` the flat layout wraps into the neighbouring row, so those
    ``|s - pad|`` columns (every column, if the image is narrower) must
    read zero.  One view per ``s != pad``.
    """
    width = planes.shape[-1]
    bands = []
    for col in range(planes.shape[3]):
        shift = col - pad
        if shift < 0:
            bands.append(planes[:, :, :, col, :, :-shift])
        elif shift > 0:
            bands.append(planes[:, :, :, col, :, max(width - shift, 0):])
    return bands


def _shift_views(buffer: np.ndarray, patches: np.ndarray, pad: int) -> tuple:
    """Every view a same-size gather touches, built once per buffer.

    ``buffer`` is :func:`_flat_layout` scratch for the images and
    ``patches`` their C-contiguous ``(n, C*k*k, H*W)`` patch rows.
    Returns the ``views`` :func:`_gather_shifted` runs through: the
    margins, the interior, a read-only view of all ``k*k`` shifted
    planes (strides of ``W`` and 1 elements over the kernel rows and
    columns), the matching patch sink and the wrapped columns.
    """
    flat, interior, margins = _flat_layout(buffer, pad)
    batch, channels, height, width = interior.shape
    kernel = 2 * pad + 1
    positions = height * width
    item = flat.itemsize
    planes = as_strided(
        flat,
        shape=(batch, channels, kernel, kernel, positions),
        strides=flat.strides[:2] + (width * item, item, item),
        writeable=False,
    )
    sink = patches.reshape(batch, channels, kernel, kernel, positions)
    bands = _wrapped_columns(
        patches.reshape(batch, channels, kernel, kernel, height, width), pad
    )
    return margins, interior, planes, sink, bands


def _gather_shifted(images: np.ndarray, views: tuple) -> None:
    """Gather same-size patches of ``images`` through :func:`_shift_views`."""
    margins, interior, planes, sink, bands = views
    for margin in margins:
        margin[...] = 0.0
    np.copyto(interior, images)
    np.copyto(sink, planes)
    for band in bands:
        band[...] = 0.0


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
    if _shifts(kernel_h, kernel_w, stride, pad):
        batch, channels, height, width = images.shape
        buffer = np.empty(
            (batch, channels, height + 2 * pad, width + 2 * pad),
            dtype=patches.dtype,
        )
        _gather_shifted(images, _shift_views(buffer, patches, pad))
        return
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
) -> tuple:
    """The array :func:`_scatter` adds a batch's patches into.

    Returns ``(target, interior)``.  ``target`` has the padded shape
    ``(n, C, H + 2*pad, W + 2*pad)``: laid out flat per channel
    (:func:`_flat_layout`) for a same-size convolution, as the padded
    image otherwise.  ``interior`` is its input-shaped view, the input
    gradient once every slice is scattered.  The target is zeroed,
    except where the windows tile the whole input: every element is
    then written exactly once.
    """
    batch, channels, height, width = input_shape
    shape = (batch, channels, height + 2 * pad, width + 2 * pad)
    if _shifts(kernel_h, kernel_w, stride, pad):
        target = np.zeros(shape, dtype=dtype)
        return target, _flat_layout(target, pad)[1]
    out_h = conv_output_size(height, kernel_h, stride, pad)
    out_w = conv_output_size(width, kernel_w, stride, pad)
    if _tiles(kernel_h, kernel_w, stride, pad) and (
        out_h * kernel_h, out_w * kernel_w
    ) == (height, width):
        target = np.empty(shape, dtype=dtype)
    else:
        target = np.zeros(shape, dtype=dtype)
    return target, target[:, :, pad:pad + height, pad:pad + width]


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
    window positions accumulate, one add per kernel offset: a
    contiguous add of a whole shifted plane for a same-size convolution
    (after zeroing the wrapped columns of ``patches`` in place), else a
    strided one.  Windows that tile the input are written with one
    transposed add of ``+0.0``, so a ``-0.0`` term lands as ``+0.0``.
    """
    batch, channels, padded_h, padded_w = target.shape
    if _shifts(kernel_h, kernel_w, stride, pad):
        flat, interior, _ = _flat_layout(target, pad)
        height, width = interior.shape[2:]
        positions = height * width
        planes = patches.reshape(
            batch, channels, kernel_h, kernel_w, height, width
        )
        for band in _wrapped_columns(planes, pad):
            band[...] = 0.0
        planes = patches.reshape(
            batch, channels, kernel_h, kernel_w, positions
        )
        for row in range(kernel_h):
            for col in range(kernel_w):
                start = row * width + col
                flat[:, :, start:start + positions] += planes[:, :, row, col]
        return
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
        np.add(view.transpose(0, 1, 4, 2, 5, 3), 0.0, out=sink)
        return
    for row in range(kernel_h):
        row_end = row + stride * out_h
        for col in range(kernel_w):
            col_end = col + stride * out_w
            target[:, :, row:row_end:stride, col:col_end:stride] += view[
                :, :, row, col
            ]
