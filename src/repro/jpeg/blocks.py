"""The 8x8 block DCT of image stacks, forward and inverse.

JPEG transforms non-overlapping 8x8 blocks of level-shifted pixels.
:func:`image_dct` is the one forward transform in the package and
:func:`image_idct` the one inverse: the codec's quantizer and
reconstruction, Algorithm 1's per-band statistics and the Fig. 3
feature removal all run through them.  Images whose dimensions are not
multiples of eight are padded by edge replication (the strategy used by
libjpeg) before blocking, and the padding is cropped again on the way
back.
"""

from __future__ import annotations

import numpy as np

from repro.jpeg.dct import _DCT8, _DCT8_T, BLOCK_SIZE


def partition_blocks_batch(stack: np.ndarray) -> tuple:
    """8x8-block an ``(N, H, W)`` channel stack without copying.

    Pads by edge replication to block multiples and returns a
    ``(N, rows, cols, 8, 8)`` view plus the ``(rows, cols)`` grid shape;
    blocks of each image are ordered row-major over the grid.
    """
    stack = np.asarray(stack)
    if stack.ndim != 3:
        raise ValueError(f"expected an (N, H, W) stack, got {stack.shape}")
    count, height, width = stack.shape
    pad_h = (-height) % BLOCK_SIZE
    pad_w = (-width) % BLOCK_SIZE
    if pad_h or pad_w:
        stack = np.pad(
            stack, ((0, 0), (0, pad_h), (0, pad_w)), mode="edge"
        )
    rows = stack.shape[1] // BLOCK_SIZE
    cols = stack.shape[2] // BLOCK_SIZE
    blocked = stack.reshape(
        count, rows, BLOCK_SIZE, cols, BLOCK_SIZE
    ).transpose(0, 1, 3, 2, 4)
    return blocked, (rows, cols)


def level_shift(channel: np.ndarray) -> np.ndarray:
    """Shift pixel values from ``[0, 255]`` to ``[-128, 127]``."""
    return np.asarray(channel, dtype=np.float64) - 128.0


def image_dct(images: np.ndarray) -> tuple:
    """Block DCT of an ``(N, H, W)`` pixel stack.

    Level-shifts the pixels, blocks them with
    :func:`partition_blocks_batch` and transforms every block as
    ``C @ block @ C.T``.  Returns the ``(N, rows, cols, 8, 8)``
    coefficients and the ``(rows, cols)`` grid shape.
    """
    blocks, grid_shape = partition_blocks_batch(level_shift(images))
    return (_DCT8 @ blocks) @ _DCT8_T, grid_shape


def image_idct(coefficients: np.ndarray, image_shape: tuple) -> np.ndarray:
    """Inverse of :func:`image_dct`: an ``(N, H, W)`` pixel stack.

    Transforms the ``(N, rows, cols, 8, 8)`` coefficients back, unblocks
    them, crops the padding to ``image_shape`` ``(H, W)``, undoes the
    level shift and clips into ``[0, 255]``.
    """
    count, rows, cols = coefficients.shape[:3]
    blocks = (_DCT8_T @ coefficients) @ _DCT8
    channels = blocks.transpose(0, 1, 3, 2, 4).reshape(
        count, rows * BLOCK_SIZE, cols * BLOCK_SIZE
    )
    height, width = image_shape
    pixels = channels[:, :height, :width] + 128.0
    return np.clip(pixels, 0.0, 255.0, out=pixels)
