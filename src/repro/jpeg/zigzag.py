"""Zig-zag reordering of 8x8 DCT coefficient blocks.

The zig-zag scan orders the 64 coefficients of a block by increasing
spatial frequency so that the long runs of zeros produced by quantization
are contiguous and compress well under run-length coding.
"""

from __future__ import annotations

import numpy as np

from repro.jpeg.dct import BLOCK_SIZE


def _build_zigzag_order(n: int = BLOCK_SIZE) -> np.ndarray:
    """Return flat indices of an ``n x n`` block in zig-zag order."""
    order = []
    for diagonal in range(2 * n - 1):
        if diagonal % 2 == 0:
            # Even diagonals run bottom-left to top-right.
            row = min(diagonal, n - 1)
            col = diagonal - row
            while row >= 0 and col < n:
                order.append(row * n + col)
                row -= 1
                col += 1
        else:
            # Odd diagonals run top-right to bottom-left.
            col = min(diagonal, n - 1)
            row = diagonal - col
            while col >= 0 and row < n:
                order.append(row * n + col)
                row += 1
                col -= 1
    return np.asarray(order, dtype=np.intp)


#: Flat indices of an 8x8 block in zig-zag order; ``ZIGZAG_ORDER[0]`` is the
#: DC term and ``ZIGZAG_ORDER[63]`` the highest-frequency AC term.
ZIGZAG_ORDER = _build_zigzag_order(BLOCK_SIZE)

#: Inverse permutation: position of each flat index within the zig-zag scan.
INVERSE_ZIGZAG_ORDER = np.argsort(ZIGZAG_ORDER)


def zigzag(block: np.ndarray) -> np.ndarray:
    """Flatten an 8x8 block (or a stack ``(N, 8, 8)``) in zig-zag order."""
    block = np.asarray(block)
    if block.shape[-2:] != (BLOCK_SIZE, BLOCK_SIZE):
        raise ValueError(f"expected trailing 8x8 dims, got {block.shape}")
    flat = block.reshape(*block.shape[:-2], BLOCK_SIZE * BLOCK_SIZE)
    return flat[..., ZIGZAG_ORDER]


def inverse_zigzag(sequence: np.ndarray) -> np.ndarray:
    """Rebuild 8x8 blocks from zig-zag sequences of length 64."""
    sequence = np.asarray(sequence)
    if sequence.shape[-1] != BLOCK_SIZE * BLOCK_SIZE:
        raise ValueError(
            f"expected trailing dimension of 64, got {sequence.shape}"
        )
    flat = sequence[..., INVERSE_ZIGZAG_ORDER]
    return flat.reshape(*sequence.shape[:-1], BLOCK_SIZE, BLOCK_SIZE)
