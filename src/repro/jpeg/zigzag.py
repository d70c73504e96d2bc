"""The zig-zag scan order of 8x8 DCT coefficient blocks.

The zig-zag scan orders the 64 coefficients of a block by increasing
spatial frequency so that the long runs of zeros produced by quantization
are contiguous and compress well under run-length coding.  The codec
gathers a block's flattened coefficients with :data:`ZIGZAG_ORDER` and
scatters them back with :data:`INVERSE_ZIGZAG_ORDER`; Fig. 3 indexes the
highest-frequency bands with the tail of :data:`ZIGZAG_ORDER`.
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
