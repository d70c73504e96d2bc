"""The orthonormal DCT-II matrix of 8x8 JPEG blocks.

The forward transform matches ITU-T T.81 Annex A: an orthonormal 2-D
DCT-II applied independently to every 8x8 block of level-shifted pixel
values.  It is matrix based (``C @ block @ C.T``), which vectorises
cleanly over stacks of blocks and is exact up to floating point;
:func:`repro.jpeg.blocks.image_dct` and
:func:`~repro.jpeg.blocks.image_idct` apply it to image stacks, and the
tests check them against ``scipy.fft.dctn``.
"""

from __future__ import annotations

import numpy as np

BLOCK_SIZE = 8


def dct_matrix(n: int = BLOCK_SIZE) -> np.ndarray:
    """Return the ``n x n`` orthonormal DCT-II matrix ``C``.

    The 1-D transform of a column vector ``x`` is ``C @ x``; the 2-D
    transform of a block ``B`` is ``C @ B @ C.T``.
    """
    k = np.arange(n).reshape(-1, 1)
    i = np.arange(n).reshape(1, -1)
    matrix = np.cos((2 * i + 1) * k * np.pi / (2 * n))
    matrix *= np.sqrt(2.0 / n)
    matrix[0, :] = np.sqrt(1.0 / n)
    return matrix


_DCT8 = dct_matrix(BLOCK_SIZE)
_DCT8_T = np.ascontiguousarray(_DCT8.T)
