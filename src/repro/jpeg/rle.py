"""DC differential coding and AC run-length coding of quantized blocks.

Quantized blocks (already in zig-zag order) are translated into the symbol
stream of baseline JPEG: the DC coefficient of each block is coded as the
difference from the previous block's DC (DPCM) using a size category plus
magnitude bits, and the 63 AC coefficients are coded as
``(zero-run, size)`` symbols with ZRL (16-zero run) and EOB (end of block)
escapes.

:func:`block_run_stats` derives the DPCM differences and zero runs of
a whole ``(N, 64)`` stack with whole-array NumPy ops; the fused entropy
coder of :mod:`repro.jpeg.codec` builds on it.  The scalar reference,
one token at a time, is :func:`repro.reference.encode_dc` /
:func:`repro.reference.encode_ac`, and the tests assert the two code
bit-identical byte streams.
"""

from __future__ import annotations

import numpy as np

#: End-of-block AC symbol.
EOB_SYMBOL = 0x00
#: Zero-run-length AC symbol (a run of 16 zeros).
ZRL_SYMBOL = 0xF0
#: Longest zero run expressible in a single (run, size) symbol.
MAX_ZERO_RUN = 15


def block_run_stats(
    zz: np.ndarray, reset_interval: int = 0
) -> tuple:
    """DPCM differences and zero runs of a whole block stack at once.

    For an already-validated ``(N, 64)`` int64 stack, returns
    ``(diffs, rows, ac_values, zrl_counts, runs, has_eob)``: the DPCM
    DC differences (with the predictor reset every ``reset_interval``
    blocks when nonzero), the block index and value of every nonzero AC
    coefficient in coding order, the zero run preceding each nonzero
    with its ZRL-escape count, and the per-block end-of-block flags —
    the token semantics of :func:`repro.reference.encode_dc` /
    :func:`repro.reference.encode_ac`, vectorized for the fused coder in
    :mod:`repro.jpeg.codec`.
    """
    n_blocks = zz.shape[0]
    dc = zz[:, 0]
    previous = np.empty(n_blocks, dtype=np.int64)
    previous[0] = 0
    previous[1:] = dc[:-1]
    if reset_interval:
        previous[::reset_interval] = 0
    diffs = dc - previous

    ac = zz[:, 1:]
    rows, cols = np.nonzero(ac)
    n_nonzero = rows.shape[0]
    if n_nonzero:
        ac_values = ac[rows, cols]
        previous_cols = np.empty(n_nonzero, dtype=np.int64)
        # A sentinel of -1 makes `cols - previous_cols - 1` the run
        # length for the first nonzero of each block too.
        previous_cols[0] = -1
        previous_cols[1:] = cols[:-1]
        first_mask = np.empty(n_nonzero, dtype=bool)
        first_mask[0] = False
        first_mask[1:] = rows[1:] != rows[:-1]
        previous_cols[first_mask] = -1
        runs = cols - previous_cols - 1
        zrl_counts = runs >> 4
    else:
        ac_values = np.empty(0, dtype=np.int64)
        runs = np.empty(0, dtype=np.int64)
        zrl_counts = np.empty(0, dtype=np.int64)
    has_eob = ac[:, -1] == 0
    return diffs, rows, ac_values, zrl_counts, runs, has_eob
