"""DC differential coding and AC run-length coding of quantized blocks.

Quantized blocks (already in zig-zag order) are translated into the symbol
stream of baseline JPEG: the DC coefficient of each block is coded as the
difference from the previous block's DC (DPCM) using a size category plus
magnitude bits, and the 63 AC coefficients are coded as
``(zero-run, size)`` symbols with ZRL (16-zero run) and EOB (end of block)
escapes.

:func:`encode_dc` / :func:`encode_ac` are the scalar reference, one
token at a time.  :func:`block_run_stats` derives the same DPCM
differences and zero runs for a whole ``(N, 64)`` stack with
whole-array NumPy ops; the fused entropy coder of
:mod:`repro.jpeg.codec` builds on it, and the tests assert its byte
streams are bit-identical to the scalar reference's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.jpeg.bitstream import encode_magnitude, magnitude_category

#: End-of-block AC symbol.
EOB_SYMBOL = 0x00
#: Zero-run-length AC symbol (a run of 16 zeros).
ZRL_SYMBOL = 0xF0
#: Longest zero run expressible in a single (run, size) symbol.
MAX_ZERO_RUN = 15


@dataclass(frozen=True)
class AcToken:
    """One AC entropy-coding token.

    ``symbol`` packs the zero run in the high nibble and the magnitude
    category in the low nibble.  ``amplitude_bits``/``amplitude_length``
    are the raw magnitude bits appended after the Huffman code for the
    symbol (zero-length for EOB and ZRL).
    """

    symbol: int
    amplitude_bits: int
    amplitude_length: int


@dataclass(frozen=True)
class DcToken:
    """One DC entropy-coding token (size category plus magnitude bits)."""

    symbol: int
    amplitude_bits: int
    amplitude_length: int


def encode_dc(dc_value: int, previous_dc: int) -> DcToken:
    """DPCM-encode a block's DC coefficient against the previous block's."""
    diff = int(dc_value) - int(previous_dc)
    category = magnitude_category(diff)
    bits, length = encode_magnitude(diff)
    return DcToken(symbol=category, amplitude_bits=bits, amplitude_length=length)


def encode_ac(ac_coefficients: np.ndarray) -> "list[AcToken]":
    """Run-length encode the 63 zig-zag-ordered AC coefficients of a block."""
    ac_coefficients = np.asarray(ac_coefficients)
    if ac_coefficients.shape != (63,):
        raise ValueError(
            f"expected 63 AC coefficients, got shape {ac_coefficients.shape}"
        )
    tokens = []
    run = 0
    for value in ac_coefficients:
        value = int(value)
        if value == 0:
            run += 1
            continue
        while run > MAX_ZERO_RUN:
            tokens.append(AcToken(ZRL_SYMBOL, 0, 0))
            run -= MAX_ZERO_RUN + 1
        category = magnitude_category(value)
        bits, length = encode_magnitude(value)
        tokens.append(
            AcToken(symbol=(run << 4) | category, amplitude_bits=bits,
                    amplitude_length=length)
        )
        run = 0
    if run > 0:
        tokens.append(AcToken(EOB_SYMBOL, 0, 0))
    return tokens


def decode_ac(tokens: "list[AcToken]") -> np.ndarray:
    """Invert :func:`encode_ac`, returning the 63 AC coefficients."""
    from repro.jpeg.bitstream import decode_magnitude

    coefficients = np.zeros(63, dtype=np.int32)
    position = 0
    for token in tokens:
        if token.symbol == EOB_SYMBOL:
            break
        if token.symbol == ZRL_SYMBOL:
            position += MAX_ZERO_RUN + 1
            continue
        run = token.symbol >> 4
        category = token.symbol & 0x0F
        position += run
        if position >= 63:
            raise ValueError("AC token stream overruns the block")
        coefficients[position] = decode_magnitude(
            token.amplitude_bits, category
        )
        position += 1
    return coefficients


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
    the token semantics of :func:`encode_dc` / :func:`encode_ac`,
    vectorized for the fused coder in :mod:`repro.jpeg.codec`.
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
