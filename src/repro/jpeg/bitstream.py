"""Vectorized bit packing and the peek windows of the decode walk.

The JPEG entropy-coded segment is a stream of variable-length Huffman
codes and raw magnitude bits.  :func:`pack_bits` packs a whole stream of
``(value, length)`` pairs in one pass via cumulative bit offsets and
``np.packbits``, then stuffs a 0x00 after every 0xFF (T.81 section
B.1.1.5) with one ``bytes.replace``.  :func:`peek_words` destuffs a
stream and exposes the 64 bits at every byte offset, read as one
strided big-endian view, so a dense lookup table resolves each Huffman
code in O(1).

The scalar reference, :class:`repro.reference.BitWriter` and
:class:`repro.reference.BitReader`, packs and unpacks one value at a
time; the tests assert both produce and consume bit-identical byte
streams over random streams and the stuffing/padding edge cases.
"""

from __future__ import annotations

import numpy as np


def _build_category_lut(bits: int = 11) -> np.ndarray:
    """``lut[v] = v.bit_length()`` for every magnitude below ``2**bits``."""
    lut = np.zeros(1 << bits, dtype=np.int64)
    for length in range(1, bits + 1):
        lut[1 << (length - 1):1 << length] = length
    return lut


#: Dense bit-length table up to category 11, the largest the Annex K
#: luminance tables code (DC differences; AC values stop at 10).
_CATEGORY_LUT = _build_category_lut()

#: ``2**category - 1`` for every magnitude in :data:`_CATEGORY_LUT`: the
#: one's complement adjustment T.81 applies to negative values.
_CATEGORY_MASK_LUT = (1 << _CATEGORY_LUT) - 1


def magnitude_category(value: int) -> int:
    """Return the JPEG size category (number of magnitude bits) of ``value``.

    Exactly ``ceil(log2(|value| + 1))``, computed with integer bit-length
    arithmetic so large DC differences cannot hit float rounding.
    """
    return abs(int(value)).bit_length()


def destuff_bytes(data: bytes) -> bytes:
    """Remove the 0x00 stuffed after every 0xFF byte."""
    return bytes(data).replace(b"\xff\x00", b"\xff")


def pack_bits(values: np.ndarray, lengths: np.ndarray) -> bytes:
    """Pack a stream of ``(value, length)`` pairs into a JPEG byte stream.

    The vectorized equivalent of writing every pair through
    :class:`repro.reference.BitWriter`: bits are concatenated MSB-first,
    the final partial byte is padded with 1-bits and 0xFF bytes are
    stuffed.  Zero-length entries contribute nothing, as in the scalar
    writer.
    """
    values = np.asarray(values, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape[0] == 0:
        return b""
    ends = np.cumsum(lengths)
    total_bits = int(ends[-1])
    if total_bits == 0:
        return b""
    pad = (-total_bits) % 8
    token_index = np.repeat(np.arange(lengths.shape[0]), lengths)
    # Stream position p inside token i carries bit (ends[i] - 1 - p) of
    # the token's value, i.e. MSB first.
    shifts = ends[token_index] - np.arange(1, total_bits + 1)
    raw_bits = (values[token_index] >> shifts) & 1
    if pad:
        # The final partial byte is padded with 1-bits, as the scalar
        # writer does on flush.
        bits = np.ones(total_bits + pad, dtype=np.uint8)
        bits[:total_bits] = raw_bits
    else:
        bits = raw_bits.astype(np.uint8)
    return np.packbits(bits).tobytes().replace(b"\xff", b"\xff\x00")


def peek_words(data: bytes) -> "tuple[np.ndarray, int]":
    """Return 64-bit big-endian peek words for every byte of a stream.

    ``words[i]`` holds bytes ``i .. i+7`` of the (destuffed) payload,
    padded past the end with 1-bits, so the 32 bits starting at any bit
    offset ``p`` are ``(words[p >> 3] >> (32 - (p & 7))) & 0xFFFFFFFF``
    — one table-driven Huffman resolution plus its magnitude bits per
    peek, with no bit-at-a-time reads.  The words are one big-endian
    ``>u8`` view with a stride of one byte over the padded payload,
    returned as a native ``uint64`` array; its consumer, the decode walk
    of :mod:`repro.jpeg.codec`, converts it to a list of Python ints at
    its call site.  The second element is the number of real payload
    bits.
    """
    data = destuff_bytes(data)
    count = len(data)
    words = np.ndarray(
        (count + 1,), dtype=">u8", buffer=data + b"\xff" * 8, strides=(1,)
    )
    return words.astype(np.uint64), count * 8
