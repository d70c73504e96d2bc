"""Bit-level writer/reader and the vectorized bit-packing fast path.

The JPEG entropy-coded segment is a stream of variable-length Huffman
codes and raw magnitude bits.  Two implementations coexist:

* ``BitWriter`` / ``BitReader`` — the scalar reference: bits are packed
  MSB-first one value at a time (with the 0xFF byte-stuffing rule of
  T.81 section B.1.1.5) and unpacked again bit by bit.  This path is
  kept for parity testing and for readers of the spec.
* :func:`pack_bits` and the window/LUT helpers — the NumPy fast path:
  a whole stream of ``(value, length)`` pairs is packed in one pass via
  cumulative bit offsets, ``np.packbits`` and post-hoc byte stuffing,
  and decoding peeks 16-bit windows computed once for every bit offset
  so a dense lookup table resolves each Huffman code in O(1).

Both produce and consume bit-identical byte streams; the tests assert
this over random streams and the stuffing/padding edge cases.
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


class BitWriter:
    """Accumulates bits MSB-first and emits a stuffed JPEG byte stream."""

    def __init__(self, byte_stuffing: bool = True) -> None:
        self._buffer = bytearray()
        self._accumulator = 0
        self._bit_count = 0
        self._bits_written = 0
        self._byte_stuffing = byte_stuffing

    def write_bits(self, value: int, length: int) -> None:
        """Append the ``length`` low-order bits of ``value``, MSB first."""
        if length < 0:
            raise ValueError("bit length must be non-negative")
        if length == 0:
            return
        if value < 0 or value >= (1 << length):
            raise ValueError(
                f"value {value} does not fit in {length} bits"
            )
        self._accumulator = (self._accumulator << length) | value
        self._bit_count += length
        self._bits_written += length
        while self._bit_count >= 8:
            self._bit_count -= 8
            byte = (self._accumulator >> self._bit_count) & 0xFF
            self._emit_byte(byte)
        self._accumulator &= (1 << self._bit_count) - 1

    def write_code(self, code: "tuple[int, int]") -> None:
        """Append a ``(value, length)`` Huffman code."""
        value, length = code
        self.write_bits(value, length)

    def _emit_byte(self, byte: int) -> None:
        self._buffer.append(byte)
        if self._byte_stuffing and byte == 0xFF:
            self._buffer.append(0x00)

    def getvalue(self) -> bytes:
        """Flush (padding the final partial byte with 1-bits) and return bytes."""
        if self._bit_count:
            pad = 8 - self._bit_count
            padded = (self._accumulator << pad) | ((1 << pad) - 1)
            self._emit_byte(padded & 0xFF)
            self._accumulator = 0
            self._bit_count = 0
        return bytes(self._buffer)

    def __len__(self) -> int:
        """Number of whole bytes emitted so far (excluding pending bits)."""
        return len(self._buffer)

    @property
    def bit_length(self) -> int:
        """Total number of payload bits written so far (excludes stuffing)."""
        return self._bits_written


class BitReader:
    """Reads bits MSB-first from a stuffed JPEG byte stream."""

    def __init__(self, data: bytes, byte_stuffing: bool = True) -> None:
        self._data = bytes(data)
        self._byte_stuffing = byte_stuffing
        self._position = 0
        self._accumulator = 0
        self._bit_count = 0

    def read_bit(self) -> int:
        """Read a single bit; raises ``EOFError`` when exhausted."""
        if self._bit_count == 0:
            self._fill()
        self._bit_count -= 1
        return (self._accumulator >> self._bit_count) & 1

    def read_bits(self, length: int) -> int:
        """Read ``length`` bits and return them as an unsigned integer."""
        if length < 0:
            raise ValueError("bit length must be non-negative")
        value = 0
        for _ in range(length):
            value = (value << 1) | self.read_bit()
        return value

    def _fill(self) -> None:
        if self._position >= len(self._data):
            raise EOFError("bit stream exhausted")
        byte = self._data[self._position]
        self._position += 1
        if (
            self._byte_stuffing
            and byte == 0xFF
            and self._position < len(self._data)
            and self._data[self._position] == 0x00
        ):
            self._position += 1
        self._accumulator = byte
        self._bit_count = 8


def magnitude_category(value: int) -> int:
    """Return the JPEG size category (number of magnitude bits) of ``value``.

    Exactly ``ceil(log2(|value| + 1))``, computed with integer bit-length
    arithmetic so large DC differences cannot hit float rounding.
    """
    return abs(int(value)).bit_length()


def encode_magnitude(value: int) -> "tuple[int, int]":
    """Encode ``value`` as JPEG magnitude bits ``(bits, length)``.

    Positive values are written as-is; negative values use the one's
    complement convention of T.81 (section F.1.2.1.1).
    """
    category = magnitude_category(value)
    if category == 0:
        return 0, 0
    if value > 0:
        return int(value), category
    return int(value + (1 << category) - 1), category


def decode_magnitude(bits: int, category: int) -> int:
    """Invert :func:`encode_magnitude` given the raw bits and category."""
    if category == 0:
        return 0
    if bits >> (category - 1):
        return int(bits)
    return int(bits - (1 << category) + 1)


def stuff_byte_array(data: np.ndarray) -> np.ndarray:
    """Insert a 0x00 after every 0xFF byte (T.81 B.1.1.5), vectorized."""
    data = np.asarray(data, dtype=np.uint8)
    is_ff = data == 0xFF
    if not is_ff.any():
        return data
    # Each byte lands after all the stuffed zeros of the 0xFFs before it;
    # the gaps left in the zero-initialised output are the stuffed bytes.
    inclusive = np.cumsum(is_ff)
    out = np.zeros(data.shape[0] + int(inclusive[-1]), dtype=np.uint8)
    out[np.arange(data.shape[0]) + inclusive - is_ff] = data
    return out


def destuff_bytes(data: bytes) -> bytes:
    """Remove the 0x00 stuffed after every 0xFF byte."""
    return bytes(data).replace(b"\xff\x00", b"\xff")


def pack_bits(
    values: np.ndarray, lengths: np.ndarray, byte_stuffing: bool = True
) -> bytes:
    """Pack a stream of ``(value, length)`` pairs into a JPEG byte stream.

    The vectorized equivalent of writing every pair through
    :class:`BitWriter`: bits are concatenated MSB-first, the final
    partial byte is padded with 1-bits and 0xFF bytes are stuffed.
    Zero-length entries contribute nothing, as in the scalar writer.
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
    data = np.packbits(bits)
    if byte_stuffing:
        data = stuff_byte_array(data)
    return data.tobytes()


def peek_words(
    data: bytes, byte_stuffing: bool = True
) -> "tuple[np.ndarray, int]":
    """Return 64-bit big-endian peek words for every byte of a stream.

    ``words[i]`` holds bytes ``i .. i+7`` of the (destuffed) payload,
    padded past the end with 1-bits, so the 32 bits starting at any bit
    offset ``p`` are ``(words[p >> 3] >> (32 - (p & 7))) & 0xFFFFFFFF``
    — one table-driven Huffman resolution plus its magnitude bits per
    peek, with no bit-at-a-time reads.  Returned as a ``uint64`` array
    built with a few vectorized shifts; its consumer, the decode walk
    of :mod:`repro.jpeg.codec`, converts it to a list of Python ints at
    its call site.  The second element is the number of real payload
    bits.
    """
    if byte_stuffing:
        data = destuff_bytes(data)
    count = len(data)
    extended = np.empty(count + 8, dtype=np.uint8)
    extended[:count] = np.frombuffer(data, dtype=np.uint8)
    extended[count:] = 0xFF
    words = extended[:count + 1].astype(np.uint64)
    for offset in range(1, 8):
        words <<= np.uint64(8)
        words |= extended[offset:count + 1 + offset]
    return words, count * 8
