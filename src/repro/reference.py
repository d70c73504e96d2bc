"""Scalar parity references for the production kernels.

Every figure rests on two vectorized kernels, and each keeps a slow,
obviously-correct twin here so the tests can assert the two agree bit
for bit (lint rule R1 pins each pair):

* :func:`im2col_scalar` / :func:`col2im_scalar` — loop-and-copy patch
  gather and scatter-add in row layout, the references of the private
  slice helpers :func:`repro.nn.im2col._gather` and
  :func:`repro.nn.im2col._scatter` that
  :class:`~repro.nn.conv.Conv2D` runs.
* :func:`encode_scalar` / :func:`decode_scalar` — the Annex K entropy
  coder one token at a time through a :class:`BitWriter` and one bit at
  a time through a :class:`BitReader`, the references of the fused
  coder (:meth:`repro.jpeg.codec._ChannelCoder.entropy_code` with
  :func:`~repro.jpeg.bitstream.pack_bits`) and of its table-driven
  decode walk.  The token helpers below them are the T.81 rules
  written out: DPCM DC tokens, run-length AC tokens with ZRL and EOB,
  one's complement magnitude bits and canonical Huffman codes.

Nothing in production imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.jpeg.bitstream import magnitude_category
from repro.jpeg.codec import EncodedChannel, _ChannelCoder
from repro.jpeg.huffman import MAX_CODE_LENGTH, HuffmanTable
from repro.jpeg.quantization import QuantizationTable
from repro.jpeg.rle import EOB_SYMBOL, MAX_ZERO_RUN, ZRL_SYMBOL
from repro.nn.im2col import conv_output_size

# ----------------------------------------------------------------------
# im2col / col2im
# ----------------------------------------------------------------------


def im2col_scalar(
    images: np.ndarray, kernel_h: int, kernel_w: int, stride: int, pad: int
) -> np.ndarray:
    """Reference im2col: loop-and-copy through a 6-D scratch tensor.

    Returns ``(N * out_h * out_w, C * kernel_h * kernel_w)`` rows, one
    receptive field each.
    """
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
    """Reference col2im: transpose to a 6-D tensor, then scatter-add.

    The adjoint of :func:`im2col_scalar`: overlapping window positions
    accumulate into the NCHW ``input_shape``.
    """
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


# ----------------------------------------------------------------------
# Bit I/O
# ----------------------------------------------------------------------


class BitWriter:
    """Accumulates bits MSB-first and emits a stuffed JPEG byte stream.

    Every emitted 0xFF byte is followed by a stuffed 0x00 (T.81
    B.1.1.5).
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._accumulator = 0
        self._bit_count = 0
        self._bits_written = 0

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
        if byte == 0xFF:
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

    @property
    def bit_length(self) -> int:
        """Total number of payload bits written so far (excludes stuffing)."""
        return self._bits_written


class BitReader:
    """Reads bits MSB-first from a stuffed JPEG byte stream.

    A 0x00 directly after a 0xFF byte is a stuffed byte and is skipped.
    """

    def __init__(self, data: bytes) -> None:
        self._data = bytes(data)
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
            byte == 0xFF
            and self._position < len(self._data)
            and self._data[self._position] == 0x00
        ):
            self._position += 1
        self._accumulator = byte
        self._bit_count = 8


# ----------------------------------------------------------------------
# Tokens, magnitudes and Huffman codes
# ----------------------------------------------------------------------


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


def encode_symbol(table: HuffmanTable, symbol: int) -> "tuple[int, int]":
    """The canonical ``(code, length)`` of ``symbol`` in ``table``."""
    try:
        return table._encode_map[symbol]
    except KeyError as exc:
        raise KeyError(
            f"symbol {symbol:#x} not present in Huffman table '{table.name}'"
        ) from exc


def decode_symbol(table: HuffmanTable, reader: BitReader) -> int:
    """Read one Huffman code of ``table`` from ``reader``, bit by bit."""
    code = 0
    length = 0
    while length < MAX_CODE_LENGTH:
        code = (code << 1) | reader.read_bit()
        length += 1
        symbol = table._decode_map.get((code, length))
        if symbol is not None:
            return symbol
    raise ValueError(f"invalid Huffman code in table '{table.name}'")


# ----------------------------------------------------------------------
# The entropy coder
# ----------------------------------------------------------------------


def encode_scalar(
    table: QuantizationTable, channel: np.ndarray
) -> EncodedChannel:
    """Reference encoder: one token at a time through a BitWriter.

    Quantizes ``channel`` as the codec does, then codes every block with
    the Annex K luminance tables.
    """
    coder = _ChannelCoder(table)
    zz_blocks, grid_shape = coder.quantized_batch(channel[np.newaxis])
    writer = BitWriter()
    previous_dc = 0
    for block in zz_blocks:
        dc_token = encode_dc(int(block[0]), previous_dc)
        previous_dc = int(block[0])
        writer.write_code(encode_symbol(coder.dc_huffman, dc_token.symbol))
        writer.write_bits(dc_token.amplitude_bits, dc_token.amplitude_length)
        for token in encode_ac(block[1:]):
            writer.write_code(encode_symbol(coder.ac_huffman, token.symbol))
            writer.write_bits(token.amplitude_bits, token.amplitude_length)
    return EncodedChannel(
        data=writer.getvalue(),
        grid_shape=grid_shape,
        channel_shape=(channel.shape[0], channel.shape[1]),
        block_count=zz_blocks.shape[0],
    )


def decode_scalar(
    table: QuantizationTable, encoded: EncodedChannel
) -> np.ndarray:
    """Reference decoder: bit-at-a-time through a BitReader.

    Returns the pixel channel the codec reconstructs from the decoded
    blocks.
    """
    coder = _ChannelCoder(table)
    reader = BitReader(encoded.data)
    zz_blocks = np.zeros((encoded.block_count, 64), dtype=np.int32)
    previous_dc = 0
    for block_index in range(encoded.block_count):
        category = decode_symbol(coder.dc_huffman, reader)
        bits = reader.read_bits(category)
        previous_dc += decode_magnitude(bits, category)
        zz_blocks[block_index, 0] = previous_dc
        position = 1
        while position < 64:
            symbol = decode_symbol(coder.ac_huffman, reader)
            if symbol == EOB_SYMBOL:
                break
            if symbol == ZRL_SYMBOL:
                position += MAX_ZERO_RUN + 1
                continue
            run = symbol >> 4
            category = symbol & 0x0F
            position += run
            if position >= 64:
                raise ValueError("AC stream overruns block during decode")
            bits = reader.read_bits(category)
            zz_blocks[block_index, position] = decode_magnitude(
                bits, category
            )
            position += 1
    return coder.reconstruct_batch(
        zz_blocks, 1, encoded.grid_shape, encoded.channel_shape
    )[0]
