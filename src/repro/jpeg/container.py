"""Versioned byte containers for entropy-coded grayscale images.

A container is a self-contained artifact: it carries the quantization
table and the entropy-coded bitstream, so a stream compressed on one
machine can be decoded on another with no out-of-band state — the
serving counterpart of the DQT segment a real JPEG file embeds (the
Huffman tables are always Annex K luminance, so none travel).
Round-trips are exact: ``unpack_container(pack_grayscale_image(...))``
reproduces the :class:`~repro.jpeg.codec.EncodedChannel` byte for byte.

Layout (all integers little-endian)::

    magic    b"DNJC"
    version  u8   (1)
    kind     u8   (0 = grayscale channel)
    table    u8 name length, name (UTF-8), 64 steps as raw bytes
    channel  u32 height, width, grid rows, grid cols, block count
    flag     u8   (0: no embedded Huffman tables)
    stream   u32 length, entropy-coded bytes

Quantization steps are integers in [1, 255] by construction, stored in
row-major order.  Earlier builds also wrote colour containers (kind 1)
and streams with embedded per-image Huffman tables (flag 1); reading
either raises :class:`ContainerError` ("no longer supported").

A stream of containers usually repeats one table, so reading keeps a
memo of the last 16 distinct tables, keyed by the name and the 64 step
bytes: a container of a table already seen reuses its validated
:class:`~repro.jpeg.quantization.QuantizationTable` and its codec
instead of rebuilding both.  A table that fails validation raises
every time and never enters the memo.
"""

from __future__ import annotations

import functools
import struct

import numpy as np

from repro.jpeg.codec import EncodedChannel, GrayscaleJpegCodec
from repro.jpeg.dct import BLOCK_SIZE
from repro.jpeg.quantization import QuantizationTable

CONTAINER_MAGIC = b"DNJC"
CONTAINER_VERSION = 1

KIND_GRAYSCALE = 0
#: The colour kind earlier builds wrote; reading it raises.
_RETIRED_KIND_COLOR = 1

#: Distinct tables whose parsed form :func:`_table_codec` keeps.
_TABLE_MEMO_SIZE = 16

#: The fewest bits one block can take: a 2-bit DC category-0 code plus
#: the 4-bit EOB (Annex K luminance).  A constant image measures exactly
#: this, so a stream shorter than ``block_count`` times it is corrupt.
_MIN_BITS_PER_BLOCK = 6


class ContainerError(ValueError):
    """A byte container is malformed, truncated or unsupported."""


class _Writer:
    def __init__(self) -> None:
        self._parts: "list[bytes]" = []

    def u8(self, value: int) -> None:
        self._parts.append(struct.pack("<B", value))

    def u32(self, value: int) -> None:
        self._parts.append(struct.pack("<I", value))

    def raw(self, data: bytes) -> None:
        self._parts.append(data)

    def sized(self, data: bytes) -> None:
        self.u32(len(data))
        self.raw(data)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class _Reader:
    def __init__(self, data: bytes) -> None:
        self._data = bytes(data)
        self._offset = 0

    def u8(self) -> int:
        return struct.unpack_from("<B", self._take(1))[0]

    def u32(self) -> int:
        return struct.unpack_from("<I", self._take(4))[0]

    def raw(self, size: int) -> bytes:
        return self._take(size)

    def sized(self) -> bytes:
        return self.raw(self.u32())

    def done(self) -> bool:
        return self._offset == len(self._data)

    def _take(self, size: int) -> bytes:
        end = self._offset + size
        if end > len(self._data):
            raise ContainerError(
                f"container truncated: wanted {size} bytes at offset "
                f"{self._offset}, have {len(self._data) - self._offset}"
            )
        chunk = self._data[self._offset:end]
        self._offset = end
        return chunk


def _write_quantization_table(writer: _Writer, table: QuantizationTable) -> None:
    name = table.name.encode("utf-8")
    if len(name) > 255:
        raise ContainerError("quantization table name exceeds 255 bytes")
    writer.u8(len(name))
    writer.raw(name)
    # Steps are integers in [1, 255], stored row-major.
    writer.raw(table.values.astype(np.uint8).tobytes())


def _read_quantization_table(reader: _Reader) -> GrayscaleJpegCodec:
    """The codec of the container's table, parsed once per table."""
    raw_name = reader.raw(reader.u8())
    try:
        name = raw_name.decode("utf-8")
    except UnicodeDecodeError as error:
        raise ContainerError(
            f"quantization table name {raw_name!r} is not UTF-8"
        ) from error
    return _table_codec(name, reader.raw(64))


@functools.lru_cache(maxsize=_TABLE_MEMO_SIZE)
def _table_codec(name: str, steps: bytes) -> GrayscaleJpegCodec:
    """Validate one table's raw steps and build its codec.

    Memoized on the name and the step bytes: a container of a table
    already seen reuses its :class:`QuantizationTable` and codec.  A
    table that fails validation raises, so it never enters the memo.
    """
    values = np.frombuffer(steps, dtype=np.uint8)
    try:
        table = QuantizationTable(
            values.reshape(8, 8).astype(np.float64), name=name
        )
    except ValueError as error:  # a zero step
        raise ContainerError(f"invalid quantization table: {error}") from error
    return GrayscaleJpegCodec(table)


def _write_channel(writer: _Writer, encoded: EncodedChannel) -> None:
    height, width = encoded.channel_shape
    rows, cols = encoded.grid_shape
    for value in (height, width, rows, cols, encoded.block_count):
        writer.u32(int(value))
    writer.u8(0)  # no embedded Huffman tables
    writer.sized(encoded.data)


def _read_channel(reader: _Reader) -> EncodedChannel:
    height, width, rows, cols, block_count = (reader.u32() for _ in range(5))
    flag = reader.u8()
    if flag:
        raise ContainerError(
            f"embedded Huffman tables (flag {flag}) are no longer supported"
        )
    grid = (-(-height // BLOCK_SIZE), -(-width // BLOCK_SIZE))
    if (rows, cols) != grid or block_count != rows * cols:
        raise ContainerError(
            f"a {height}x{width} channel has a {grid[0]}x{grid[1]} block "
            f"grid, but the container records {rows}x{cols} with "
            f"{block_count} blocks"
        )
    data = reader.sized()
    # Bounds what the decoder allocates by what the stream can hold.
    if _MIN_BITS_PER_BLOCK * block_count > 8 * len(data):
        raise ContainerError(
            f"{block_count} blocks need at least "
            f"{_MIN_BITS_PER_BLOCK * block_count} bits, but the stream "
            f"holds {8 * len(data)}"
        )
    return EncodedChannel(
        data=data,
        grid_shape=(rows, cols),
        channel_shape=(height, width),
        block_count=block_count,
    )


def _write_header(writer: _Writer) -> None:
    writer.raw(CONTAINER_MAGIC)
    writer.u8(CONTAINER_VERSION)
    writer.u8(KIND_GRAYSCALE)


def _read_header(reader: _Reader) -> None:
    magic = reader.raw(len(CONTAINER_MAGIC))
    if magic != CONTAINER_MAGIC:
        raise ContainerError(f"bad container magic {magic!r}")
    version = reader.u8()
    if version != CONTAINER_VERSION:
        raise ContainerError(
            f"unsupported container version {version} "
            f"(this build reads version {CONTAINER_VERSION})"
        )
    kind = reader.u8()
    if kind == _RETIRED_KIND_COLOR:
        raise ContainerError(
            "colour containers (kind 1) are no longer supported"
        )
    if kind != KIND_GRAYSCALE:
        raise ContainerError(f"unknown container kind {kind}")


def pack_grayscale_image(
    encoded: EncodedChannel, table: QuantizationTable
) -> bytes:
    """Pack one encoded grayscale channel and its table into a container."""
    writer = _Writer()
    _write_header(writer)
    _write_quantization_table(writer, table)
    _write_channel(writer, encoded)
    return writer.getvalue()


def _unpack(data: bytes) -> "tuple[EncodedChannel, GrayscaleJpegCodec]":
    """Parse a container into its channel and the codec of its table."""
    reader = _Reader(data)
    _read_header(reader)
    codec = _read_quantization_table(reader)
    encoded = _read_channel(reader)
    if not reader.done():
        raise ContainerError("trailing bytes after container payload")
    return encoded, codec


def unpack_container(data: bytes) -> tuple:
    """Parse a container into ``(encoded, table)``.

    ``encoded`` is the :class:`~repro.jpeg.codec.EncodedChannel` and
    ``table`` its :class:`~repro.jpeg.quantization.QuantizationTable`;
    containers of one table share one (immutable) table object.
    Trailing bytes are rejected, so the container boundary is
    unambiguous in concatenated streams handled by the caller.  Every
    malformed container raises :class:`ContainerError`.
    """
    encoded, codec = _unpack(data)
    return encoded, codec.table


def decode_image_bytes(data: bytes) -> np.ndarray:
    """Decode a container straight to pixels using its embedded table.

    This is the edge-side entry point: no fitted pipeline or codec
    object is needed, only the container bytes.  Malformed bytes raise
    :class:`ContainerError`; an entropy-coded stream the decoder cannot
    walk (cut short, or holding an invalid code) is chained as its
    ``__cause__``.
    """
    encoded, codec = _unpack(data)
    try:
        return codec.decode(encoded)
    except (EOFError, ValueError) as error:
        raise ContainerError(
            f"corrupt entropy-coded stream: {error}"
        ) from error
