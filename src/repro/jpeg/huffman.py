"""Huffman coding for the JPEG entropy coder.

Provides the two Annex K luminance Huffman tables (DC differences and AC
coefficients), the only tables the codec codes with.  Tables are
canonical: they are fully described by the T.81 ``BITS``/``HUFFVAL``
lists, which is also how their header cost is accounted.

The codec reads each table through two dense representations, built
lazily: :meth:`HuffmanTable.encode_arrays` (256-entry code/length
arrays from which the codec builds its fused encode tables and the
decoder its whole-token AC table) and :meth:`HuffmanTable.decode_lut`
(a 2**16-entry table resolving any 16-bit peek window to its symbol
and code length in one lookup, which the decoder reads for DC codes
only).  Each is built on first use and kept on the instance.  The
code-at-a-time
reference, :func:`repro.reference.encode_symbol` and
:func:`repro.reference.decode_symbol`, reads the canonical code maps
directly.

Tables are immutable, and each ``HuffmanTable.standard_*()`` factory
returns one instance shared by the whole process, so every codec shares
their lookup tables: they are built at most once per process, not once
per codec.  Building needs no lock: threads racing on a first use build
equal tables, and either result serves.  A table pickles as its
``(bits, values, name)`` identity only, and an Annex K identity
unpickles to the shared instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_CODE_LENGTH = 16

#: Size of the dense symbol space (JPEG entropy symbols are one byte).
SYMBOL_SPACE = 256

# Annex K Table K.3 — luminance DC coefficient differences.
_DC_LUMA_BITS = [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
_DC_LUMA_VALUES = list(range(12))

# Annex K Table K.5 — luminance AC coefficients.
_AC_LUMA_BITS = [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D]
_AC_LUMA_VALUES = [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
    0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
    0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
    0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0,
    0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16,
    0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
    0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
    0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
    0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
    0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
    0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
    0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
    0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
    0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5,
    0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4,
    0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
    0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA,
    0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
    0xF9, 0xFA,
]

@dataclass(frozen=True)
class HuffmanTable:
    """A canonical Huffman table in the T.81 BITS/HUFFVAL representation.

    Immutable: ``bits`` and ``values`` are stored as tuples of ints
    whatever sequences the caller passes, so a table can be shared
    safely together with the lookup tables built from it.

    Attributes
    ----------
    bits:
        ``bits[k]`` is the number of codes of length ``k + 1`` (16 entries).
    values:
        Symbols ordered by increasing code length, then assignment order.
    name:
        Optional label for debugging and reports.
    """

    bits: "tuple[int, ...]"
    values: "tuple[int, ...]"
    name: str = "huffman"
    _encode_map: dict = field(init=False, repr=False, compare=False)
    _decode_map: dict = field(init=False, repr=False, compare=False)
    _dense: tuple = field(init=False, repr=False, compare=False, default=None)
    _decode_lut: tuple = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", tuple(int(count) for count in self.bits))
        object.__setattr__(
            self, "values", tuple(int(symbol) for symbol in self.values)
        )
        if len(self.bits) != MAX_CODE_LENGTH:
            raise ValueError(
                f"bits must have {MAX_CODE_LENGTH} entries, got {len(self.bits)}"
            )
        if sum(self.bits) != len(self.values):
            raise ValueError(
                "sum(bits) must equal the number of symbols "
                f"({sum(self.bits)} != {len(self.values)})"
            )
        encode_map, decode_map = _build_canonical_codes(self.bits, self.values)
        object.__setattr__(self, "_encode_map", encode_map)
        object.__setattr__(self, "_decode_map", decode_map)

    def __reduce__(self):
        # Only the identity travels: the lookup tables are rebuilt on
        # demand, and an Annex K table resolves to the shared instance.
        return _unpickle_table, (self.bits, self.values, self.name)

    def encode_arrays(self) -> "tuple[np.ndarray, np.ndarray]":
        """Dense ``(codes, lengths)`` lookup arrays indexed by symbol 0–255.

        ``lengths[s]`` is 0 for symbols absent from the table, so the
        vectorized encoder can map a whole symbol stream with two fancy
        indexing operations and detect missing symbols in one check.
        Built on first use and kept on the instance, so for a shared
        Annex K table once per process.
        """
        if self._dense is None:
            codes = np.zeros(SYMBOL_SPACE, dtype=np.int64)
            lengths = np.zeros(SYMBOL_SPACE, dtype=np.int64)
            for symbol, (code, length) in self._encode_map.items():
                codes[symbol] = code
                lengths[symbol] = length
            codes.setflags(write=False)
            lengths.setflags(write=False)
            object.__setattr__(self, "_dense", (codes, lengths))
        return self._dense

    def decode_lut(self) -> "tuple[list, list]":
        """Dense ``(symbols, lengths)`` decode tables over 16-bit windows.

        Entry ``w`` resolves the Huffman code found in the high bits of
        the 16-bit window ``w``: ``symbols[w]`` is the decoded symbol
        (-1 if no code matches) and ``lengths[w]`` its bit length.
        Returned as plain Python lists — the sequential decode walk
        indexes them with Python ints, which avoids NumPy scalar boxing.
        Built on first use and kept on the instance, so for a shared
        Annex K table once per process; every codec reads the same
        lists, and none may modify them.
        """
        if self._decode_lut is None:
            symbols = np.full(1 << MAX_CODE_LENGTH, -1, dtype=np.int64)
            lengths = np.zeros(1 << MAX_CODE_LENGTH, dtype=np.int64)
            for (code, length), symbol in self._decode_map.items():
                start = code << (MAX_CODE_LENGTH - length)
                end = (code + 1) << (MAX_CODE_LENGTH - length)
                symbols[start:end] = symbol
                lengths[start:end] = length
            object.__setattr__(
                self, "_decode_lut", (symbols.tolist(), lengths.tolist())
            )
        return self._decode_lut

    def header_cost_bytes(self) -> int:
        """Size of the DHT segment payload describing this table.

        One class/id byte + 16 BITS bytes + one byte per symbol, matching
        the JPEG DHT marker segment layout.
        """
        return 1 + MAX_CODE_LENGTH + len(self.values)

    @staticmethod
    def standard_dc_luminance() -> "HuffmanTable":
        """Annex K Table K.3 (the process-wide shared instance)."""
        return _DC_LUMA

    @staticmethod
    def standard_ac_luminance() -> "HuffmanTable":
        """Annex K Table K.5 (the process-wide shared instance)."""
        return _AC_LUMA


def _unpickle_table(bits, values, name) -> HuffmanTable:
    """Rebuild a pickled table; an Annex K identity yields the shared one."""
    table = HuffmanTable(bits, values, name)
    return next((shared for shared in _ANNEX_K if shared == table), table)


def _build_canonical_codes(
    bits: "tuple[int, ...]", values: "tuple[int, ...]"
) -> tuple:
    """Assign canonical codes per T.81 Annex C (GENERATE_SIZE/CODE tables)."""
    encode_map = {}
    decode_map = {}
    code = 0
    index = 0
    for length_minus_one, count in enumerate(bits):
        length = length_minus_one + 1
        for _ in range(count):
            symbol = values[index]
            if symbol in encode_map:
                raise ValueError(f"duplicate symbol {symbol:#x} in Huffman table")
            encode_map[symbol] = (code, length)
            decode_map[(code, length)] = symbol
            code += 1
            index += 1
        code <<= 1
    return encode_map, decode_map


# The shared Annex K instances that the standard_*() factories and
# unpickling hand out (defined last: construction needs the helpers).
_DC_LUMA = HuffmanTable(_DC_LUMA_BITS, _DC_LUMA_VALUES, "dc-luma")
_AC_LUMA = HuffmanTable(_AC_LUMA_BITS, _AC_LUMA_VALUES, "ac-luma")
_ANNEX_K = (_DC_LUMA, _AC_LUMA)
