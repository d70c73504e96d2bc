"""Huffman coding for the JPEG entropy coder.

Provides the four standard Annex K Huffman tables (DC/AC x luma/chroma)
and a constructor for optimized tables built from observed symbol
frequencies, length-limited to 16 bits as the baseline JPEG format
requires.  Tables are canonical: they are fully described by the T.81
``BITS``/``HUFFVAL`` lists, which is also how their header cost is
accounted.

For the vectorized fast path each table lazily materialises dense
representations: :meth:`HuffmanTable.encode_arrays` (256-entry
code/length arrays so a whole symbol stream is coded with fancy
indexing), :meth:`HuffmanTable.decode_lut` (a 2**16-entry table
resolving any 16-bit peek window to its symbol and code length in one
lookup) and its NumPy twin :meth:`HuffmanTable.decode_arrays`.  Each is
built on first use and kept on the instance.

Tables are immutable, and each ``HuffmanTable.standard_*()`` factory
returns one instance shared by the whole process, so every codec built
on the Annex K tables shares their lookup tables: they are built at most
once per process, not once per codec.  Building needs no lock: threads
racing on a first use build equal tables, and either result serves.  A
table pickles as its ``(bits, values, name)`` identity only, and an
Annex K identity unpickles to the shared instance.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

MAX_CODE_LENGTH = 16

#: Size of the dense symbol space (JPEG entropy symbols are one byte).
SYMBOL_SPACE = 256

# Annex K Table K.3 — luminance DC coefficient differences.
_DC_LUMA_BITS = [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
_DC_LUMA_VALUES = list(range(12))

# Annex K Table K.4 — chrominance DC coefficient differences.
_DC_CHROMA_BITS = [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
_DC_CHROMA_VALUES = list(range(12))

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

# Annex K Table K.6 — chrominance AC coefficients.
_AC_CHROMA_BITS = [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77]
_AC_CHROMA_VALUES = [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21,
    0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
    0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
    0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0,
    0x15, 0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34,
    0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
    0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38,
    0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
    0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
    0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
    0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
    0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
    0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96,
    0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
    0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
    0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3,
    0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2,
    0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9,
    0xEA, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
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
    _decode_arrays: tuple = field(
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

    def encode(self, symbol: int) -> "tuple[int, int]":
        """Return the ``(code, length)`` pair for ``symbol``."""
        try:
            return self._encode_map[symbol]
        except KeyError as exc:
            raise KeyError(
                f"symbol {symbol:#x} not present in Huffman table '{self.name}'"
            ) from exc

    def code_length(self, symbol: int) -> int:
        """Return the code length in bits for ``symbol``."""
        return self.encode(symbol)[1]

    def decode_symbol(self, reader) -> int:
        """Consume bits from a :class:`~repro.jpeg.bitstream.BitReader`."""
        code = 0
        length = 0
        while length < MAX_CODE_LENGTH:
            code = (code << 1) | reader.read_bit()
            length += 1
            symbol = self._decode_map.get((code, length))
            if symbol is not None:
                return symbol
        raise ValueError(
            f"invalid Huffman code in table '{self.name}'"
        )

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

    def decode_arrays(self) -> "tuple[np.ndarray, np.ndarray]":
        """NumPy ``(symbols, lengths)`` decode tables over 16-bit windows.

        Same contents as :meth:`decode_lut` but as read-only ``int16``
        arrays, so the vectorized FSM decoder can gather thousands of
        windows per pass.  Built on first use and kept on the instance,
        so for a shared Annex K table once per process.
        """
        if self._decode_arrays is None:
            symbols = np.full(1 << MAX_CODE_LENGTH, -1, dtype=np.int16)
            lengths = np.zeros(1 << MAX_CODE_LENGTH, dtype=np.int16)
            for (code, length), symbol in self._decode_map.items():
                start = code << (MAX_CODE_LENGTH - length)
                end = (code + 1) << (MAX_CODE_LENGTH - length)
                symbols[start:end] = symbol
                lengths[start:end] = length
            symbols.setflags(write=False)
            lengths.setflags(write=False)
            object.__setattr__(self, "_decode_arrays", (symbols, lengths))
        return self._decode_arrays

    def __contains__(self, symbol: int) -> bool:
        return symbol in self._encode_map

    def symbols(self) -> "list[int]":
        """All symbols the table can encode."""
        return list(self.values)

    def header_cost_bytes(self) -> int:
        """Size of the DHT segment payload describing this table.

        One class/id byte + 16 BITS bytes + one byte per symbol, matching
        the JPEG DHT marker segment layout.
        """
        return 1 + MAX_CODE_LENGTH + len(self.values)

    def to_json(self) -> dict:
        """JSON-able ``BITS``/``HUFFVAL`` payload (the canonical identity).

        The two lists fully describe a canonical table (exactly what a
        DHT marker segment carries), so :meth:`from_json` round-trips the
        table — and therefore every code it assigns — bit for bit.
        """
        return {
            "bits": [int(count) for count in self.bits],
            "values": [int(symbol) for symbol in self.values],
            "name": self.name,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "HuffmanTable":
        """Rebuild a table from a :meth:`to_json` payload."""
        return cls(
            bits=payload["bits"],
            values=payload["values"],
            name=str(payload.get("name", "huffman")),
        )

    @staticmethod
    def standard_dc_luminance() -> "HuffmanTable":
        """Annex K Table K.3 (the process-wide shared instance)."""
        return _DC_LUMA

    @staticmethod
    def standard_dc_chrominance() -> "HuffmanTable":
        """Annex K Table K.4 (the process-wide shared instance)."""
        return _DC_CHROMA

    @staticmethod
    def standard_ac_luminance() -> "HuffmanTable":
        """Annex K Table K.5 (the process-wide shared instance)."""
        return _AC_LUMA

    @staticmethod
    def standard_ac_chrominance() -> "HuffmanTable":
        """Annex K Table K.6 (the process-wide shared instance)."""
        return _AC_CHROMA

    @classmethod
    def from_frequencies(
        cls, frequencies: dict, name: str = "optimized"
    ) -> "HuffmanTable":
        """Build an optimized, 16-bit length-limited table from symbol counts.

        Implements the classical Huffman construction followed by the
        ``adjust_bits`` length-limiting procedure of T.81 Annex K.3, so the
        result is always a legal baseline JPEG table.
        """
        frequencies = {
            int(symbol): int(count)
            for symbol, count in frequencies.items()
            if count > 0
        }
        if not frequencies:
            raise ValueError("cannot build a Huffman table with no symbols")
        lengths = _huffman_code_lengths(frequencies)
        lengths = _limit_code_lengths(lengths, MAX_CODE_LENGTH)
        bits = [0] * MAX_CODE_LENGTH
        ordered = sorted(lengths.items(), key=lambda item: (item[1], item[0]))
        values = []
        for symbol, length in ordered:
            bits[length - 1] += 1
            values.append(symbol)
        return cls(bits, values, name)


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


def _huffman_code_lengths(frequencies: dict) -> dict:
    """Return unrestricted Huffman code lengths for each symbol."""
    if len(frequencies) == 1:
        symbol = next(iter(frequencies))
        return {symbol: 1}
    heap = [
        (count, counter, {symbol: 0})
        for counter, (symbol, count) in enumerate(sorted(frequencies.items()))
    ]
    counter = len(heap)
    heapq.heapify(heap)
    while len(heap) > 1:
        count_a, _, tree_a = heapq.heappop(heap)
        count_b, _, tree_b = heapq.heappop(heap)
        merged = {symbol: depth + 1 for symbol, depth in tree_a.items()}
        merged.update(
            {symbol: depth + 1 for symbol, depth in tree_b.items()}
        )
        heapq.heappush(heap, (count_a + count_b, counter, merged))
        counter += 1
    return heap[0][2]


def _limit_code_lengths(lengths: dict, max_length: int) -> dict:
    """Limit code lengths to ``max_length`` while keeping the Kraft sum valid.

    Follows the ``adjust_bits`` procedure of T.81 Annex K.3 (also used by
    libjpeg): operate on the histogram of code lengths, repeatedly moving a
    pair of over-long codes up one level while demoting one shorter code,
    which preserves the Kraft inequality; then reassign lengths to symbols
    ordered by their original (optimal) depth.
    """
    lengths = dict(lengths)
    deepest = max(lengths.values())
    if deepest <= max_length:
        return lengths
    # Histogram of code lengths, index 1..deepest.
    counts = [0] * (deepest + 1)
    for length in lengths.values():
        counts[length] += 1
    for length in range(deepest, max_length, -1):
        while counts[length] > 0:
            shorter = length - 2
            while shorter > 0 and counts[shorter] == 0:
                shorter -= 1
            if shorter <= 0:
                raise ValueError("cannot length-limit Huffman code")
            # Remove two codes at `length`: one becomes length-1, the other
            # pairs with a split of a code at `shorter` into two at
            # `shorter + 1`.
            counts[length] -= 2
            counts[length - 1] += 1
            counts[shorter] -= 1
            counts[shorter + 1] += 2
    # Reassign: shortest lengths go to symbols that originally had the
    # shortest (most frequent) codes.
    pool = []
    for length in range(1, max_length + 1):
        pool.extend([length] * counts[length])
    ordered_symbols = sorted(lengths.items(), key=lambda item: (item[1], item[0]))
    if len(pool) != len(ordered_symbols):
        raise ValueError("length limiting did not conserve the symbol count")
    return {
        symbol: new_length
        for (symbol, _), new_length in zip(ordered_symbols, sorted(pool))
    }


# The shared Annex K instances that the standard_*() factories and
# unpickling hand out (defined last: construction needs the helpers).
_DC_LUMA = HuffmanTable(_DC_LUMA_BITS, _DC_LUMA_VALUES, "dc-luma")
_DC_CHROMA = HuffmanTable(_DC_CHROMA_BITS, _DC_CHROMA_VALUES, "dc-chroma")
_AC_LUMA = HuffmanTable(_AC_LUMA_BITS, _AC_LUMA_VALUES, "ac-luma")
_AC_CHROMA = HuffmanTable(_AC_CHROMA_BITS, _AC_CHROMA_VALUES, "ac-chroma")
_ANNEX_K = (_DC_LUMA, _DC_CHROMA, _AC_LUMA, _AC_CHROMA)
