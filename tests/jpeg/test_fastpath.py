"""Scalar ↔ vectorized parity tests for the entropy-coding fast path.

The NumPy fast path (run derivation → fused Huffman arrays → vectorized
bit packing) must produce byte streams bit-identical to the scalar
reference (`encode_dc`/`encode_ac` through a `BitWriter`), and the
table-driven decoder must invert them exactly.  These tests assert that over random
quantized block stacks and the edge cases that historically break
entropy coders: all-zero blocks, zero runs longer than 15 (ZRL chains),
0xFF byte-stuffing boundaries and final-byte padding.  On a truncated or
corrupted stream the decoder must raise ``EOFError`` or ``ValueError``
and nothing else.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jpeg.bitstream import (
    destuff_bytes,
    magnitude_category,
    pack_bits,
    peek_words,
)
from repro.jpeg.codec import EncodedChannel, _ac_token_table, _ChannelCoder
from repro.jpeg.huffman import MAX_CODE_LENGTH, HuffmanTable
from repro.jpeg.quantization import QuantizationTable
from repro.jpeg.rle import EOB_SYMBOL, ZRL_SYMBOL
from repro.reference import (
    BitReader,
    BitWriter,
    decode_magnitude,
    decode_scalar,
    encode_ac,
    encode_dc,
    encode_scalar,
    encode_symbol,
)

# Module-level table and coder: shared by the parity tests (hypothesis
# forbids function-scoped fixtures inside @given).
TABLE = QuantizationTable.standard_luminance(50)
CODER = _ChannelCoder(TABLE)
DC_TABLE = HuffmanTable.standard_dc_luminance()
AC_TABLE = HuffmanTable.standard_ac_luminance()


def scalar_token_stream(zz_blocks, reset_interval=0):
    """Reference token stream via the scalar encoders.

    One ``(block, huffman_table, symbol, amplitude_bits,
    amplitude_length)`` tuple per token, in coding order, with the
    Annex K luminance table that codes it.
    """
    dc_table = HuffmanTable.standard_dc_luminance()
    ac_table = HuffmanTable.standard_ac_luminance()
    tokens = []
    previous_dc = 0
    for index, block in enumerate(np.asarray(zz_blocks)):
        if reset_interval and index % reset_interval == 0:
            previous_dc = 0
        dc = encode_dc(int(block[0]), previous_dc)
        previous_dc = int(block[0])
        tokens.append(
            (index, dc_table, dc.symbol, dc.amplitude_bits,
             dc.amplitude_length)
        )
        for token in encode_ac(block[1:]):
            tokens.append(
                (index, ac_table, token.symbol, token.amplitude_bits,
                 token.amplitude_length)
            )
    return tokens


def random_blocks(rng, count, low=-200, high=200, density=0.3):
    blocks = rng.integers(low, high + 1, size=(count, 64))
    mask = rng.random((count, 64)) < density
    return (blocks * mask).astype(np.int64)


def image_streams():
    """Two real 24x24 image streams, coded at quality 55 and 45.

    Returns ``(coder, data, zz_blocks)`` per stream.
    """
    rng = np.random.default_rng(10)
    ramp = np.linspace(0.0, 60.0, 24)[None, :]
    streams = []
    for quality in (55, 45):
        image = np.clip(rng.normal(128.0, 40.0, (24, 24)) + ramp, 0, 255)
        coder = _ChannelCoder(QuantizationTable.standard_luminance(quality))
        zz_blocks, _ = coder.quantized_batch(image[np.newaxis])
        streams.append((coder, coder.encode_quantized(zz_blocks), zz_blocks))
    return streams


class TestMagnitudeCategory:
    @pytest.mark.parametrize(
        "value, expected",
        [(0, 0), (1, 1), (-1, 1), (2, 2), (3, 2), (4, 3), (255, 8),
         (256, 9), (32767, 15), (-32768, 16), (2 ** 20, 21)],
    )
    def test_scalar_is_exact_bit_length(self, value, expected):
        assert magnitude_category(value) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=-(2 ** 40), max_value=2 ** 40))
    def test_scalar_matches_mathematical_definition(self, value):
        expected = 0
        while (1 << expected) - 1 < abs(value):
            expected += 1
        assert magnitude_category(value) == expected


class TestPackBits:
    def test_empty_stream(self):
        assert pack_bits(np.array([], dtype=np.int64),
                         np.array([], dtype=np.int64)) == b""

    def test_zero_length_entries_are_skipped(self):
        values = np.array([0xAB, 7, 0x3], dtype=np.int64)
        lengths = np.array([8, 0, 2], dtype=np.int64)
        writer = BitWriter()
        writer.write_bits(0xAB, 8)
        writer.write_bits(0x3, 2)
        assert pack_bits(values, lengths) == writer.getvalue()

    def test_final_byte_padded_with_ones(self):
        assert pack_bits(np.array([0b101]), np.array([3])) == bytes(
            [0b10111111]
        )

    def test_ff_byte_is_stuffed(self):
        assert pack_bits(np.array([0xFF]), np.array([8])) == bytes(
            [0xFF, 0x00]
        )

    def test_stuffing_across_value_boundary(self):
        # Two nibbles of 0xF meet across one byte: must still stuff.
        values = np.array([0xF, 0xF, 0x1], dtype=np.int64)
        lengths = np.array([4, 4, 8], dtype=np.int64)
        assert pack_bits(values, lengths) == bytes([0xFF, 0x00, 0x01])

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 2 ** 16 - 1), st.integers(1, 16)),
            min_size=1, max_size=60,
        )
    )
    def test_matches_bitwriter_bit_for_bit(self, chunks):
        values = np.array([v & ((1 << l) - 1) for v, l in chunks])
        lengths = np.array([l for _, l in chunks])
        writer = BitWriter()
        for value, length in zip(values, lengths):
            writer.write_bits(int(value), int(length))
        assert pack_bits(values, lengths) == writer.getvalue()

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 2 ** 12 - 1), st.integers(12, 16)),
            min_size=1, max_size=30,
        )
    )
    def test_bitreader_reads_back_packed_stream(self, chunks):
        values = np.array([v for v, _ in chunks])
        lengths = np.array([l for _, l in chunks])
        reader = BitReader(pack_bits(values, lengths))
        for value, length in chunks:
            assert reader.read_bits(length) == value


class TestPeekWords:
    def test_destuff_inverts_stuffing(self):
        writer = BitWriter()
        for byte in (0xFF, 0x00, 0xFF, 0x12):
            writer.write_bits(byte, 8)
        assert destuff_bytes(writer.getvalue()) == bytes(
            [0xFF, 0x00, 0xFF, 0x12]
        )

    def test_windows_expose_bits_at_any_offset(self):
        data = pack_bits(np.array([0b1011001110001111]), np.array([16]))
        words, total_bits = peek_words(data)
        assert total_bits == 16
        stream = 0b1011001110001111
        for position in range(9):
            window = (
                words[position >> 3] >> (32 - (position & 7))
            ) & 0xFFFFFFFF
            expected_high16 = (
                (stream << 16 | 0xFFFF) >> (16 - position)
            ) & 0xFFFF
            assert (window >> 16) == expected_high16


class TestEncodeParity:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_byte_identical_on_random_images(self, seed):
        rng = np.random.default_rng(seed)
        height, width = rng.integers(8, 57, size=2)
        image = np.clip(rng.normal(128.0, 64.0, (height, width)), 0, 255)
        fast = CODER.encode(image)
        reference = encode_scalar(TABLE, image)
        assert fast.data == reference.data
        assert fast.block_count == reference.block_count
        assert fast.grid_shape == reference.grid_shape

    def test_byte_identical_on_constant_image(self):
        image = np.full((32, 24), 201.0)
        assert CODER.encode(image).data == encode_scalar(TABLE, image).data

    def test_byte_identical_on_sparse_images_with_zrl_chains(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            image = np.full((24, 24), 128.0)
            ys, xs = rng.integers(0, 24, size=(2, 3))
            image[ys, xs] = rng.integers(0, 256, size=3)
            assert CODER.encode(image).data == encode_scalar(TABLE, image).data

    @pytest.mark.parametrize("reset_interval", [0, 1, 3])
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_entropy_code_matches_scalar_reference(self, reset_interval, seed):
        rng = np.random.default_rng(seed)
        blocks = random_blocks(rng, int(rng.integers(1, 16)),
                               low=-255, high=255,
                               density=float(rng.uniform(0.02, 0.5)))
        values, lengths, counts = CODER.entropy_code(
            blocks, reset_interval=reset_interval
        )
        tokens = scalar_token_stream(blocks, reset_interval=reset_interval)
        writer = BitWriter()
        for _, table, symbol, bits, length in tokens:
            writer.write_code(encode_symbol(table, symbol))
            writer.write_bits(bits, length)
        assert pack_bits(values, lengths) == writer.getvalue()
        # One entry per token, each ZRL escape fused into the next entry.
        fused_tokens = [
            token[0] for token in tokens if token[2] != ZRL_SYMBOL
        ]
        np.testing.assert_array_equal(
            counts, np.bincount(fused_tokens, minlength=blocks.shape[0])
        )


class TestDecodeParity:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_fast_decode_matches_scalar_decode(self, seed):
        rng = np.random.default_rng(seed)
        height, width = rng.integers(8, 49, size=2)
        image = np.clip(rng.normal(128.0, 64.0, (height, width)), 0, 255)
        encoded = CODER.encode(image)
        np.testing.assert_array_equal(
            CODER.decode(encoded), decode_scalar(TABLE, encoded)
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_roundtrip_recovers_quantized_blocks(self, seed):
        rng = np.random.default_rng(seed)
        blocks = random_blocks(rng, int(rng.integers(1, 16)),
                               low=-255, high=255,
                               density=float(rng.uniform(0.02, 0.5)))
        data = CODER.encode_quantized(blocks)
        decoded = CODER.decode_to_zigzag(data, blocks.shape[0])
        np.testing.assert_array_equal(decoded, blocks)

    def test_roundtrip_with_stuffed_bytes(self):
        # Search a few seeds for a payload containing a stuffed 0xFF so
        # the destuffing path is provably exercised.
        rng = np.random.default_rng(11)
        exercised = False
        for _ in range(200):
            blocks = random_blocks(rng, 4, low=-255, high=255, density=0.4)
            data = CODER.encode_quantized(blocks)
            if b"\xff\x00" in data:
                exercised = True
                decoded = CODER.decode_to_zigzag(data, 4)
                np.testing.assert_array_equal(decoded, blocks)
        assert exercised

    def test_decode_detects_truncated_stream(self):
        rng = np.random.default_rng(5)
        blocks = random_blocks(rng, 8, density=0.5)
        data = CODER.encode_quantized(blocks)
        with pytest.raises((EOFError, ValueError)):
            CODER.decode_to_zigzag(data[: max(1, len(data) // 4)], 8)

    def test_every_truncation_point_raises_cleanly(self):
        # Never a raw IndexError, whatever prefix of the stream survives.
        # Cutting only a trailing stuffed 0x00 (or nothing but padding)
        # loses no payload bits, so an exact decode is also acceptable.
        rng = np.random.default_rng(17)
        blocks = random_blocks(rng, 6, density=0.4)
        data = CODER.encode_quantized(blocks)
        for cut in range(len(data)):
            try:
                decoded = CODER.decode_to_zigzag(data[:cut], 6)
            except (EOFError, ValueError):
                continue
            np.testing.assert_array_equal(decoded, blocks)

    def test_image_stream_prefixes_decode_or_raise(self):
        # A prefix either decodes to the original blocks (only padding
        # or a stuffed 0x00 was cut) or raises EOFError/ValueError.
        for coder, data, blocks in image_streams():
            for cut in range(len(data)):
                try:
                    decoded = coder.decode_to_zigzag(
                        data[:cut], blocks.shape[0]
                    )
                except (EOFError, ValueError):
                    continue
                np.testing.assert_array_equal(decoded, blocks)

    def test_corrupt_image_stream_decodes_or_raises(self):
        rng = np.random.default_rng(11)
        for coder, data, blocks in image_streams():
            for _ in range(40):
                position = int(rng.integers(0, len(data)))
                corrupted = (
                    data[:position]
                    + bytes([int(rng.integers(0, 256))])
                    + data[position + 1:]
                )
                try:
                    decoded = coder.decode_to_zigzag(
                        corrupted, blocks.shape[0]
                    )
                except (EOFError, ValueError):
                    continue
                assert decoded.shape == blocks.shape


def long_ac_symbols():
    """AC symbols whose code plus magnitude bits exceed 16 bits."""
    return [
        symbol for symbol in AC_TABLE.values
        if symbol & 0x0F
        and encode_symbol(AC_TABLE, symbol)[1] + (symbol & 0x0F) > 16
    ]


def channel_of(data, block_count):
    """A one-row channel of ``block_count`` blocks around ``data``."""
    return EncodedChannel(
        data=data, grid_shape=(1, block_count),
        channel_shape=(8, 8 * block_count), block_count=block_count,
    )


class TestAcTokenTable:
    """The whole-token table against the canonical codes, window by window."""

    def test_every_window_matches_the_canonical_code_map(self):
        tokens = _ac_token_table(AC_TABLE)
        assert len(tokens) == 1 << MAX_CODE_LENGTH
        codes = {
            encode_symbol(AC_TABLE, symbol): symbol
            for symbol in AC_TABLE.values
        }
        kinds = {"value": 0, "marker": 0, "invalid": 0}
        for window in range(1 << MAX_CODE_LENGTH):
            for length in range(1, MAX_CODE_LENGTH + 1):
                symbol = codes.get((window >> (16 - length), length))
                if symbol is not None:
                    break
            else:
                assert tokens[window] == (0, -1, 0), window
                kinds["invalid"] += 1
                continue
            category = symbol & 0x0F
            if symbol in (EOB_SYMBOL, ZRL_SYMBOL) or length + category > 16:
                assert tokens[window] == (length, symbol, 0), window
                kinds["marker"] += 1
                continue
            bits = (window >> (16 - length - category)) & (
                (1 << category) - 1
            )
            value = decode_magnitude(bits, category)
            assert value != 0
            assert tokens[window] == (
                length + category, (symbol >> 4) + 1, value
            ), window
            kinds["value"] += 1
        # Annex K leaves only the all-ones 16-bit code unassigned.
        assert kinds["invalid"] == 1
        assert kinds["marker"] and kinds["value"]

    def test_entries_share_a_few_hundred_tuples(self):
        tokens = _ac_token_table(AC_TABLE)
        assert len({id(entry) for entry in tokens}) < 1024


class TestLongAcTokens:
    """Tokens longer than the 16-bit window decode through a 32-bit peek."""

    def test_long_symbols_are_marked_in_the_table(self):
        tokens = _ac_token_table(AC_TABLE)
        symbols = long_ac_symbols()
        # Among them every category-10 symbol: 16-bit codes from run 1 on.
        assert {(run << 4) | 10 for run in range(1, 16)} <= set(symbols)
        for symbol in symbols:
            code, length = encode_symbol(AC_TABLE, symbol)
            assert tokens[code << (16 - length)] == (length, symbol, 0)

    def test_every_long_symbol_decodes_like_decode_scalar(self):
        blocks = []
        for symbol in long_ac_symbols():
            run, category = symbol >> 4, symbol & 0x0F
            for value in ((1 << category) - 1, -(1 << (category - 1))):
                block = np.zeros(64, dtype=np.int64)
                block[0] = len(blocks) % 5 - 2
                block[1 + run] = value
                # A short token right behind checks where the cursor lands.
                block[2 + run] = -1
                blocks.append(block)
        blocks = np.array(blocks)
        data = CODER.encode_quantized(blocks)
        np.testing.assert_array_equal(
            CODER.decode_to_zigzag(data, blocks.shape[0]), blocks
        )
        channel = channel_of(data, blocks.shape[0])
        np.testing.assert_array_equal(
            CODER.decode(channel), decode_scalar(TABLE, channel)
        )

    @pytest.mark.parametrize(
        "tail", [[(0xFA, 1023, 10)], [(0xD1, 1, 1), (0x11, 1, 1)]],
        ids=["long-token", "short-token"],
    )
    def test_overrun_raises_like_decode_scalar(self, tail):
        # Three ZRLs put the next coefficient at slot 49; the tail's runs
        # then carry it past slot 63.
        writer = BitWriter()
        writer.write_code(encode_symbol(DC_TABLE, 0))
        for _ in range(3):
            writer.write_code(encode_symbol(AC_TABLE, ZRL_SYMBOL))
        for symbol, bits, length in tail:
            writer.write_code(encode_symbol(AC_TABLE, symbol))
            writer.write_bits(bits, length)
        data = writer.getvalue()
        with pytest.raises(ValueError, match="overruns") as fast:
            CODER.decode_to_zigzag(data, 1)
        with pytest.raises(ValueError, match="overruns") as scalar:
            decode_scalar(TABLE, channel_of(data, 1))
        assert str(fast.value) == str(scalar.value)


class TestOutOfRangeMagnitudes:
    """Magnitudes without an Annex K code raise before any bit is formed.

    Annex K luminance codes DC differences up to size category 11 and AC
    values up to size 10, which every 8-bit image under every table
    stays within.
    """

    def test_uncodable_ac_magnitude_raises_not_corrupts(self):
        # Category > 15 cannot fit the (run, size) nibble; encoding must
        # fail loudly instead of aliasing into a different symbol.
        blocks = np.zeros((1, 64), dtype=np.int64)
        blocks[0, 5] = 1 << 17
        with pytest.raises(ValueError):
            CODER.encode_quantized(blocks)

    def test_uncodable_dc_magnitude_raises_valueerror(self):
        blocks = np.zeros((1, 64), dtype=np.int64)
        blocks[0, 0] = 1 << 17  # DC category 18: beyond any baseline table
        with pytest.raises(ValueError):
            CODER.encode_quantized(blocks)

    def test_huge_dc_jump_raises_valueerror(self):
        blocks = np.zeros((2, 64), dtype=np.int64)
        blocks[1, 0] = 1 << 29
        with pytest.raises(ValueError):
            CODER.encode_quantized(blocks)

    @pytest.mark.parametrize("value", [40000, -40000, 32768, 65535])
    @pytest.mark.parametrize("run", [14, 15, 30, 31])
    def test_category_16_after_a_long_run_raises(self, run, value):
        # (run << 4) | 16 sets bit 4: after 14 or 15 zeros (mod 16) the
        # symbol would read as ZRL (0xF0) and code a corrupt stream.
        blocks = np.zeros((3, 64), dtype=np.int64)
        blocks[2, 1 + run] = value
        with pytest.raises(ValueError, match=f"{value} in block 2"):
            CODER.encode_quantized(blocks)

    @pytest.mark.parametrize("diff", [2048, -2048, 40000, -65535])
    def test_dc_categories_above_11_raise_valueerror(self, diff):
        blocks = np.zeros((2, 64), dtype=np.int64)
        blocks[0, 0] = 100
        blocks[1, 0] = 100 + diff
        with pytest.raises(
            ValueError, match=f"DC difference {diff} in block 1"
        ):
            CODER.entropy_code(blocks)

    @pytest.mark.parametrize("value", [1024, -1024, 2047, 32767])
    def test_ac_categories_above_10_raise_valueerror(self, value):
        blocks = np.zeros((1, 64), dtype=np.int64)
        blocks[0, 9] = value
        with pytest.raises(
            ValueError, match=f"AC coefficient {value} in block 0"
        ):
            CODER.entropy_code(blocks)

    def test_largest_codable_magnitudes_round_trip(self):
        blocks = np.zeros((3, 64), dtype=np.int64)
        blocks[:, 0] = [2047, 0, -2047]  # DC differences ±2047
        blocks[0, 1], blocks[1, 63], blocks[2, 40] = 1023, -1023, 1023
        data = CODER.encode_quantized(blocks)
        np.testing.assert_array_equal(
            CODER.decode_to_zigzag(data, 3), blocks
        )
