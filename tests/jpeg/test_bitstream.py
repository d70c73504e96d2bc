"""Tests for the reference bit writer/reader and magnitude coding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jpeg.bitstream import magnitude_category
from repro.reference import (
    BitReader,
    BitWriter,
    decode_magnitude,
    encode_magnitude,
)


class TestBitWriter:
    def test_writes_full_bytes(self):
        writer = BitWriter()
        writer.write_bits(0xAB, 8)
        assert writer.getvalue() == bytes([0xAB])

    def test_pads_final_byte_with_ones(self):
        writer = BitWriter()
        writer.write_bits(0b101, 3)
        assert writer.getvalue() == bytes([0b10111111])

    def test_byte_stuffing_after_ff(self):
        writer = BitWriter()
        writer.write_bits(0xFF, 8)
        writer.write_bits(0x01, 8)
        assert writer.getvalue() == bytes([0xFF, 0x00, 0x01])

    def test_zero_length_write_is_noop(self):
        writer = BitWriter()
        writer.write_bits(0, 0)
        assert writer.getvalue() == b""

    def test_rejects_value_too_large_for_length(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write_bits(4, 2)

    def test_bit_length_tracks_payload(self):
        writer = BitWriter()
        writer.write_bits(0b1, 1)
        writer.write_bits(0b1111111, 7)
        writer.write_bits(0b101, 3)
        assert writer.bit_length == 11


class TestBitReader:
    def test_reads_back_written_bits(self):
        writer = BitWriter()
        writer.write_bits(0b110, 3)
        writer.write_bits(0b01, 2)
        writer.write_bits(0xAB, 8)
        reader = BitReader(writer.getvalue())
        assert reader.read_bits(3) == 0b110
        assert reader.read_bits(2) == 0b01
        assert reader.read_bits(8) == 0xAB

    def test_skips_stuffed_zero_bytes(self):
        writer = BitWriter()
        writer.write_bits(0xFF, 8)
        writer.write_bits(0x12, 8)
        reader = BitReader(writer.getvalue())
        assert reader.read_bits(8) == 0xFF
        assert reader.read_bits(8) == 0x12

    def test_raises_on_exhaustion(self):
        reader = BitReader(b"\x00")
        reader.read_bits(8)
        with pytest.raises(EOFError):
            reader.read_bit()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2 ** 12 - 1), st.integers(12, 16)),
                    min_size=1, max_size=30))
    def test_roundtrip_property(self, chunks):
        writer = BitWriter()
        for value, length in chunks:
            writer.write_bits(value, length)
        reader = BitReader(writer.getvalue())
        for value, length in chunks:
            assert reader.read_bits(length) == value


class TestMagnitudeCoding:
    @pytest.mark.parametrize(
        "value, category",
        [(0, 0), (1, 1), (-1, 1), (2, 2), (3, 2), (-3, 2), (4, 3), (7, 3),
         (255, 8), (-255, 8), (1023, 10)],
    )
    def test_category(self, value, category):
        assert magnitude_category(value) == category

    @pytest.mark.parametrize("value", [0, 1, -1, 5, -5, 127, -127, 1000, -1000])
    def test_encode_decode_roundtrip(self, value):
        bits, category = encode_magnitude(value)
        assert decode_magnitude(bits, category) == value

    def test_negative_values_use_ones_complement(self):
        bits, category = encode_magnitude(-2)
        assert category == 2
        assert bits == 0b01

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=-(2 ** 15) + 1, max_value=2 ** 15 - 1))
    def test_roundtrip_property(self, value):
        bits, category = encode_magnitude(value)
        assert decode_magnitude(bits, category) == value
        assert 0 <= bits < (1 << max(category, 1))
