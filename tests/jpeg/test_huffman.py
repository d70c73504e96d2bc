"""Tests for Huffman table construction and coding."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jpeg.bitstream import BitReader, BitWriter
from repro.jpeg.codec import ColorJpegCodec, GrayscaleJpegCodec
from repro.jpeg.huffman import MAX_CODE_LENGTH, HuffmanTable
from repro.jpeg.quantization import QuantizationTable

STANDARD_FACTORIES = [
    HuffmanTable.standard_dc_luminance,
    HuffmanTable.standard_dc_chrominance,
    HuffmanTable.standard_ac_luminance,
    HuffmanTable.standard_ac_chrominance,
]


class TestStandardTables:
    @pytest.mark.parametrize(
        "factory, symbol_count",
        [
            (HuffmanTable.standard_dc_luminance, 12),
            (HuffmanTable.standard_dc_chrominance, 12),
            (HuffmanTable.standard_ac_luminance, 162),
            (HuffmanTable.standard_ac_chrominance, 162),
        ],
    )
    def test_symbol_counts(self, factory, symbol_count):
        table = factory()
        assert len(table.symbols()) == symbol_count

    def test_codes_are_prefix_free(self):
        table = HuffmanTable.standard_ac_luminance()
        codes = [
            format(code, f"0{length}b")
            for code, length in (table.encode(s) for s in table.symbols())
        ]
        for i, first in enumerate(codes):
            for j, second in enumerate(codes):
                if i != j:
                    assert not second.startswith(first)

    def test_known_code_for_eob(self):
        # In Annex K Table K.5 the EOB symbol (0x00) has the 4-bit code 1010.
        table = HuffmanTable.standard_ac_luminance()
        assert table.encode(0x00) == (0b1010, 4)

    def test_unknown_symbol_raises(self):
        table = HuffmanTable.standard_dc_luminance()
        with pytest.raises(KeyError):
            table.encode(0x55)

    def test_contains(self):
        table = HuffmanTable.standard_dc_luminance()
        assert 0 in table
        assert 200 not in table

    def test_header_cost(self):
        table = HuffmanTable.standard_dc_luminance()
        assert table.header_cost_bytes() == 1 + 16 + 12


class TestTableValidation:
    def test_bits_length_enforced(self):
        with pytest.raises(ValueError):
            HuffmanTable([1] * 15, [0])

    def test_symbol_count_must_match_bits(self):
        with pytest.raises(ValueError):
            HuffmanTable([1] + [0] * 15, [0, 1])

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ValueError):
            HuffmanTable([2] + [0] * 15, [7, 7])

    def test_sequences_normalised_to_int_tuples(self):
        from_lists = HuffmanTable([2] + [0] * 15, [5, 9], "t")
        from_arrays = HuffmanTable(np.array([2] + [0] * 15), np.array([5, 9]), "t")
        assert from_lists.bits == (2,) + (0,) * 15
        assert from_lists.values == (5, 9)
        assert all(type(symbol) is int for symbol in from_arrays.values)
        assert from_lists == from_arrays
        assert hash(from_lists) == hash(from_arrays)


class TestSharedStandardTables:
    """The Annex K tables are process-wide singletons, safe to share."""

    @pytest.mark.parametrize("factory", STANDARD_FACTORIES)
    def test_factory_returns_one_shared_instance(self, factory):
        assert factory() is factory()

    @pytest.mark.parametrize(
        "name, value", [("bits", (1,) * 16), ("values", (0,)), ("name", "x")]
    )
    def test_fields_are_frozen(self, name, value):
        table = HuffmanTable.standard_dc_luminance()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(table, name, value)

    @pytest.mark.parametrize("factory", STANDARD_FACTORIES)
    def test_pickle_carries_only_the_identity(self, factory):
        table = factory()
        table.encode_arrays()
        table.decode_lut()
        payload = pickle.dumps(table)
        # Two 2^16-entry LUT lists would be hundreds of kilobytes.
        assert len(payload) < 2048
        assert pickle.loads(payload) is table
        assert copy.deepcopy(table) is table

    def test_renamed_annex_k_table_stays_distinct(self):
        standard = HuffmanTable.standard_ac_luminance()
        renamed = HuffmanTable(standard.bits, standard.values, "renamed")
        clone = pickle.loads(pickle.dumps(renamed))
        assert clone == renamed and clone is not standard

    def test_optimized_table_unpickles_without_lookup_tables(self):
        table = HuffmanTable.from_frequencies({0: 9, 1: 3, 0x23: 1}, "opt")
        table.decode_lut()
        clone = pickle.loads(pickle.dumps(table))
        assert clone == table and clone is not table
        assert clone._decode_lut is None
        assert clone.decode_lut() == table.decode_lut()

    @pytest.mark.parametrize(
        "codec_class, shape",
        [(GrayscaleJpegCodec, (24, 16)), (ColorJpegCodec, (16, 16, 3))],
    )
    def test_codec_pickle_size_unchanged_by_decode(self, codec_class, shape):
        codec = codec_class(QuantizationTable.standard_luminance(50))
        image = np.linspace(0.0, 255.0, int(np.prod(shape))).reshape(shape)
        before = len(pickle.dumps(codec))
        decoded = codec.decode(codec.encode(image))
        payload = pickle.dumps(codec)
        assert len(payload) == before
        clone = pickle.loads(payload)
        coders = getattr(clone, "_plane_coders", None) or [clone._cached_coder]
        shared = {id(factory()) for factory in STANDARD_FACTORIES}
        for coder in coders:
            assert id(coder.dc_huffman) in shared
            assert id(coder.ac_huffman) in shared
        np.testing.assert_array_equal(clone.decode(clone.encode(image)), decoded)


class TestOptimizedTables:
    def test_more_frequent_symbols_get_shorter_codes(self):
        frequencies = {0: 1000, 1: 500, 2: 100, 3: 10, 4: 1}
        table = HuffmanTable.from_frequencies(frequencies)
        assert table.code_length(0) <= table.code_length(4)

    def test_single_symbol(self):
        table = HuffmanTable.from_frequencies({7: 42})
        code, length = table.encode(7)
        assert length == 1

    def test_zero_count_symbols_dropped(self):
        table = HuffmanTable.from_frequencies({1: 10, 2: 0})
        assert 1 in table
        assert 2 not in table

    def test_empty_frequencies_rejected(self):
        with pytest.raises(ValueError):
            HuffmanTable.from_frequencies({})

    def test_roundtrip_through_bitstream(self):
        frequencies = {symbol: (symbol % 7) + 1 for symbol in range(40)}
        table = HuffmanTable.from_frequencies(frequencies)
        symbols = [3, 17, 39, 0, 21, 3, 3, 8]
        writer = BitWriter()
        for symbol in symbols:
            writer.write_code(table.encode(symbol))
        reader = BitReader(writer.getvalue())
        decoded = [table.decode_symbol(reader) for _ in symbols]
        assert decoded == symbols

    def test_length_limited_to_16_bits(self):
        # Exponentially skewed frequencies force long optimal codes.
        frequencies = {symbol: 2 ** symbol for symbol in range(30)}
        table = HuffmanTable.from_frequencies(frequencies)
        lengths = [table.code_length(symbol) for symbol in range(30)]
        assert max(lengths) <= MAX_CODE_LENGTH

    def test_optimized_beats_or_matches_uniform_cost(self):
        frequencies = {0: 900, 1: 50, 2: 25, 3: 25}
        table = HuffmanTable.from_frequencies(frequencies)
        total_bits = sum(
            count * table.code_length(symbol)
            for symbol, count in frequencies.items()
        )
        uniform_bits = sum(frequencies.values()) * 2
        assert total_bits <= uniform_bits

    @settings(max_examples=30, deadline=None)
    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=255),
            st.integers(min_value=1, max_value=10000),
            min_size=1,
            max_size=64,
        )
    )
    def test_from_frequencies_property(self, frequencies):
        table = HuffmanTable.from_frequencies(frequencies)
        # Every symbol is encodable, codes fit in 16 bits and decode back.
        writer = BitWriter()
        symbols = sorted(frequencies)
        for symbol in symbols:
            code, length = table.encode(symbol)
            assert 1 <= length <= MAX_CODE_LENGTH
            writer.write_bits(code, length)
        reader = BitReader(writer.getvalue())
        assert [table.decode_symbol(reader) for _ in symbols] == symbols
