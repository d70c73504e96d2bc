"""Tests for Huffman table construction and coding."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from repro.jpeg.codec import GrayscaleJpegCodec
from repro.jpeg.huffman import HuffmanTable
from repro.jpeg.quantization import QuantizationTable
from repro.reference import encode_symbol

STANDARD_FACTORIES = [
    HuffmanTable.standard_dc_luminance,
    HuffmanTable.standard_ac_luminance,
]


class TestStandardTables:
    @pytest.mark.parametrize(
        "factory, symbol_count",
        [
            (HuffmanTable.standard_dc_luminance, 12),
            (HuffmanTable.standard_ac_luminance, 162),
        ],
    )
    def test_symbol_counts(self, factory, symbol_count):
        table = factory()
        assert len(table.values) == symbol_count

    def test_codes_are_prefix_free(self):
        table = HuffmanTable.standard_ac_luminance()
        codes = [
            format(code, f"0{length}b")
            for code, length in (
                encode_symbol(table, symbol) for symbol in table.values
            )
        ]
        for i, first in enumerate(codes):
            for j, second in enumerate(codes):
                if i != j:
                    assert not second.startswith(first)

    def test_known_code_for_eob(self):
        # In Annex K Table K.5 the EOB symbol (0x00) has the 4-bit code 1010.
        table = HuffmanTable.standard_ac_luminance()
        assert encode_symbol(table, 0x00) == (0b1010, 4)

    def test_unknown_symbol_raises(self):
        table = HuffmanTable.standard_dc_luminance()
        with pytest.raises(KeyError):
            encode_symbol(table, 0x55)

    def test_contains(self):
        # The dense encode arrays mark an absent symbol by length 0.
        _, lengths = HuffmanTable.standard_dc_luminance().encode_arrays()
        assert lengths[0] > 0
        assert lengths[200] == 0

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

    def test_custom_table_unpickles_without_lookup_tables(self):
        table = HuffmanTable([1, 2] + [0] * 14, [0, 1, 0x23], "custom")
        table.decode_lut()
        clone = pickle.loads(pickle.dumps(table))
        assert clone == table and clone is not table
        assert clone._decode_lut is None
        assert clone.decode_lut() == table.decode_lut()

    def test_codec_pickle_size_unchanged_by_decode(self):
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(50))
        image = np.linspace(0.0, 255.0, 24 * 16).reshape(24, 16)
        before = len(pickle.dumps(codec))
        decoded = codec.decode(codec.encode(image))
        payload = pickle.dumps(codec)
        assert len(payload) == before
        clone = pickle.loads(payload)
        assert clone._coder.dc_huffman is HuffmanTable.standard_dc_luminance()
        assert clone._coder.ac_huffman is HuffmanTable.standard_ac_luminance()
        np.testing.assert_array_equal(clone.decode(clone.encode(image)), decoded)
