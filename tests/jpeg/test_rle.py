"""Tests for the reference DC DPCM and AC run-length tokens."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.jpeg.rle import EOB_SYMBOL, ZRL_SYMBOL
from repro.reference import decode_ac, encode_ac, encode_dc


class TestDcCoding:
    def test_zero_difference(self):
        token = encode_dc(10, 10)
        assert token.symbol == 0
        assert token.amplitude_length == 0

    def test_positive_difference(self):
        token = encode_dc(15, 10)
        assert token.symbol == 3  # category of 5

    def test_negative_difference(self):
        token = encode_dc(10, 15)
        assert token.symbol == 3


class TestAcCoding:
    def test_all_zero_block_is_single_eob(self):
        tokens = encode_ac(np.zeros(63, dtype=int))
        assert len(tokens) == 1
        assert tokens[0].symbol == EOB_SYMBOL

    def test_no_eob_when_last_coefficient_nonzero(self):
        coefficients = np.zeros(63, dtype=int)
        coefficients[-1] = 3
        tokens = encode_ac(coefficients)
        assert tokens[-1].symbol != EOB_SYMBOL

    def test_run_length_encoded_in_high_nibble(self):
        coefficients = np.zeros(63, dtype=int)
        coefficients[5] = 7  # five zeros then a value of category 3
        tokens = encode_ac(coefficients)
        assert tokens[0].symbol == (5 << 4) | 3

    def test_long_zero_runs_use_zrl(self):
        coefficients = np.zeros(63, dtype=int)
        coefficients[20] = 1
        tokens = encode_ac(coefficients)
        assert tokens[0].symbol == ZRL_SYMBOL
        assert tokens[1].symbol == ((20 - 16) << 4) | 1

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            encode_ac(np.zeros(64, dtype=int))

    def test_roundtrip_simple(self):
        coefficients = np.zeros(63, dtype=int)
        coefficients[[0, 3, 17, 40, 62]] = [5, -2, 100, -1, 7]
        np.testing.assert_array_equal(
            decode_ac(encode_ac(coefficients)), coefficients
        )

    @settings(max_examples=50, deadline=None)
    @given(
        hnp.arrays(
            np.int32, (63,), elements=st.integers(min_value=-200, max_value=200)
        )
    )
    def test_roundtrip_property(self, coefficients):
        np.testing.assert_array_equal(
            decode_ac(encode_ac(coefficients)), coefficients
        )

    @settings(max_examples=30, deadline=None)
    @given(
        hnp.arrays(
            np.int32,
            (63,),
            elements=st.integers(min_value=-5, max_value=5),
        )
    )
    def test_sparser_blocks_need_fewer_tokens(self, coefficients):
        tokens = encode_ac(coefficients)
        nonzero = int(np.count_nonzero(coefficients))
        # Each nonzero coefficient contributes exactly one (run, size) token;
        # ZRL and EOB tokens can only add, never remove.
        assert len(tokens) >= max(nonzero, 1)
        assert sum(
            1 for token in tokens
            if token.symbol not in (EOB_SYMBOL, ZRL_SYMBOL)
        ) == nonzero
