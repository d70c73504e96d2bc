"""Tests for zig-zag reordering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.jpeg.zigzag import (
    INVERSE_ZIGZAG_ORDER,
    ZIGZAG_ORDER,
    inverse_zigzag,
    zigzag,
)


class TestZigzagOrder:
    def test_is_a_permutation(self):
        assert sorted(ZIGZAG_ORDER.tolist()) == list(range(64))

    def test_starts_with_dc_and_first_diagonal(self):
        # Standard JPEG zig-zag: (0,0), (0,1), (1,0), (2,0), (1,1), (0,2)...
        expected_start = [0, 1, 8, 16, 9, 2, 3, 10]
        assert ZIGZAG_ORDER[:8].tolist() == expected_start

    def test_ends_at_highest_frequency(self):
        assert ZIGZAG_ORDER[-1] == 63

    def test_inverse_is_consistent(self):
        np.testing.assert_array_equal(
            ZIGZAG_ORDER[INVERSE_ZIGZAG_ORDER], np.arange(64)
        )


class TestZigzagTransforms:
    def test_roundtrip_single_block(self, rng):
        block = rng.normal(size=(8, 8))
        np.testing.assert_allclose(inverse_zigzag(zigzag(block)), block)

    def test_roundtrip_stack(self, rng):
        blocks = rng.normal(size=(5, 8, 8))
        np.testing.assert_allclose(inverse_zigzag(zigzag(blocks)), blocks)

    def test_dc_is_first(self):
        block = np.zeros((8, 8))
        block[0, 0] = 42.0
        assert zigzag(block)[0] == 42.0

    def test_corner_is_last(self):
        block = np.zeros((8, 8))
        block[7, 7] = 9.0
        assert zigzag(block)[-1] == 9.0

    def test_rejects_wrong_shapes(self):
        with pytest.raises(ValueError):
            zigzag(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            inverse_zigzag(np.zeros(32))

    @settings(max_examples=25, deadline=None)
    @given(
        hnp.arrays(
            np.float64, (2, 8, 8), elements=st.floats(-1e6, 1e6, allow_nan=False)
        )
    )
    def test_roundtrip_property(self, blocks):
        np.testing.assert_allclose(inverse_zigzag(zigzag(blocks)), blocks)
