"""Tests for zig-zag reordering, as the codec applies it."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.jpeg.codec import _ChannelCoder
from repro.jpeg.dct import dct_matrix
from repro.jpeg.quantization import QuantizationTable
from repro.jpeg.zigzag import INVERSE_ZIGZAG_ORDER, ZIGZAG_ORDER

#: Unit steps: the quantizer only rounds, so the zig-zag order shows.
UNIT_CODER = _ChannelCoder(QuantizationTable.flat(1))


def _through_pixels(zz_blocks):
    """Reconstruct one 8x8 image per zig-zag block, then quantize it again.

    With coefficients in [-7, 7] every pixel stays within 128 +/- 112, so
    nothing clips and the unit-step quantizer recovers the integers.
    """
    images = UNIT_CODER.reconstruct_batch(
        zz_blocks, zz_blocks.shape[0], (1, 1), (8, 8)
    )
    recovered, _ = UNIT_CODER.quantized_batch(images)
    return recovered


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
        zz_blocks = rng.integers(-7, 8, (1, 64))
        np.testing.assert_array_equal(_through_pixels(zz_blocks), zz_blocks)

    def test_roundtrip_stack(self, rng):
        zz_blocks = rng.integers(-7, 8, (5, 64))
        np.testing.assert_array_equal(_through_pixels(zz_blocks), zz_blocks)

    def test_dc_is_first(self):
        # A constant block carries only its DC term, 8 times its level.
        quantized, _ = UNIT_CODER.quantized_batch(
            np.full((1, 8, 8), 128.0 + 42.0 / 8)
        )
        assert quantized[0, 0] == 42
        assert not quantized[0, 1:].any()

    def test_corner_is_last(self):
        # The (7, 7) basis image carries only the highest-frequency term.
        corner = dct_matrix(8)[7]
        image = 128.0 + 9.0 * np.outer(corner, corner)
        quantized, _ = UNIT_CODER.quantized_batch(image[np.newaxis])
        assert quantized[0, -1] == 9
        assert not quantized[0, :-1].any()

    @settings(max_examples=25, deadline=None)
    @given(hnp.arrays(np.int64, (2, 64), elements=st.integers(-7, 7)))
    def test_roundtrip_property(self, zz_blocks):
        np.testing.assert_array_equal(_through_pixels(zz_blocks), zz_blocks)
