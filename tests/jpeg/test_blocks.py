"""Tests for block partitioning, level shifting and their inverses."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jpeg.blocks import (
    image_dct,
    image_idct,
    level_shift,
    partition_blocks_batch,
)


def _roundtrip(images):
    coefficients, _ = image_dct(images)
    return image_idct(coefficients, images.shape[1:])


class TestPadding:
    def test_multiple_of_eight_unchanged(self):
        coefficients, grid = image_dct(np.ones((1, 16, 24)))
        assert grid == (2, 3)
        assert coefficients.shape == (1, 2, 3, 8, 8)

    def test_pads_up_to_next_multiple(self):
        _, grid = image_dct(np.ones((1, 17, 25)))
        assert grid == (3, 4)

    def test_padding_replicates_edges(self):
        channel = np.arange(9, dtype=float).reshape(3, 3)
        blocks, grid = partition_blocks_batch(channel[np.newaxis])
        assert grid == (1, 1)
        padded = blocks[0, 0, 0]
        assert padded[7, 0] == channel[2, 0]
        assert padded[0, 7] == channel[0, 2]


class TestPartitionAssemble:
    def test_roundtrip_exact_multiple(self, rng):
        images = rng.uniform(0, 255, (2, 24, 16))
        coefficients, grid = image_dct(images)
        assert coefficients.shape == (2, 3, 2, 8, 8)
        assert grid == (3, 2)
        np.testing.assert_allclose(
            image_idct(coefficients, (24, 16)), images, atol=1e-9
        )

    def test_roundtrip_with_padding(self, rng):
        images = rng.uniform(0, 255, (2, 19, 21))
        np.testing.assert_allclose(_roundtrip(images), images, atol=1e-9)

    def test_block_ordering_is_row_major(self):
        channel = np.zeros((16, 16))
        channel[0:8, 8:16] = 5.0
        blocks, _ = partition_blocks_batch(channel[np.newaxis])
        assert np.all(blocks[0, 0, 1] == 5.0)
        assert np.all(blocks[0, 0, 0] == 0.0)
        # The DC terms follow the same grid.
        coefficients, _ = image_dct(channel[np.newaxis])
        np.testing.assert_allclose(
            coefficients[0, :, :, 0, 0],
            [[-128.0 * 8, -123.0 * 8], [-128.0 * 8, -128.0 * 8]],
        )

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=40),
    )
    def test_roundtrip_property(self, height, width):
        images = (
            np.arange(2 * height * width, dtype=float) % 256
        ).reshape(2, height, width)
        np.testing.assert_allclose(_roundtrip(images), images, atol=1e-9)


class TestLevelShift:
    def test_shift_and_inverse(self):
        channel = np.array([[[0.0, 128.0, 255.0]]])
        shifted = level_shift(channel)
        np.testing.assert_allclose(shifted, [[[-128.0, 0.0, 127.0]]])
        # image_idct adds the 128 back.
        np.testing.assert_allclose(_roundtrip(channel), channel, atol=1e-9)

    def test_inverse_clips(self):
        coefficients = np.zeros((2, 1, 1, 8, 8))
        coefficients[0, 0, 0, 0, 0] = 200.0 * 8
        coefficients[1, 0, 0, 0, 0] = -200.0 * 8
        pixels = image_idct(coefficients, (8, 8))
        assert np.all(pixels[0] == 255.0)
        assert np.all(pixels[1] == 0.0)
