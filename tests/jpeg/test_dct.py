"""Tests for the 8x8 block DCT of image stacks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import fft as scipy_fft

from repro.jpeg.blocks import image_dct, image_idct
from repro.jpeg.dct import BLOCK_SIZE, dct_matrix


class TestDctMatrix:
    def test_is_orthonormal(self):
        matrix = dct_matrix(8)
        np.testing.assert_allclose(matrix @ matrix.T, np.eye(8), atol=1e-12)

    def test_first_row_is_constant(self):
        matrix = dct_matrix(8)
        np.testing.assert_allclose(matrix[0], np.full(8, np.sqrt(1 / 8)))

    def test_other_sizes(self):
        matrix = dct_matrix(4)
        np.testing.assert_allclose(matrix @ matrix.T, np.eye(4), atol=1e-12)


def _single_block(block):
    """The coefficients of one level-shifted 8x8 ``block`` via image_dct."""
    coefficients, grid = image_dct(block[np.newaxis] + 128.0)
    assert grid == (1, 1)
    return coefficients[0, 0, 0]


class TestDct2d:
    def test_matches_scipy(self, rng):
        images = rng.uniform(0, 255, (2, 16, 24))
        coefficients, _ = image_dct(images)
        for index in np.ndindex(2, 2, 3):
            image, row, col = index
            tile = images[image, 8 * row:8 * row + 8, 8 * col:8 * col + 8]
            expected = scipy_fft.dctn(tile - 128.0, type=2, norm="ortho")
            np.testing.assert_allclose(
                coefficients[index], expected, atol=1e-9
            )

    def test_roundtrip(self, rng):
        image = rng.uniform(0, 255, (1, 8, 8))
        coefficients, _ = image_dct(image)
        np.testing.assert_allclose(
            image_idct(coefficients, (8, 8)), image, atol=1e-9
        )

    def test_constant_block_has_only_dc(self):
        coefficients = _single_block(np.full((8, 8), 17.0))
        assert coefficients[0, 0] == pytest.approx(17.0 * 8)
        assert np.abs(coefficients).sum() == pytest.approx(abs(coefficients[0, 0]))

    def test_energy_preservation(self, rng):
        block = rng.normal(0, 30, (8, 8))
        coefficients = _single_block(block)
        assert np.sum(block ** 2) == pytest.approx(np.sum(coefficients ** 2))

    def test_rejects_wrong_shape(self):
        # A single image must come as a stack of one.
        with pytest.raises(ValueError):
            image_dct(np.zeros((8, 8)))

    def test_alternating_pattern_concentrates_in_high_bands(self):
        rows = np.arange(8)[:, None]
        cols = np.arange(8)[None, :]
        block = np.where((rows + cols) % 2 == 0, 10.0, -10.0)
        coefficients = _single_block(block)
        # The per-pixel alternating pattern is the highest-frequency content
        # an 8x8 block can carry: its single largest DCT coefficient is the
        # (7, 7) corner and the bulk of its energy lies in the upper half of
        # the band grid (rows and columns >= 4).
        assert np.unravel_index(np.argmax(np.abs(coefficients)), (8, 8)) == (7, 7)
        total_energy = np.sum(coefficients ** 2)
        high_energy = np.sum(coefficients[4:, 4:] ** 2)
        assert high_energy > 0.8 * total_energy


class TestBlockDct:
    def test_matches_single_block_version(self, rng):
        # One 8x40 image: five blocks in a row, each transformed as if alone.
        image = rng.uniform(0, 255, (1, 8, 40))
        stacked, grid = image_dct(image)
        assert grid == (1, 5)
        for col in range(5):
            alone, _ = image_dct(image[:, :, 8 * col:8 * col + 8])
            np.testing.assert_allclose(
                stacked[0, 0, col], alone[0, 0, 0], atol=1e-9
            )

    def test_roundtrip_stack(self, rng):
        images = rng.uniform(0, 255, (7, 8, 8))
        coefficients, _ = image_dct(images)
        np.testing.assert_allclose(
            image_idct(coefficients, (8, 8)), images, atol=1e-9
        )

    @settings(max_examples=25, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            (3, BLOCK_SIZE, BLOCK_SIZE),
            elements=st.floats(0, 255, allow_nan=False),
        )
    )
    def test_roundtrip_property(self, images):
        coefficients, _ = image_dct(images)
        np.testing.assert_allclose(
            image_idct(coefficients, (BLOCK_SIZE, BLOCK_SIZE)), images,
            atol=1e-6,
        )
