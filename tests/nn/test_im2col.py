"""Tests for the im2col / col2im kernels of the convolution layer.

``_gather`` and ``_scatter`` (with ``_scatter_target``, which returns
the target and its input-shaped interior) are the kernels ``Conv2D``
runs, on whole batches and on the batch slices of ``split_batch``; the
parity geometries compare both uses, byte for byte, against the scalar
references ``im2col_scalar`` / ``col2im_scalar``.  Same-size
convolutions (``_shifts``) take the shifted-plane route, which
``Conv2D``'s inference plans share through ``_shift_views`` and
``_gather_shifted``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.im2col import (
    _gather,
    _gather_shifted,
    _scatter,
    _scatter_target,
    _shift_views,
    _shifts,
    _tiles,
    conv_output_size,
)
from repro.reference import col2im_scalar, im2col_scalar

#: Geometries spanning the interesting cases: unit kernels, stride over
#: kernel (gaps), stride under kernel (overlapping pooling windows),
#: non-square spatial sizes, padding, and padded strided convolutions.
GEOMETRIES = [
    # (batch, channels, height, width, kernel_h, kernel_w, stride, pad)
    (2, 3, 8, 8, 3, 3, 1, 1),
    (1, 1, 5, 5, 3, 3, 1, 0),
    (2, 2, 8, 8, 2, 2, 2, 0),
    (1, 2, 9, 7, 3, 3, 2, 1),
    (2, 1, 6, 6, 3, 3, 2, 0),    # overlapping pooling windows
    (1, 3, 7, 7, 2, 2, 1, 0),    # maximally overlapping
    (1, 1, 8, 8, 2, 2, 3, 0),    # stride > kernel leaves gaps
    (2, 2, 4, 4, 1, 1, 1, 0),    # pointwise
    (1, 1, 10, 6, 5, 3, 2, 2),   # rectangular kernel, pad 2
    (1, 2, 9, 9, 2, 2, 2, 0),    # tiles stop short of the last row/col
    (2, 3, 8, 8, 5, 5, 1, 2),    # same size, 5x5
    (1, 2, 6, 9, 3, 3, 1, 1),    # same size, non-square
    (1, 1, 1, 5, 3, 3, 1, 1),    # same size, one row
]


def patch_shape(input_shape, kh, kw, stride, pad):
    """``(N, C*kh*kw, out_h*out_w)``: the patch tensor of ``input_shape``."""
    batch, channels, height, width = input_shape
    out_h = conv_output_size(height, kh, stride, pad)
    out_w = conv_output_size(width, kw, stride, pad)
    return (batch, channels * kh * kw, out_h * out_w)


def gather(images, kh, kw, stride, pad):
    """The patch tensor ``_gather`` writes for a whole batch."""
    patches = np.empty(
        patch_shape(images.shape, kh, kw, stride, pad), dtype=images.dtype
    )
    _gather(images, patches, kh, kw, stride, pad)
    return patches


def scatter(patches, input_shape, kh, kw, stride, pad):
    """The input-shaped sum ``_scatter`` adds a whole batch's patches into.

    Scatters a copy: a same-size scatter zeroes the columns of its
    patches whose taps wrap.
    """
    target, interior = _scatter_target(
        input_shape, kh, kw, stride, pad, patches.dtype
    )
    _scatter(patches.copy(), target, kh, kw, stride, pad)
    return interior


def scatter_slices(patches, input_shape, kh, kw, stride, pad):
    """:func:`scatter`, one sample at a time, as ``split_batch`` slices."""
    target, interior = _scatter_target(
        input_shape, kh, kw, stride, pad, patches.dtype
    )
    patches = patches.copy()
    for sample in range(input_shape[0]):
        _scatter(
            patches[sample:sample + 1], target[sample:sample + 1],
            kh, kw, stride, pad,
        )
    return interior


def gather_slices(images, kh, kw, stride, pad):
    """:func:`gather`, one sample at a time, as ``split_batch`` slices."""
    patches = np.empty(
        patch_shape(images.shape, kh, kw, stride, pad), dtype=images.dtype
    )
    for sample in range(images.shape[0]):
        _gather(
            images[sample:sample + 1], patches[sample:sample + 1],
            kh, kw, stride, pad,
        )
    return patches


def with_signed_zeros(values):
    """``values`` with every third element +0.0 and every fifth -0.0."""
    values = values.copy()
    values.flat[::3] = 0.0
    values.flat[1::5] = -0.0
    return values


def reference_zeros(scattered, kh, kw, stride, pad):
    """``scattered`` with the reference's sign of zero.

    Where the windows tile the input, ``_scatter`` copies each term,
    while ``col2im_scalar`` adds it to ``+0.0``: a ``-0.0`` term stays
    ``-0.0`` only in the copy.  Adding ``+0.0`` maps exactly that case
    and leaves every other value's bytes alone.
    """
    if _tiles(kh, kw, stride, pad):
        return scattered + 0.0
    return scattered


def assert_same_bytes(actual, expected):
    """Equal shape, dtype and bytes.

    Unlike ``assert_array_equal``, this tells -0.0 from +0.0.
    """
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def to_rows(patches):
    """The reference layout: one receptive field per row."""
    return patches.transpose(0, 2, 1).reshape(-1, patches.shape[1])


def to_patches(rows, batch):
    """Invert :func:`to_rows` for a batch of ``batch`` samples."""
    return rows.reshape(batch, -1, rows.shape[1]).transpose(0, 2, 1)


class TestConvOutputSize:
    @pytest.mark.parametrize(
        "size, kernel, stride, pad, expected",
        [(8, 3, 1, 1, 8), (8, 3, 1, 0, 6), (8, 2, 2, 0, 4), (7, 3, 2, 1, 4)],
    )
    def test_known_geometries(self, size, kernel, stride, pad, expected):
        assert conv_output_size(size, kernel, stride, pad) == expected

    def test_invalid_geometry_raises(self):
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 1, 0)


class TestIm2col:
    def test_patch_count_and_width(self, rng):
        images = rng.normal(size=(2, 3, 8, 8))
        patches = np.full((2, 3 * 3 * 3, 8 * 8), np.nan)
        _gather(images, patches, 3, 3, 1, 1)
        # Every one of the 64 patches per sample is written in full.
        assert not np.isnan(patches).any()

    def test_single_pixel_kernel_is_reshape(self, rng):
        images = rng.normal(size=(1, 2, 4, 4))
        np.testing.assert_array_equal(
            gather(images, 1, 1, 1, 0), images.reshape(1, 2, 16)
        )

    def test_patch_content_matches_manual_extraction(self, rng):
        images = rng.normal(size=(1, 1, 5, 5))
        patches = gather(images, 3, 3, 1, 0)
        manual_first_patch = images[0, 0, 0:3, 0:3].reshape(-1)
        np.testing.assert_array_equal(patches[0, :, 0], manual_first_patch)

    def test_rejects_non_nchw(self):
        with pytest.raises(ValueError):
            im2col_scalar(np.zeros((8, 8)), 3, 3, 1, 1)


class TestCol2im:
    def test_adjoint_property(self, rng):
        # The scatter is the adjoint of the gather:
        # <gather(x), y> == <x, scatter(y)>.
        input_shape = (2, 3, 6, 6)
        images = rng.normal(size=input_shape)
        patches = gather(images, 3, 3, 1, 1)
        cotangent = rng.normal(size=patches.shape)
        lhs = np.sum(patches * cotangent)
        rhs = np.sum(images * scatter(cotangent, input_shape, 3, 3, 1, 1))
        assert lhs == pytest.approx(rhs)

    def test_non_overlapping_roundtrip(self, rng):
        # With stride == kernel size the patches tile the image exactly, so
        # scatter(gather(x)) == x.
        images = rng.normal(size=(2, 2, 8, 8))
        patches = gather(images, 2, 2, 2, 0)
        np.testing.assert_array_equal(
            scatter(patches, images.shape, 2, 2, 2, 0), images
        )

    def test_overlap_accumulates(self):
        images = np.ones((1, 1, 3, 3))
        patches = gather(images, 3, 3, 1, 1)
        restored = scatter(patches, images.shape, 3, 3, 1, 1)
        # The centre pixel is covered by all 9 patches, corners by 4.
        assert restored[0, 0, 1, 1] == pytest.approx(9.0)
        assert restored[0, 0, 0, 0] == pytest.approx(4.0)


@pytest.mark.parametrize("geometry", GEOMETRIES)
class TestFastPathParity:
    """The kernels against the scalar references, across geometries."""

    def test_im2col_matches_scalar(self, geometry, rng):
        batch, channels, height, width, kh, kw, stride, pad = geometry
        images = with_signed_zeros(
            rng.normal(size=(batch, channels, height, width))
        )
        assert_same_bytes(
            to_rows(gather(images, kh, kw, stride, pad)),
            im2col_scalar(images, kh, kw, stride, pad),
        )

    def test_im2col_patches_matches_scalar(self, geometry, rng):
        # Conv2D gathers each batch slice into its rows of one tensor.
        batch, channels, height, width, kh, kw, stride, pad = geometry
        images = with_signed_zeros(
            rng.normal(size=(batch, channels, height, width))
        )
        rows = im2col_scalar(images, kh, kw, stride, pad)
        assert_same_bytes(
            gather_slices(images, kh, kw, stride, pad),
            to_patches(rows, batch),
        )

    def test_col2im_matches_scalar(self, geometry, rng):
        batch, channels, height, width, kh, kw, stride, pad = geometry
        input_shape = (batch, channels, height, width)
        patches = with_signed_zeros(rng.normal(
            size=patch_shape(input_shape, kh, kw, stride, pad)
        ))
        scattered = scatter(patches, input_shape, kh, kw, stride, pad)
        assert_same_bytes(
            reference_zeros(scattered, kh, kw, stride, pad),
            col2im_scalar(to_rows(patches), input_shape, kh, kw, stride, pad),
        )

    def test_col2im_patches_matches_scalar(self, geometry, rng):
        # Conv2D scatters each batch slice into its rows of one target,
        # and hands back the target's interior as the input gradient.
        batch, channels, height, width, kh, kw, stride, pad = geometry
        input_shape = (batch, channels, height, width)
        patches = with_signed_zeros(rng.normal(
            size=patch_shape(input_shape, kh, kw, stride, pad)
        ))
        scattered = scatter_slices(patches, input_shape, kh, kw, stride, pad)
        assert_same_bytes(
            reference_zeros(scattered, kh, kw, stride, pad),
            col2im_scalar(to_rows(patches), input_shape, kh, kw, stride, pad),
        )

    def test_adjoint_property_fast(self, geometry, rng):
        batch, channels, height, width, kh, kw, stride, pad = geometry
        input_shape = (batch, channels, height, width)
        images = rng.normal(size=input_shape)
        patches = gather(images, kh, kw, stride, pad)
        cotangent = rng.normal(size=patches.shape)
        lhs = np.sum(patches * cotangent)
        rhs = np.sum(
            images * scatter(cotangent, input_shape, kh, kw, stride, pad)
        )
        assert lhs == pytest.approx(rhs)


class TestDtypeAndScratch:
    def test_im2col_preserves_float32(self, rng):
        images = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        patches = gather(images, 3, 3, 1, 1)
        assert patches.dtype == np.float32
        np.testing.assert_array_equal(
            to_rows(patches), im2col_scalar(images, 3, 3, 1, 1)
        )

    def test_col2im_preserves_float32(self, rng):
        patches = rng.normal(size=(2, 4, 16)).astype(np.float32)
        out = scatter(patches, (2, 1, 8, 8), 2, 2, 2, 0)
        assert out.dtype == np.float32

    def test_scratch_buffer_reused(self, rng):
        # Conv2D gathers every step into the same scratch buffer: a
        # gather must overwrite it whole, leaving nothing of the last.
        first = rng.normal(size=(2, 3, 8, 8))
        second = rng.normal(size=(2, 3, 8, 8))
        scratch = gather(first, 3, 3, 1, 1)
        _gather(second, scratch, 3, 3, 1, 1)
        np.testing.assert_array_equal(scratch, gather(second, 3, 3, 1, 1))


def exact_values(rng, shape, dtype):
    """Signed-zero-seeded values whose float32 sums never round.

    The references compute in float64, so a float32 kernel can match
    them byte for byte only where no sum rounds: multiples of 1/8 up to
    8 keep every sum of 49 terms exact.  Float64 gets normal draws,
    whose sums pin the order of the adds.
    """
    if np.dtype(dtype) == np.float32:
        values = rng.integers(-64, 65, size=shape) / 8.0
    else:
        values = rng.normal(size=shape)
    return with_signed_zeros(values).astype(dtype)


class TestSameSize:
    """The shifted-plane route of stride-1 ``2 * pad + 1`` kernels."""

    @pytest.mark.parametrize(
        "kh, kw, stride, pad, expected",
        [
            (3, 3, 1, 1, True), (5, 5, 1, 2, True), (7, 7, 1, 3, True),
            (1, 1, 1, 0, False), (3, 3, 2, 1, False), (3, 3, 1, 0, False),
            (5, 3, 1, 2, False), (5, 5, 1, 1, False),
        ],
    )
    def test_shifts_selects_same_size_geometries(
        self, kh, kw, stride, pad, expected
    ):
        assert _shifts(kh, kw, stride, pad) is expected

    @settings(max_examples=80, deadline=None)
    @given(
        batch=st.integers(1, 3),
        channels=st.integers(1, 3),
        height=st.integers(1, 9),
        width=st.integers(1, 9),
        kernel=st.sampled_from((3, 5, 7)),
        dtype=st.sampled_from((np.float32, np.float64)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_scalar_bytes(
        self, batch, channels, height, width, kernel, dtype, seed
    ):
        # k = 7 on images at most 3 wide makes every column of the
        # outer taps wrap, which the clamped band bounds cover.
        pad = (kernel - 1) // 2
        assert _shifts(kernel, kernel, 1, pad)
        rng = np.random.default_rng(seed)
        input_shape = (batch, channels, height, width)
        images = exact_values(rng, input_shape, dtype)
        rows = im2col_scalar(images, kernel, kernel, 1, pad)
        expected = to_patches(rows, batch).astype(dtype)
        assert_same_bytes(gather(images, kernel, kernel, 1, pad), expected)
        assert_same_bytes(
            gather_slices(images, kernel, kernel, 1, pad), expected
        )
        patches = exact_values(
            rng, patch_shape(input_shape, kernel, kernel, 1, pad), dtype
        )
        expected = col2im_scalar(
            to_rows(patches), input_shape, kernel, kernel, 1, pad
        ).astype(dtype)
        assert_same_bytes(
            scatter(patches, input_shape, kernel, kernel, 1, pad), expected
        )
        assert_same_bytes(
            scatter_slices(patches, input_shape, kernel, kernel, 1, pad),
            expected,
        )

    def test_plan_views_overwrite_stale_scratch(self, rng):
        # Plans build the views once over arena scratch that other
        # slots overwrite between runs: every run rewrites the margins.
        input_shape = (2, 3, 5, 6)
        buffer = np.full((2, 3, 7, 8), np.nan)
        patches = np.full(patch_shape(input_shape, 3, 3, 1, 1), np.nan)
        views = _shift_views(buffer, patches, 1)
        for _ in range(2):
            images = with_signed_zeros(rng.normal(size=input_shape))
            buffer[...] = np.nan
            _gather_shifted(images, views)
            assert_same_bytes(patches, gather(images, 3, 3, 1, 1))
