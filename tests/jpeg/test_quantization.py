"""Tests for quantization tables and the codec's quantization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jpeg.blocks import image_dct
from repro.jpeg.codec import _ChannelCoder
from repro.jpeg.quantization import (
    MAX_QUANT_STEP,
    MIN_QUANT_STEP,
    QuantizationTable,
    STANDARD_LUMINANCE_TABLE,
    scale_table_for_quality,
)
from repro.jpeg.zigzag import INVERSE_ZIGZAG_ORDER, ZIGZAG_ORDER


class TestStandardTables:
    def test_luminance_table_values(self):
        # A few spot checks against Annex K Table K.1.
        assert STANDARD_LUMINANCE_TABLE[0, 0] == 16
        assert STANDARD_LUMINANCE_TABLE[7, 7] == 99
        assert STANDARD_LUMINANCE_TABLE[0, 7] == 61

    def test_high_frequency_steps_are_larger(self):
        # HVS design: the DC step must be smaller than the HF corner step.
        assert STANDARD_LUMINANCE_TABLE[0, 0] < STANDARD_LUMINANCE_TABLE[7, 7]


class TestQualityScaling:
    def test_quality_50_is_identity(self):
        scaled = scale_table_for_quality(STANDARD_LUMINANCE_TABLE, 50)
        np.testing.assert_allclose(scaled, STANDARD_LUMINANCE_TABLE)

    def test_quality_100_gives_unit_steps(self):
        scaled = scale_table_for_quality(STANDARD_LUMINANCE_TABLE, 100)
        np.testing.assert_allclose(scaled, np.ones((8, 8)))

    def test_lower_quality_gives_larger_steps(self):
        q20 = scale_table_for_quality(STANDARD_LUMINANCE_TABLE, 20)
        assert np.all(q20 >= STANDARD_LUMINANCE_TABLE)

    def test_steps_clipped_to_valid_range(self):
        q1 = scale_table_for_quality(STANDARD_LUMINANCE_TABLE, 1)
        assert q1.max() <= MAX_QUANT_STEP
        assert q1.min() >= MIN_QUANT_STEP

    def test_rejects_invalid_quality(self):
        with pytest.raises(ValueError):
            scale_table_for_quality(STANDARD_LUMINANCE_TABLE, 0)
        with pytest.raises(ValueError):
            scale_table_for_quality(STANDARD_LUMINANCE_TABLE, 101)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=99))
    def test_monotone_in_quality(self, quality):
        lower = scale_table_for_quality(STANDARD_LUMINANCE_TABLE, quality)
        higher = scale_table_for_quality(STANDARD_LUMINANCE_TABLE, quality + 1)
        assert np.all(higher <= lower)


class TestQuantizationTable:
    def test_construction_clips_and_rounds(self):
        table = QuantizationTable(np.full((8, 8), 300.0))
        assert table.values.max() == MAX_QUANT_STEP
        table = QuantizationTable(np.full((8, 8), 2.4))
        assert np.all(table.values == 2)

    def test_rejects_non_positive_steps(self):
        values = np.ones((8, 8))
        values[3, 3] = 0.0
        with pytest.raises(ValueError):
            QuantizationTable(values)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            QuantizationTable(np.ones((4, 4)))

    def test_rejects_nan(self):
        values = np.ones((8, 8))
        values[0, 0] = np.nan
        with pytest.raises(ValueError):
            QuantizationTable(values)

    def test_values_are_read_only(self):
        table = QuantizationTable.flat(4)
        with pytest.raises(ValueError):
            table.values[0, 0] = 9

    def test_quantize_dequantize_error_bounded_by_half_step(self, rng):
        table = QuantizationTable.flat(10)
        images = rng.uniform(0, 255, (1, 16, 24))
        coefficients = image_dct(images)[0].reshape(-1, 8, 8)
        quantized, _ = _ChannelCoder(table).quantized_batch(images)
        recovered = (
            quantized[:, INVERSE_ZIGZAG_ORDER].reshape(-1, 8, 8) * table.values
        )
        assert np.max(np.abs(recovered - coefficients)) <= 5.0 + 1e-9

    def test_quantize_is_integer_valued(self, rng):
        table = QuantizationTable.standard_luminance(50)
        coder = _ChannelCoder(table)
        quantized, _ = coder.quantized_batch(rng.uniform(0, 255, (1, 8, 8)))
        assert quantized.dtype == np.int64

    def test_flat_table(self):
        table = QuantizationTable.flat(7)
        assert np.all(table.values == 7)
        assert table.mean_step() == 7

    def test_scaled_by_quality(self):
        base = QuantizationTable.standard_luminance(50)
        better = QuantizationTable.standard_luminance(90)
        assert better.mean_step() < base.mean_step()

    def test_as_zigzag_starts_with_dc_step(self):
        # The codec quantizes zig-zag ordered blocks with zig-zag steps.
        table = QuantizationTable.standard_luminance(50)
        steps = _ChannelCoder(table)._zz_steps
        np.testing.assert_array_equal(
            steps, table.values.reshape(64)[ZIGZAG_ORDER]
        )
        assert steps[0] == table.values[0, 0]

    def test_larger_steps_produce_more_zeros(self, rng):
        images = rng.normal(128, 30, (1, 40, 32))
        fine, _ = _ChannelCoder(QuantizationTable.flat(2)).quantized_batch(
            images
        )
        coarse, _ = _ChannelCoder(
            QuantizationTable.flat(50)
        ).quantized_batch(images)
        assert (coarse == 0).sum() > (fine == 0).sum()
