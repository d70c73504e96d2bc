"""Tests for the piece-wise linear mapping (Eq. 3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.frequency import FrequencyStatistics
from repro.core.plm import PAPER_IMAGENET_PARAMETERS, PiecewiseLinearMapping


def _paper_mapping():
    return PiecewiseLinearMapping.paper_imagenet()


class TestPaperParameters:
    def test_published_values(self):
        mapping = _paper_mapping()
        assert mapping.a == 255.0
        assert mapping.b == 80.0
        assert mapping.c == 240.0
        assert mapping.t1 == 20.0
        assert mapping.t2 == 60.0
        assert mapping.k1 == pytest.approx(9.75)
        assert mapping.k2 == 1.0
        assert mapping.k3 == 3.0
        assert mapping.q_min == 5.0

    def test_paper_segments_are_continuous_at_t1(self):
        mapping = _paper_mapping()
        # a - k1*T1 = 255 - 9.75*20 = 60 and b - k2*T1 = 80 - 20 = 60.
        hf_at_t1 = mapping.a - mapping.k1 * mapping.t1
        mf_at_t1 = mapping.b - mapping.k2 * mapping.t1
        assert hf_at_t1 == pytest.approx(mf_at_t1)

    def test_parameter_dict_matches(self):
        assert PAPER_IMAGENET_PARAMETERS["k1"] == pytest.approx(9.75)


class TestEquationThree:
    def test_step_values_on_each_segment(self):
        mapping = _paper_mapping()
        assert mapping.quantization_step(10.0) == pytest.approx(255 - 97.5)
        assert mapping.quantization_step(40.0) == pytest.approx(80 - 40)
        assert mapping.quantization_step(70.0) == pytest.approx(240 - 210)

    def test_floor_applied(self):
        mapping = _paper_mapping()
        # Very energetic band: 240 - 3*400 < 0 -> clamped to Qmin.
        assert mapping.quantization_step(400.0) == 5.0

    def test_ceiling_applied(self):
        mapping = PiecewiseLinearMapping(
            a=500.0, b=80.0, c=240.0, k1=1.0, k2=1.0, k3=3.0,
            t1=20.0, t2=60.0, q_min=5.0,
        )
        assert mapping.quantization_step(0.0) == 255.0

    def test_vectorised_evaluation(self):
        mapping = _paper_mapping()
        stds = np.array([[0.0, 10.0], [40.0, 100.0]])
        steps = mapping.quantization_step(stds)
        assert steps.shape == (2, 2)
        assert steps[0, 0] == 255.0

    def test_low_energy_bands_get_larger_steps_within_hf(self):
        mapping = _paper_mapping()
        assert mapping.quantization_step(2.0) > mapping.quantization_step(15.0)

    def test_rejects_negative_std(self):
        with pytest.raises(ValueError):
            _paper_mapping().quantization_step(np.array([-1.0]))

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinearMapping(a=1, b=1, c=1, k1=-1, k2=0, k3=0,
                                   t1=1, t2=2)
        with pytest.raises(ValueError):
            PiecewiseLinearMapping(a=1, b=1, c=1, k1=0, k2=0, k3=0,
                                   t1=5, t2=2)
        with pytest.raises(ValueError):
            PiecewiseLinearMapping(a=1, b=1, c=1, k1=0, k2=0, k3=0,
                                   t1=1, t2=2, q_min=0.5)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e4, allow_nan=False))
    def test_steps_always_within_bounds(self, std):
        mapping = _paper_mapping()
        step = float(mapping.quantization_step(std))
        assert mapping.q_min <= step <= mapping.q_max


class TestFromAnchors:
    def test_reproduces_paper_slopes(self):
        mapping = PiecewiseLinearMapping.from_anchors(
            t1=20.0, t2=60.0, q_max_step=255.0, q1=60.0, q2=20.0,
            q_min=5.0, k3=3.0, lf_intercept=240.0,
        )
        assert mapping.k1 == pytest.approx(9.75)
        assert mapping.k2 == pytest.approx(1.0)
        assert mapping.b == pytest.approx(80.0)
        assert mapping.c == pytest.approx(240.0)

    def test_default_lf_intercept_keeps_continuity(self):
        mapping = PiecewiseLinearMapping.from_anchors(t1=20.0, t2=60.0)
        just_above = float(mapping.quantization_step(60.0 + 1e-9))
        at_threshold = float(mapping.quantization_step(60.0))
        assert just_above == pytest.approx(at_threshold, abs=1e-6)

    def test_anchor_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinearMapping.from_anchors(t1=0.0, t2=60.0)
        with pytest.raises(ValueError):
            PiecewiseLinearMapping.from_anchors(t1=20.0, t2=60.0, q1=10.0,
                                                q2=20.0)


class TestTableFromStatistics:
    def test_table_shape_and_bounds(self, small_freqnet):
        from repro.analysis.frequency import analyze_images

        statistics = analyze_images(small_freqnet.images)
        table = _paper_mapping().table_from_statistics(statistics)
        assert table.values.shape == (8, 8)
        assert table.values.min() >= 5
        assert table.values.max() <= 255

    def test_high_energy_bands_get_small_steps(self):
        std = np.full((8, 8), 1.0)
        std[0, 0] = 500.0
        std[1, 1] = 300.0
        statistics = FrequencyStatistics(std, np.zeros((8, 8)), 1, 1)
        table = _paper_mapping().table_from_statistics(statistics)
        assert table.values[0, 0] == 5
        assert table.values[1, 1] == 5
        assert table.values[7, 7] > 200
