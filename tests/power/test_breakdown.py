"""Tests for the Fig. 9 power breakdown."""

import pytest

from repro.power.breakdown import offloading_power_breakdown


class TestOffloadingPowerBreakdown:
    def test_reference_method_normalises_to_one(self):
        breakdowns = offloading_power_breakdown(
            {"Original": 1000.0, "DeepN-JPEG": 300.0}
        )
        assert breakdowns[0].method == "Original"
        assert breakdowns[0].normalized_total == pytest.approx(1.0)

    def test_smaller_size_gives_lower_power(self):
        breakdowns = offloading_power_breakdown(
            {"Original": 1000.0, "DeepN-JPEG": 300.0},
            include_computation=False,
        )
        assert breakdowns[1].normalized_total == pytest.approx(0.3)

    def test_communication_only_normalisation_matches_byte_ratio(self):
        sizes = {"Original": 800.0, "RM-HF3": 700.0, "SAME-Q4": 500.0,
                 "DeepN-JPEG": 200.0}
        breakdowns = offloading_power_breakdown(sizes, include_computation=False)
        for breakdown in breakdowns:
            assert breakdown.normalized_total == pytest.approx(
                sizes[breakdown.method] / sizes["Original"]
            )

    def test_including_computation_compresses_the_gap(self):
        sizes = {"Original": 150 * 1024, "DeepN-JPEG": 50 * 1024}
        with_compute = offloading_power_breakdown(sizes, include_computation=True)
        without_compute = offloading_power_breakdown(
            sizes, include_computation=False
        )
        assert (
            with_compute[1].normalized_total
            > without_compute[1].normalized_total
        )

    def test_explicit_reference_method(self):
        breakdowns = offloading_power_breakdown(
            {"A": 100.0, "B": 50.0}, reference_method="B",
            include_computation=False,
        )
        assert breakdowns[0].normalized_total == pytest.approx(2.0)

    def test_link_choice_changes_absolute_not_relative(self):
        sizes = {"Original": 1000.0, "DeepN-JPEG": 250.0}
        wifi = offloading_power_breakdown(sizes, link_name="WiFi",
                                          include_computation=False)
        cellular = offloading_power_breakdown(sizes, link_name="3G",
                                              include_computation=False)
        assert cellular[1].communication_joules > wifi[1].communication_joules
        assert cellular[1].normalized_total == pytest.approx(
            wifi[1].normalized_total
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            offloading_power_breakdown({})
        with pytest.raises(ValueError):
            offloading_power_breakdown({"A": 0.0})
        with pytest.raises(ValueError):
            offloading_power_breakdown({"A": 1.0}, link_name="5G")
        with pytest.raises(ValueError):
            offloading_power_breakdown({"A": 1.0}, workload_name="LeNet")
        with pytest.raises(ValueError):
            offloading_power_breakdown({"A": 1.0}, reference_method="B")
