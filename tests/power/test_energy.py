"""Tests for the wireless link and DNN energy models."""

import pytest

from repro.power.energy import (
    DNN_WORKLOADS,
    REFERENCE_IMAGE_BYTES,
    WIRELESS_LINKS,
    DnnWorkload,
    EnergyModel,
    WirelessLink,
)


class TestWirelessLink:
    def test_reference_upload_times_match_paper(self):
        # The paper quotes 870 ms (3G), 180 ms (LTE) and 95 ms (Wi-Fi) for a
        # 152 KB image.
        assert WIRELESS_LINKS["3G"].transfer_seconds(REFERENCE_IMAGE_BYTES) == (
            pytest.approx(0.870)
        )
        assert WIRELESS_LINKS["LTE"].transfer_seconds(REFERENCE_IMAGE_BYTES) == (
            pytest.approx(0.180)
        )
        assert WIRELESS_LINKS["WiFi"].transfer_seconds(REFERENCE_IMAGE_BYTES) == (
            pytest.approx(0.095)
        )

    def test_energy_proportional_to_bytes(self):
        link = WIRELESS_LINKS["LTE"]
        assert link.transfer_energy_joules(2000) == pytest.approx(
            2 * link.transfer_energy_joules(1000)
        )

    def test_slower_link_costs_more_energy(self):
        assert (
            WIRELESS_LINKS["3G"].joules_per_byte
            > WIRELESS_LINKS["WiFi"].joules_per_byte
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            WirelessLink("x", upload_seconds_per_reference=0, transmit_power_watts=1)
        with pytest.raises(ValueError):
            WIRELESS_LINKS["3G"].transfer_seconds(-1)


class TestDnnWorkload:
    def test_paper_mac_counts(self):
        assert DNN_WORKLOADS["AlexNet"].mac_count == pytest.approx(724e6)
        assert DNN_WORKLOADS["GoogLeNet"].mac_count == pytest.approx(1.43e9)

    def test_compute_energy_scales_with_macs(self):
        assert (
            DNN_WORKLOADS["GoogLeNet"].compute_energy_joules()
            > DNN_WORKLOADS["AlexNet"].compute_energy_joules()
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            DnnWorkload("x", 0)
        with pytest.raises(ValueError):
            DNN_WORKLOADS["AlexNet"].compute_energy_joules(0)


class TestEnergyModel:
    def test_communication_dominates_for_paper_scale_images(self):
        """The regime the paper argues about: for a ~150 KB image the upload
        energy exceeds the inference energy even over Wi-Fi."""
        model = EnergyModel(WIRELESS_LINKS["WiFi"], DNN_WORKLOADS["AlexNet"])
        assert model.communication_energy(REFERENCE_IMAGE_BYTES) > (
            model.computation_energy()
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            EnergyModel(
                WIRELESS_LINKS["WiFi"], DNN_WORKLOADS["AlexNet"], joules_per_mac=0
            )
