"""Wireless-link and DNN-compute energy models.

Link parameters are derived from the measurements the paper cites
(Neurosurgeon, ASPLOS'17): uploading a 152 KB JPEG image takes about
870 ms over 3G, 180 ms over LTE and 95 ms over Wi-Fi, with typical radio
transmit powers around 2.5 W, 2.0 W and 1.3 W respectively.  From those
the model derives an effective throughput and an energy-per-byte figure.
The DNN computation term uses energy-per-MAC numbers representative of a
mobile-class GPU and the MAC counts quoted in the paper (AlexNet 724M,
GoogLeNet 1.43G).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Reference upload used to calibrate the link models (bytes).
REFERENCE_IMAGE_BYTES = 152 * 1024


@dataclass(frozen=True)
class WirelessLink:
    """A wireless uplink characterised by throughput and transmit power.

    Attributes
    ----------
    name:
        Link name ("3G", "LTE", "WiFi").
    upload_seconds_per_reference:
        Seconds to upload the 152 KB reference image (from Neurosurgeon).
    transmit_power_watts:
        Radio power while transmitting.
    """

    name: str
    upload_seconds_per_reference: float
    transmit_power_watts: float

    def __post_init__(self) -> None:
        if self.upload_seconds_per_reference <= 0:
            raise ValueError("upload time must be positive")
        if self.transmit_power_watts <= 0:
            raise ValueError("transmit power must be positive")

    @property
    def throughput_bytes_per_second(self) -> float:
        """Effective uplink throughput."""
        return REFERENCE_IMAGE_BYTES / self.upload_seconds_per_reference

    @property
    def joules_per_byte(self) -> float:
        """Transmit energy per payload byte."""
        return self.transmit_power_watts / self.throughput_bytes_per_second

    def transfer_seconds(self, num_bytes: float) -> float:
        """Time to upload ``num_bytes``."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        return num_bytes / self.throughput_bytes_per_second

    def transfer_energy_joules(self, num_bytes: float) -> float:
        """Energy to upload ``num_bytes``."""
        return self.transfer_seconds(num_bytes) * self.transmit_power_watts


#: Wireless links quoted in the paper's introduction (via Neurosurgeon).
WIRELESS_LINKS = {
    "3G": WirelessLink("3G", upload_seconds_per_reference=0.870,
                       transmit_power_watts=2.5),
    "LTE": WirelessLink("LTE", upload_seconds_per_reference=0.180,
                        transmit_power_watts=2.0),
    "WiFi": WirelessLink("WiFi", upload_seconds_per_reference=0.095,
                         transmit_power_watts=1.3),
}


@dataclass(frozen=True)
class DnnWorkload:
    """A DNN inference workload characterised by its MAC count."""

    name: str
    mac_count: float

    def __post_init__(self) -> None:
        if self.mac_count <= 0:
            raise ValueError("mac_count must be positive")

    def compute_energy_joules(self, joules_per_mac: float = 5e-12) -> float:
        """Energy of one inference at the given energy-per-MAC."""
        if joules_per_mac <= 0:
            raise ValueError("joules_per_mac must be positive")
        return self.mac_count * joules_per_mac


#: MAC counts quoted in the paper (Section 1 / Section 2.3).
DNN_WORKLOADS = {
    "AlexNet": DnnWorkload("AlexNet", 724e6),
    "GoogLeNet": DnnWorkload("GoogLeNet", 1.43e9),
}


@dataclass(frozen=True)
class EnergyModel:
    """Total per-inference energy: wireless upload plus DNN computation.

    Parameters
    ----------
    link:
        The wireless uplink used to offload the compressed image.
    workload:
        The DNN inference workload executed after offloading.
    joules_per_mac:
        Compute energy per multiply-accumulate (default 5 pJ, a
        mobile-GPU-class figure).
    """

    link: WirelessLink
    workload: DnnWorkload
    joules_per_mac: float = 5e-12

    def __post_init__(self) -> None:
        if self.joules_per_mac <= 0:
            raise ValueError("joules_per_mac must be positive")

    def communication_energy(self, compressed_bytes: float) -> float:
        """Energy to upload one compressed image."""
        return self.link.transfer_energy_joules(compressed_bytes)

    def computation_energy(self) -> float:
        """Energy of one DNN inference."""
        return self.workload.compute_energy_joules(self.joules_per_mac)
