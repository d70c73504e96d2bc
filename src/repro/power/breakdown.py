"""Normalised offloading-power breakdown across compression methods (Fig. 9)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.power.energy import DNN_WORKLOADS, WIRELESS_LINKS, EnergyModel


@dataclass(frozen=True)
class PowerBreakdown:
    """Per-method energy figures, normalised to a reference method.

    Attributes
    ----------
    method:
        Compression method name.
    communication_joules / computation_joules:
        Absolute per-image energies under the model.
    normalized_total:
        Total energy divided by the reference method's total energy.
    """

    method: str
    communication_joules: float
    computation_joules: float
    normalized_total: float


def offloading_power_breakdown(
    bytes_per_method: dict,
    reference_method: str = None,
    link_name: str = "WiFi",
    workload_name: str = "AlexNet",
    joules_per_mac: float = 5e-12,
    include_computation: bool = True,
) -> "list[PowerBreakdown]":
    """Compute the Fig. 9 power comparison.

    Parameters
    ----------
    bytes_per_method:
        Mapping of method name to average compressed bytes per image
        (e.g. from :class:`repro.core.baselines.CompressedDataset`).
    reference_method:
        Method everything is normalised against; defaults to the first
        key of ``bytes_per_method`` (the paper normalises to "Original").
    link_name / workload_name / joules_per_mac:
        Energy-model parameters (see :mod:`repro.power.energy`).
    include_computation:
        Include the (method-independent) DNN compute energy in the
        normalised total.  For the paper's ~100 KB ImageNet images the
        upload dominates and including computation barely changes the
        ratios; for small synthetic images the fixed compute term would
        mask the communication savings, so callers working at that scale
        normalise communication only.

    Returns
    -------
    list of PowerBreakdown, in the iteration order of ``bytes_per_method``.
    """
    if not bytes_per_method:
        raise ValueError("bytes_per_method must not be empty")
    if link_name not in WIRELESS_LINKS:
        raise ValueError(f"unknown link {link_name!r}")
    if workload_name not in DNN_WORKLOADS:
        raise ValueError(f"unknown workload {workload_name!r}")
    for method, size in bytes_per_method.items():
        if size <= 0:
            raise ValueError(f"method {method!r} has non-positive size {size}")
    model = EnergyModel(
        link=WIRELESS_LINKS[link_name],
        workload=DNN_WORKLOADS[workload_name],
        joules_per_mac=joules_per_mac,
    )
    if reference_method is None:
        reference_method = next(iter(bytes_per_method))
    if reference_method not in bytes_per_method:
        raise ValueError(
            f"reference method {reference_method!r} not in bytes_per_method"
        )
    computation = model.computation_energy() if include_computation else 0.0
    reference_total = (
        model.communication_energy(bytes_per_method[reference_method])
        + computation
    )
    breakdowns = []
    for method, size in bytes_per_method.items():
        communication = model.communication_energy(size)
        breakdowns.append(
            PowerBreakdown(
                method=method,
                communication_joules=communication,
                computation_joules=model.computation_energy(),
                normalized_total=(communication + computation) / reference_total,
            )
        )
    return breakdowns
