"""Frequency-domain analysis of image datasets.

Implements the statistical machinery behind DeepN-JPEG's quantization
table design:

* :mod:`repro.analysis.frequency` — Algorithm 1: block-wise DCT of the
  sampled images and the per-band standard deviation of the un-quantized
  coefficients.
* :mod:`repro.analysis.bands` — magnitude-based (DeepN-JPEG) and
  position-based (default JPEG) segmentation of the 64 bands into
  low/mid/high frequency groups.
* :mod:`repro.analysis.statistics` — Laplace/Gaussian fits of the
  coefficient distributions (Reininger & Gibson, 1983) used to justify
  the standard-deviation-as-energy argument.
"""

from repro.analysis.bands import (
    BandSegmentation,
    magnitude_based_segmentation,
    position_based_segmentation,
)
from repro.analysis.frequency import FrequencyStatistics, analyze_dataset
from repro.analysis.statistics import fit_band_distribution

__all__ = [
    "BandSegmentation",
    "FrequencyStatistics",
    "analyze_dataset",
    "fit_band_distribution",
    "magnitude_based_segmentation",
    "position_based_segmentation",
]
