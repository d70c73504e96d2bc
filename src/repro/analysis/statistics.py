"""Distribution fits for DCT coefficients.

Reininger & Gibson (1983) — reference [24] of the paper — showed that the
un-quantized AC DCT coefficients of natural images are well modelled by
zero-mean Laplace (or Gaussian) distributions whose only free parameter
is the per-band standard deviation.  This module fits both models and
compares them, supporting the paper's use of the standard deviation as
the per-band energy statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BandDistributionFit:
    """Maximum-likelihood fits of one band's coefficient distribution.

    Attributes
    ----------
    std:
        Sample standard deviation of the coefficients.
    laplace_scale:
        MLE scale ``b`` of the zero-mean Laplace fit.
    gaussian_log_likelihood / laplace_log_likelihood:
        Total log-likelihood of the data under each zero-mean model.
    preferred_model:
        ``"laplace"`` or ``"gaussian"``, whichever has higher likelihood.
    """

    std: float
    laplace_scale: float
    gaussian_log_likelihood: float
    laplace_log_likelihood: float

    @property
    def preferred_model(self) -> str:
        if self.laplace_log_likelihood >= self.gaussian_log_likelihood:
            return "laplace"
        return "gaussian"


def fit_band_distribution(coefficients: np.ndarray) -> BandDistributionFit:
    """Fit zero-mean Gaussian and Laplace models to one band's coefficients."""
    coefficients = np.asarray(coefficients, dtype=np.float64).ravel()
    if coefficients.size < 2:
        raise ValueError("need at least two coefficients to fit a distribution")
    std = float(coefficients.std())
    # Zero-mean MLEs: Gaussian sigma^2 = E[c^2], Laplace b = E[|c|].
    gaussian_sigma = float(np.sqrt(np.mean(coefficients ** 2)))
    laplace_scale = float(np.mean(np.abs(coefficients)))
    gaussian_sigma = max(gaussian_sigma, 1e-12)
    laplace_scale = max(laplace_scale, 1e-12)
    # Zero-mean log-pdfs: normal -z^2/2 - log(2 pi)/2 - log(sigma),
    # Laplace log(1/2) - |c|/b - log(b).
    gaussian_ll = float(np.sum(
        -0.5 * (coefficients / gaussian_sigma) ** 2
        - 0.5 * math.log(2.0 * math.pi) - math.log(gaussian_sigma)
    ))
    laplace_ll = float(np.sum(
        math.log(0.5) - np.abs(coefficients / laplace_scale)
        - math.log(laplace_scale)
    ))
    return BandDistributionFit(
        std=std,
        laplace_scale=laplace_scale,
        gaussian_log_likelihood=gaussian_ll,
        laplace_log_likelihood=laplace_ll,
    )
