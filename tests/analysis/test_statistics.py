"""Tests for coefficient distribution fitting."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro

from repro.analysis.statistics import fit_band_distribution
from repro.analysis.frequency import coefficients_by_band


class TestFitBandDistribution:
    def test_gaussian_data_prefers_gaussian(self, rng):
        samples = rng.normal(0, 10, 20000)
        fit = fit_band_distribution(samples)
        assert fit.preferred_model == "gaussian"
        assert fit.std == pytest.approx(10.0, rel=0.05)

    def test_laplace_data_prefers_laplace(self, rng):
        samples = rng.laplace(0, 10, 20000)
        fit = fit_band_distribution(samples)
        assert fit.preferred_model == "laplace"
        assert fit.laplace_scale == pytest.approx(10.0, rel=0.05)

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            fit_band_distribution(np.array([1.0]))

    def test_natural_image_ac_band_is_leptokurtic(self, small_freqnet):
        """Reininger & Gibson: AC coefficients of image data are closer to a
        Laplace distribution than a Gaussian one."""
        coefficients = coefficients_by_band(small_freqnet.images)
        ac_band = coefficients[:, 0, 1]
        fit = fit_band_distribution(ac_band)
        assert fit.preferred_model == "laplace"


class TestScipyParity:
    """The NumPy closed forms reproduce ``scipy.stats`` (a test-only dep)."""

    @pytest.mark.parametrize("size", [4, 5, 17, 1000, 20000])
    @pytest.mark.parametrize("draw", ["normal", "laplace"])
    def test_matches_scipy_stats(self, size, draw):
        stats = pytest.importorskip("scipy.stats")
        samples = getattr(np.random.default_rng(size), draw)(0.0, 7.0, size)
        fit = fit_band_distribution(samples)
        sigma = np.sqrt(np.mean(samples ** 2))
        scale = np.mean(np.abs(samples))
        expected = (
            stats.norm.logpdf(samples, loc=0.0, scale=sigma).sum(),
            stats.laplace.logpdf(samples, loc=0.0, scale=scale).sum(),
        )
        actual = (fit.gaussian_log_likelihood, fit.laplace_log_likelihood)
        np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=0.0)


def test_importing_the_cli_loads_no_scipy():
    """``repro`` declares only numpy, so importing it must not need scipy."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    probe = (
        "import sys, repro.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    assert out.strip() == "[]"
