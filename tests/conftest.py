"""Shared fixtures for the test suite."""

import os
import threading

import numpy as np
import pytest

from repro.data import Dataset, FreqNetConfig, generate_freqnet
from repro.runtime import blas


@pytest.fixture(scope="session")
def rng():
    """A seeded random generator shared by tests that need raw noise."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_freqnet() -> Dataset:
    """A small FreqNet dataset reused across test modules (read-only)."""
    return generate_freqnet(
        FreqNetConfig(images_per_class=6, image_size=32, seed=3)
    )


@pytest.fixture(scope="session")
def tiny_freqnet() -> Dataset:
    """A very small dataset for the slowest integration tests."""
    return generate_freqnet(
        FreqNetConfig(images_per_class=4, image_size=16, seed=5)
    )


@pytest.fixture
def random_image(rng) -> np.ndarray:
    """A 32x32 grayscale image with moderate contrast."""
    return np.clip(rng.normal(128.0, 35.0, (32, 32)), 0.0, 255.0)


@pytest.fixture
def random_rgb_image(rng) -> np.ndarray:
    """A 24x24 RGB image."""
    return np.clip(rng.normal(128.0, 35.0, (24, 24, 3)), 0.0, 255.0)


@pytest.fixture
def smooth_image() -> np.ndarray:
    """A smooth, highly compressible grayscale image."""
    x, y = np.meshgrid(np.arange(40), np.arange(40))
    return 128.0 + 60.0 * np.sin(x / 12.0) * np.cos(y / 15.0)


@pytest.fixture()
def two_wide(monkeypatch):
    """Make ``split_batch`` split every kernel in two, on any CPU count."""
    monkeypatch.setattr(blas, "split_width", lambda: 2)
    monkeypatch.setattr(blas, "SPLIT_GRAIN", 0)


@pytest.fixture()
def two_blas_threads():
    """BLAS at 2 threads where it can be set, so a pin to 1 shows."""
    previous = blas.get_threads()
    blas.set_threads(2)
    try:
        yield
    finally:
        blas.set_threads(previous)


def _read_without_blocking(function, fifo, seconds=5.0):
    outcome = {}

    def call():
        try:
            outcome["value"] = function()
        except Exception as error:
            outcome["error"] = error

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(seconds)
    if thread.is_alive():
        # A writer opening the FIFO releases a reader blocked in open().
        try:
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        except OSError:
            pass
        thread.join(seconds)
        pytest.fail(f"the read of {fifo} blocked for {seconds} s")
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


@pytest.fixture()
def without_blocking():
    """``without_blocking(function, fifo)``: ``function()``, or a failure.

    Runs the call in a thread.  A call still blocked after five seconds
    is released by opening ``fifo`` for writing, and the test fails
    instead of hanging.  Returns the call's result or raises its error.
    """
    return _read_without_blocking
