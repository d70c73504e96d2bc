"""Algorithm 1: frequency component analysis of a sampled dataset.

Every sampled image is level-shifted, partitioned into 8x8 blocks and
transformed with the block DCT.  For each of the 64 frequency bands the
standard deviation of the un-quantized coefficients across *all* blocks of
*all* sampled images is computed.  A band's standard deviation measures
its energy (Reininger & Gibson, 1983) and, per Section 3.1 of the paper,
its contribution to DNN feature learning — it is the signal the
piece-wise linear mapping converts into quantization steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.data.dataset import Dataset
from repro.jpeg.blocks import level_shift, partition_blocks_batch
from repro.jpeg.dct import BLOCK_SIZE, block_dct2d
from repro.jpeg.zigzag import ZIGZAG_ORDER


@dataclass(frozen=True)
class FrequencyStatistics:
    """Per-band statistics of the block-DCT coefficients of a dataset.

    Attributes
    ----------
    std:
        ``(8, 8)`` array; ``std[i, j]`` is the standard deviation of the
        DCT coefficient at frequency band ``(i, j)``.
    mean:
        ``(8, 8)`` array of per-band means (close to zero for AC bands).
    block_count:
        Number of 8x8 blocks that entered the statistics.
    image_count:
        Number of images that were analysed.
    """

    std: np.ndarray
    mean: np.ndarray
    block_count: int
    image_count: int

    def __post_init__(self) -> None:
        for name in ("std", "mean"):
            value = np.asarray(getattr(self, name), dtype=np.float64)
            if value.shape != (BLOCK_SIZE, BLOCK_SIZE):
                raise ValueError(f"{name} must be 8x8, got {value.shape}")
            object.__setattr__(self, name, value)
        if self.block_count <= 0 or self.image_count <= 0:
            raise ValueError("block_count and image_count must be positive")

    def std_zigzag(self) -> np.ndarray:
        """The 64 standard deviations ordered by zig-zag position."""
        return self.std.reshape(-1)[ZIGZAG_ORDER]

    def ranked_bands(self) -> "list[tuple]":
        """Bands ``(i, j)`` sorted by descending standard deviation."""
        flat_order = np.argsort(self.std, axis=None)[::-1]
        return [
            (int(index // BLOCK_SIZE), int(index % BLOCK_SIZE))
            for index in flat_order
        ]

    def rank_of_band(self, row: int, col: int) -> int:
        """0-based rank of band ``(row, col)`` in descending std order.

        The ranking is computed once and cached (the statistics are
        frozen), so repeated per-band lookups are O(1) instead of
        re-sorting all 64 bands on every call.
        """
        ranks = getattr(self, "_band_ranks", None)
        if ranks is None:
            ranks = {
                band: rank for rank, band in enumerate(self.ranked_bands())
            }
            object.__setattr__(self, "_band_ranks", ranks)
        try:
            return ranks[(row, col)]
        except KeyError:
            raise ValueError(f"({row}, {col}) is not a frequency band") from None

    def to_json(self) -> dict:
        """JSON-able payload round-tripping the statistics exactly.

        Floats serialize via ``repr``-shortest JSON numbers, which
        Python parses back to the identical float64 bit patterns.
        """
        return {
            "std": [[float(v) for v in row] for row in self.std],
            "mean": [[float(v) for v in row] for row in self.mean],
            "block_count": int(self.block_count),
            "image_count": int(self.image_count),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "FrequencyStatistics":
        """Rebuild statistics from a :meth:`to_json` payload."""
        return cls(
            std=np.asarray(payload["std"], dtype=np.float64),
            mean=np.asarray(payload["mean"], dtype=np.float64),
            block_count=int(payload["block_count"]),
            image_count=int(payload["image_count"]),
        )

    def ac_energy_fraction_above(self, zigzag_position: int) -> float:
        """Fraction of AC energy (variance) in zig-zag bands >= ``position``."""
        if not 1 <= zigzag_position < 64:
            raise ValueError("zigzag_position must be in [1, 63]")
        variances = self.std_zigzag() ** 2
        ac = variances[1:]
        tail = variances[zigzag_position:]
        total = float(ac.sum())
        if total == 0.0:
            return 0.0
        return float(tail.sum() / total)


def coefficients_by_band(images: np.ndarray) -> np.ndarray:
    """Block-DCT coefficients of ``images`` grouped by frequency band.

    Parameters
    ----------
    images:
        Grayscale images ``(N, H, W)`` with intensities in [0, 255].

    Returns
    -------
    numpy.ndarray
        Array of shape ``(total_blocks, 8, 8)`` holding the un-quantized
        coefficients of every block of every image.
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 3:
        raise ValueError(f"expected (N, H, W) grayscale images, got {images.shape}")
    # One batched partition + DCT over every block of every image instead
    # of a per-image Python loop.
    blocked, (rows, cols) = partition_blocks_batch(level_shift(images))
    blocks = blocked.reshape(
        images.shape[0] * rows * cols, BLOCK_SIZE, BLOCK_SIZE
    )
    return block_dct2d(blocks)


def analyze_images(images: np.ndarray) -> FrequencyStatistics:
    """Run the frequency component analysis on raw grayscale images."""
    coefficients = coefficients_by_band(images)
    return FrequencyStatistics(
        std=coefficients.std(axis=0),
        mean=coefficients.mean(axis=0),
        block_count=int(coefficients.shape[0]),
        image_count=int(np.asarray(images).shape[0]),
    )


def analyze_dataset(
    dataset: Dataset, interval: int = 1, max_per_class: Optional[int] = None
) -> FrequencyStatistics:
    """Algorithm 1 end-to-end: sample each class, then analyse the sample.

    ``interval`` and ``max_per_class`` are forwarded to
    :func:`repro.data.sampling.sample_class_representatives`.  The
    dataset must be grayscale: :func:`coefficients_by_band` raises
    ``ValueError`` naming the shape of an ``(N, H, W, 3)`` stack.
    """
    from repro.data.sampling import sample_class_representatives

    sampled = sample_class_representatives(
        dataset, interval=interval, max_per_class=max_per_class
    )
    return analyze_images(sampled.images)
