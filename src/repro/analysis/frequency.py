"""Algorithm 1: frequency component analysis of a sampled dataset.

Every sampled image is level-shifted, partitioned into 8x8 blocks and
transformed with the block DCT, the codec's own
:func:`~repro.jpeg.blocks.image_dct`.  For each of the 64 frequency
bands the standard deviation of the un-quantized coefficients across
*all* blocks of *all* sampled images is computed.  A band's standard deviation measures
its energy (Reininger & Gibson, 1983) and, per Section 3.1 of the paper,
its contribution to DNN feature learning — it is the signal the
piece-wise linear mapping converts into quantization steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.data.dataset import Dataset
from repro.jpeg.blocks import image_dct
from repro.jpeg.dct import BLOCK_SIZE


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

    def ranked_bands(self) -> "list[tuple]":
        """Bands ``(i, j)`` sorted by descending standard deviation."""
        flat_order = np.argsort(self.std, axis=None)[::-1]
        return [
            (int(index // BLOCK_SIZE), int(index % BLOCK_SIZE))
            for index in flat_order
        ]

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
    return image_dct(images)[0].reshape(-1, BLOCK_SIZE, BLOCK_SIZE)


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
