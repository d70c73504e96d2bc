"""Dataset-level compression: the compressors the paper compares.

A compressor is a quantization table plus two methods: ``spec()``, the
JSON-able identity the artifact store keys cached cells on, and
``compress_dataset()``.  The baselines share
:class:`DatasetCompressor`:

* :class:`JpegCompressor` — ordinary JPEG with the Annex-K table scaled by
  a quality factor (the "Original" dataset is JPEG at QF=100).
* :class:`RemoveHighFrequencyCompressor` — the paper's "RM-HF" baseline:
  JPEG extended by discarding the top-N highest-frequency components.
* :class:`SameQCompressor` — the paper's "SAME-Q" baseline: a flat table
  with one step for all 64 bands.

The proposed method, a fitted :class:`~repro.core.pipeline.DeepNJpeg`,
has the same ``name`` / ``spec()`` / ``compress_dataset()`` surface.

Every compressor runs :func:`compress_dataset_with_table`: the images
stream through one shared :class:`~repro.jpeg.codec.GrayscaleJpegCodec`'s
``compress_batch`` in memory-bounded chunks (:func:`iter_compressed_stack`).
The codec is grayscale, so an ``(N, H, W, 3)`` dataset raises
``ValueError``.  The result is a :class:`CompressedDataset` holding the
reconstructed images (to feed a classifier) and the measured byte counts
(to compute compression ratios and, later, offloading power).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset
from repro.jpeg.codec import GrayscaleJpegCodec
from repro.jpeg.metrics import CompressedSizeMixin, psnr
from repro.jpeg.quantization import (
    MAX_QUANT_STEP,
    QuantizationTable,
    STANDARD_LUMINANCE_TABLE,
    scale_table_for_quality,
)
from repro.jpeg.zigzag import ZIGZAG_ORDER
from repro.runtime.executor import chunk_bounds

#: Cap on images per vectorized batch in the dataset path.
_BATCH_CHUNK = 1024

#: Rough budget for per-chunk float64 intermediates (the batch pipeline
#: holds roughly ten image-sized float64 arrays at once: DCT blocks,
#: quantized blocks, code arrays, reconstructions).
_BATCH_CHUNK_BYTES = 256 * 2 ** 20


@dataclass(frozen=True)
class CompressedDataset(CompressedSizeMixin):
    """Result of compressing every image of a dataset.

    Attributes
    ----------
    dataset:
        A dataset with the same labels but decompressed (lossy) images.
    method:
        Name of the compressor that produced it.
    payload_bytes / header_bytes:
        Total entropy-coded payload and marker overhead across all images.
    original_bytes:
        Total uncompressed size (one byte per sample value).
    mean_psnr:
        Mean PSNR of the reconstructions against the originals.

    ``total_bytes`` / ``compression_ratio`` / ``payload_compression_ratio``
    come from :class:`~repro.jpeg.metrics.CompressedSizeMixin` (shared
    with the per-image :class:`~repro.jpeg.codec.CompressionResult`).
    """

    dataset: Dataset
    method: str
    payload_bytes: int
    header_bytes: int
    original_bytes: int
    mean_psnr: float

    @property
    def bytes_per_image(self) -> float:
        """Average compressed size per image."""
        return self.total_bytes / len(self.dataset)


def batch_chunk_size(image_shape: tuple) -> int:
    """Images per chunk: capped by count and by intermediate bytes.

    Small images (the experiment datasets) get the full 1024-image
    chunk; large images shrink the chunk so the whole-batch float64
    intermediates stay near :data:`_BATCH_CHUNK_BYTES` instead of
    scaling with image area.
    """
    per_image = 10 * 8 * int(np.prod(image_shape))
    return int(max(1, min(_BATCH_CHUNK, _BATCH_CHUNK_BYTES // per_image)))


def iter_compressed_stack(images: np.ndarray, codec):
    """Yield per-image results for a stack, in memory-bounded chunks.

    The stack runs through ``codec.compress_batch`` in chunks of
    :func:`batch_chunk_size` images.  The shared-table batch path makes
    per-image byte streams independent of their neighbours (the DC
    predictor resets at image boundaries), so chunking is byte-identical
    to one whole-stack ``compress_batch``, and a consumer that
    aggregates incrementally never holds more than one chunk's
    reconstructions at once.  An empty stack yields nothing.
    """
    chunk = batch_chunk_size(images.shape[1:])
    for start, stop in chunk_bounds(len(images), chunk):
        yield from codec.compress_batch(images[start:stop])


def compress_dataset_with_table(
    dataset: Dataset, table: QuantizationTable, method: str = "custom"
) -> CompressedDataset:
    """Compress every image of a grayscale ``dataset`` with ``table``.

    All images run through one :class:`GrayscaleJpegCodec`'s
    ``compress_batch``, so the table and coder state are shared across
    the dataset.  Any stack other than ``(N, H, W)`` — an empty
    ``(0, H, W, 3)`` one included — raises ``ValueError`` naming its
    shape.
    """
    images = dataset.images
    if images.ndim != 3:
        raise ValueError(
            "expected an (N, H, W) grayscale image stack, got shape "
            f"{images.shape}"
        )
    reconstructed = np.empty_like(images)
    payload = 0
    header = 0
    psnr_values = []
    codec = GrayscaleJpegCodec(table)
    # The stack streams through memory-bounded chunks, so this consumer
    # aggregates incrementally and holds one chunk's results at a time
    # (plus the reassembled output array).
    for index, result in enumerate(iter_compressed_stack(images, codec)):
        reconstructed[index] = result.reconstructed
        payload += result.payload_bytes
        header += result.header_bytes
        psnr_values.append(psnr(images[index], result.reconstructed))
    finite = [value for value in psnr_values if np.isfinite(value)]
    mean_psnr = float(np.mean(finite)) if finite else float("inf")
    return CompressedDataset(
        dataset=dataset.with_images(reconstructed),
        method=method,
        payload_bytes=int(payload),
        header_bytes=int(header),
        original_bytes=dataset.uncompressed_bytes(),
        mean_psnr=mean_psnr,
    )


class DatasetCompressor:
    """A baseline compressor: a table, a store identity, a dataset path."""

    #: Human-readable name used in experiment tables.
    name = "abstract"

    def luma_table(self) -> QuantizationTable:
        """The luminance quantization table this compressor uses."""
        raise NotImplementedError

    def spec(self) -> dict:
        """JSON-able identity; the artifact store keys cached cells on it."""
        raise NotImplementedError

    def compress_dataset(self, dataset: Dataset) -> CompressedDataset:
        """Compress every image of ``dataset`` and collect statistics."""
        return compress_dataset_with_table(
            dataset, self.luma_table(), method=self.name
        )


class JpegCompressor(DatasetCompressor):
    """Ordinary JPEG with the standard tables scaled by a quality factor."""

    def __init__(self, quality: int = 100) -> None:
        if not 1 <= quality <= 100:
            raise ValueError("quality must be in [1, 100]")
        self.quality = int(quality)
        self.name = f"JPEG (QF={self.quality})"

    def spec(self) -> dict:
        return {"codec": "jpeg", "quality": self.quality}

    def luma_table(self) -> QuantizationTable:
        return QuantizationTable.standard_luminance(self.quality)


class RemoveHighFrequencyCompressor(DatasetCompressor):
    """The paper's RM-HF baseline.

    Standard JPEG at the given quality, extended by *removing* the top-N
    highest-frequency components: their quantization steps are raised to
    the maximum representable value so the corresponding coefficients
    quantize to zero for natural image content.
    """

    def __init__(self, removed_components: int = 3, quality: int = 100) -> None:
        if not 0 <= removed_components < 64:
            raise ValueError("removed_components must be in [0, 63]")
        if not 1 <= quality <= 100:
            raise ValueError("quality must be in [1, 100]")
        self.removed_components = int(removed_components)
        self.quality = int(quality)
        self.name = f"RM-HF{self.removed_components}"

    def spec(self) -> dict:
        return {
            "codec": "rm-hf",
            "removed_components": self.removed_components,
            "quality": self.quality,
        }

    def _remove_top_bands(self, base_table: np.ndarray) -> QuantizationTable:
        values = np.array(base_table, dtype=np.float64)
        flat = values.reshape(-1)
        if self.removed_components:
            top_bands = ZIGZAG_ORDER[64 - self.removed_components:]
            flat[top_bands] = MAX_QUANT_STEP
        return QuantizationTable(
            flat.reshape(8, 8), name=f"rm-hf{self.removed_components}"
        )

    def luma_table(self) -> QuantizationTable:
        return self._remove_top_bands(
            scale_table_for_quality(STANDARD_LUMINANCE_TABLE, self.quality)
        )


class SameQCompressor(DatasetCompressor):
    """The paper's SAME-Q baseline: one quantization step for all 64 bands."""

    def __init__(self, step: float = 4.0) -> None:
        if step < 1:
            raise ValueError("step must be at least 1")
        self.step = float(step)
        self.name = f"SAME-Q{self.step:g}"

    def spec(self) -> dict:
        return {"codec": "same-q", "step": self.step}

    def luma_table(self) -> QuantizationTable:
        return QuantizationTable.flat(self.step, name=f"same-q{self.step:g}")
