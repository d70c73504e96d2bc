"""Dataset-level compression: the baselines the paper compares against.

Four compressors share one interface (:class:`DatasetCompressor`):

* :class:`JpegCompressor` — ordinary JPEG with the Annex-K table scaled by
  a quality factor (the "Original" dataset is JPEG at QF=100).
* :class:`RemoveHighFrequencyCompressor` — the paper's "RM-HF" baseline:
  JPEG extended by discarding the top-N highest-frequency components.
* :class:`SameQCompressor` — the paper's "SAME-Q" baseline: a flat table
  with one step for all 64 bands.
* :class:`~repro.core.pipeline.DeepNJpegCompressor` — the proposed method
  (defined in :mod:`repro.core.pipeline`).

Compressing a dataset returns a :class:`CompressedDataset` holding the
reconstructed images (to feed a classifier) and the measured byte counts
(to compute compression ratios and, later, offloading power).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.codec import (
    codec_for_image,
    codec_for_stack,
    compress_stack,
    decode_encoded,
    iter_compressed_stack,
    modality_header_bytes,
    register_builtin_codec,
)
from repro.data.dataset import Dataset
from repro.jpeg.codec import CompressionResult
from repro.jpeg.metrics import CompressedSizeMixin, psnr
from repro.jpeg.quantization import (
    MAX_QUANT_STEP,
    QuantizationTable,
    STANDARD_CHROMINANCE_TABLE,
    STANDARD_LUMINANCE_TABLE,
    scale_table_for_quality,
)
from repro.jpeg.zigzag import ZIGZAG_ORDER


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


def compress_batch(
    images: np.ndarray,
    luma_table: QuantizationTable,
    chroma_table: Optional[QuantizationTable] = None,
    optimize_huffman: bool = False,
) -> "list[CompressionResult]":
    """Compress a stack of same-shaped images with one shared codec.

    The batch entry point every dataset-level experiment goes through:
    one codec — and therefore one set of quantization and Huffman
    tables, dense code arrays and decode LUTs — is built once and
    reused across all images instead of being rebuilt per image.
    Grayscale stacks ``(N, H, W)`` run blocking, DCT, quantization and
    entropy coding as single vectorized passes over every block of the
    whole batch; colour stacks ``(N, H, W, 3)`` do the same per plane
    (colour conversion and chroma resampling are also whole-batch
    passes).  Per-image results are byte-identical to compressing each
    image individually.
    """
    images = np.asarray(images, dtype=np.float64)
    codec = codec_for_stack(
        images, luma_table, chroma_table, optimize_huffman=optimize_huffman
    )
    return compress_stack(images, codec)


def compress_dataset_with_table(
    dataset: Dataset,
    luma_table: QuantizationTable,
    chroma_table: Optional[QuantizationTable] = None,
    method: str = "custom",
    optimize_huffman: bool = False,
) -> CompressedDataset:
    """Compress every image of ``dataset`` with the given table(s).

    Grayscale datasets use :class:`GrayscaleJpegCodec`; colour datasets go
    through the YCbCr path of :class:`ColorJpegCodec`.  All images run
    through the codec's ``compress_batch``, so tables and coder state are
    shared across the dataset.  The dataset's dimensionality decides the
    modality here (``ndim == 4`` is colour), so even pathological shapes
    like 3-pixel-wide grayscale images dispatch correctly.
    """
    images = dataset.images
    reconstructed = np.empty_like(images)
    payload = 0
    header = 0
    psnr_values = []
    codec = codec_for_stack(
        images, luma_table, chroma_table,
        optimize_huffman=optimize_huffman, strict=False,
    )
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
    """Interface of every dataset-level compressor.

    Besides the dataset entry point (:meth:`compress_dataset`), every
    compressor implements the :class:`repro.core.codec.Codec` protocol —
    per-image ``encode`` / ``decode`` / ``compress``, stack-level
    ``compress_batch``, ``header_bytes`` and a JSON-able ``spec()`` —
    by building the modality-appropriate JPEG codec from its tables.
    """

    #: Human-readable name used in experiment tables.
    name = "abstract"

    def luma_table(self) -> QuantizationTable:
        """The luminance quantization table this compressor uses."""
        raise NotImplementedError

    def chroma_table(self) -> QuantizationTable:
        """The chrominance quantization table (defaults to the luma table)."""
        return self.luma_table()

    def optimize_huffman(self) -> bool:
        """Whether this compressor codes with per-image optimized tables.

        The base compressors use the Annex K standard tables; wrappers
        around a configured pipeline override this so their per-image
        codec path produces exactly the streams their ``spec()``
        describes.
        """
        return False

    def spec(self) -> dict:
        """JSON-able description; rebuilds this compressor via the registry."""
        raise NotImplementedError

    def codec_for(self, image: np.ndarray):
        """The underlying JPEG codec for one image.

        Accepts a single ``(H, W)`` grayscale or ``(H, W, 3)`` RGB
        image (:func:`repro.core.codec.codec_for_image`); stacks go
        through :meth:`compress_batch`, whose shape validation matches
        :func:`repro.core.codec.codec_for_stack`.
        """
        return codec_for_image(
            image, self.luma_table(), self.chroma_table(),
            optimize_huffman=self.optimize_huffman(),
        )

    def encode(self, image: np.ndarray):
        """Entropy-code one image with this compressor's tables."""
        return self.codec_for(image).encode(np.asarray(image, dtype=np.float64))

    def decode(self, encoded) -> np.ndarray:
        """Decode a stream previously produced by :meth:`encode`."""
        return decode_encoded(encoded, self.luma_table(), self.chroma_table())

    def compress(self, image: np.ndarray) -> CompressionResult:
        """Round-trip one image and report sizes and the reconstruction."""
        return self.codec_for(image).compress(
            np.asarray(image, dtype=np.float64)
        )

    def compress_batch(self, images: np.ndarray) -> "list[CompressionResult]":
        """Round-trip a stack of same-shaped images with shared tables.

        Stack shapes follow the module-level :func:`compress_batch`
        contract — ``(N, H, W)`` grayscale or ``(N, H, W, 3)`` colour,
        with the ambiguous ``(N, H, 3)`` case rejected explicitly.
        """
        images = np.asarray(images, dtype=np.float64)
        codec = codec_for_stack(
            images, self.luma_table(), self.chroma_table(),
            optimize_huffman=self.optimize_huffman(),
        )
        return compress_stack(images, codec)

    def header_bytes(self, color: bool = False) -> int:
        """Marker-segment overhead per image for the given modality."""
        return modality_header_bytes(
            self.luma_table(), self.chroma_table(), color=color
        )

    def compress_dataset(
        self, dataset: Dataset, optimize_huffman: bool = False
    ) -> CompressedDataset:
        """Compress every image of ``dataset`` and collect statistics."""
        return compress_dataset_with_table(
            dataset,
            self.luma_table(),
            self.chroma_table(),
            method=self.name,
            optimize_huffman=optimize_huffman,
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

    def chroma_table(self) -> QuantizationTable:
        return QuantizationTable.standard_chrominance(self.quality)


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

    def chroma_table(self) -> QuantizationTable:
        return self._remove_top_bands(
            scale_table_for_quality(STANDARD_CHROMINANCE_TABLE, self.quality)
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

    def chroma_table(self) -> QuantizationTable:
        return self.luma_table()


register_builtin_codec("jpeg", JpegCompressor)
register_builtin_codec("rm-hf", RemoveHighFrequencyCompressor)
register_builtin_codec("same-q", SameQCompressor)
