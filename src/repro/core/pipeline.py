"""The end-to-end DeepN-JPEG pipeline.

:class:`DeepNJpeg` ties the whole framework together:

1. ``fit(dataset)`` runs Algorithm 1 (class-balanced sampling + block-DCT
   statistics) and designs the quantization table through the piece-wise
   linear mapping.
2. ``compress(image)`` / ``compress_dataset(dataset)`` apply the designed
   table through the ordinary JPEG pipeline, so the decoder and hardware
   cost are exactly those of JPEG.

:class:`DeepNJpegCompressor` adapts a fitted pipeline to the
:class:`~repro.core.baselines.DatasetCompressor` interface used by the
experiments.

A fitted pipeline is a *serializable artifact*: :meth:`DeepNJpeg.save`
persists the configuration and the complete table design (tables,
mapping, statistics, segmentation) as versioned JSON, and
:meth:`DeepNJpeg.load` restores a pipeline that re-compresses every
image bit-identically — the object that ships to the edge in the
serving story.
"""

from __future__ import annotations

import json
import os
from typing import Optional

import numpy as np

from repro.analysis.frequency import FrequencyStatistics, analyze_dataset
from repro.core.baselines import (
    CompressedDataset,
    DatasetCompressor,
    compress_dataset_with_table,
)
from repro.core.codec import (
    codec_for_image,
    codec_for_stack,
    compress_stack,
    decode_encoded,
    modality_header_bytes,
    register_builtin_codec,
)
from repro.core.config import DeepNJpegConfig
from repro.core.table_design import DeepNJpegTableDesigner, TableDesignResult
from repro.data.dataset import Dataset
from repro.jpeg.codec import CompressionResult
from repro.jpeg.quantization import QuantizationTable

#: Format tag and version of the saved-artifact JSON layout.
ARTIFACT_FORMAT = "deepn-jpeg-artifact"
ARTIFACT_VERSION = 1


class DeepNJpeg:
    """DNN-favourable JPEG compression, fitted to a labelled dataset."""

    def __init__(self, config: Optional[DeepNJpegConfig] = None) -> None:
        self.config = config if config is not None else DeepNJpegConfig()
        self._designer = DeepNJpegTableDesigner(self.config)
        self._design: Optional[TableDesignResult] = None

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` (or :meth:`fit_statistics`) has run."""
        return self._design is not None

    @property
    def design(self) -> TableDesignResult:
        """The table design result (raises if not fitted)."""
        self._require_fitted()
        return self._design

    @property
    def table(self) -> QuantizationTable:
        """The designed luminance quantization table."""
        return self.design.table

    @property
    def statistics(self) -> FrequencyStatistics:
        """The frequency statistics the table was designed from."""
        return self.design.statistics

    def fit(self, dataset: Dataset) -> "DeepNJpeg":
        """Run Algorithm 1 on ``dataset`` and design the quantization table."""
        statistics = analyze_dataset(
            dataset,
            interval=self.config.sampling_interval,
            max_per_class=self.config.max_samples_per_class,
        )
        return self.fit_statistics(statistics)

    def fit_statistics(self, statistics: FrequencyStatistics) -> "DeepNJpeg":
        """Design the table from pre-computed frequency statistics."""
        self._design = self._designer.design(statistics)
        return self

    def spec(self) -> dict:
        """JSON-able description; rebuilds this pipeline via the registry.

        For a fitted pipeline the payload embeds the complete table
        design, so the spec is a content address of the fitted artifact:
        two pipelines with the same spec compress bit-identically.
        """
        return {
            "codec": "deepn-jpeg",
            "config": self.config.to_json(),
            "design": self._design.to_json() if self.is_fitted else None,
        }

    def save(self, path: str) -> None:
        """Persist the fitted pipeline as a versioned JSON artifact."""
        self._require_fitted()
        payload = {
            "format": ARTIFACT_FORMAT,
            "version": ARTIFACT_VERSION,
            "config": self.config.to_json(),
            "design": self._design.to_json(),
        }
        # PID-suffixed temp file + rename: concurrent savers (parallel
        # shards, jobs sharing a volume) each publish a complete file.
        temporary = f"{path}.{os.getpid()}.tmp"
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(temporary, path)

    @classmethod
    def load(cls, path: str) -> "DeepNJpeg":
        """Restore a pipeline saved by :meth:`save` (bit-exact tables)."""
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("format") != ARTIFACT_FORMAT:
            raise ValueError(
                f"{path} is not a {ARTIFACT_FORMAT} file "
                f"(format={payload.get('format')!r})"
            )
        if payload.get("version") != ARTIFACT_VERSION:
            raise ValueError(
                f"unsupported artifact version {payload.get('version')} "
                f"(this build reads version {ARTIFACT_VERSION})"
            )
        pipeline = cls(DeepNJpegConfig.from_json(payload["config"]))
        pipeline._design = TableDesignResult.from_json(payload["design"])
        return pipeline

    def _codec_for(self, image: np.ndarray):
        """The JPEG codec matching one image's modality.

        Shared single-image shape contract
        (:func:`repro.core.codec.codec_for_image`) with the designed
        tables.
        """
        return codec_for_image(
            image,
            self._design.table,
            self._design.chroma_table,
            optimize_huffman=self.config.optimize_huffman,
        )

    def encode(self, image: np.ndarray):
        """Entropy-code one image with the designed tables."""
        self._require_fitted()
        image = np.asarray(image, dtype=np.float64)
        return self._codec_for(image).encode(image)

    def decode(self, encoded) -> np.ndarray:
        """Decode a stream previously produced by :meth:`encode`."""
        self._require_fitted()
        return decode_encoded(
            encoded, self._design.table, self._design.chroma_table
        )

    def encode_to_bytes(self, image: np.ndarray) -> bytes:
        """Encode one image into a self-contained byte container.

        The container embeds the designed tables, so
        :func:`repro.jpeg.container.decode_image_bytes` inverts it
        without the fitted pipeline — the wire format for shipping
        compressed samples off the edge device.
        """
        self._require_fitted()
        image = np.asarray(image, dtype=np.float64)
        return self._codec_for(image).encode_to_bytes(image)

    def header_bytes(self, color: bool = False) -> int:
        """Marker-segment overhead per image for the given modality."""
        self._require_fitted()
        return modality_header_bytes(
            self._design.table, self._design.chroma_table, color=color
        )

    def compress(self, image: np.ndarray) -> CompressionResult:
        """Compress (and reconstruct) one grayscale or RGB image."""
        self._require_fitted()
        image = np.asarray(image, dtype=np.float64)
        return self._codec_for(image).compress(image)

    def compress_batch(self, images: np.ndarray) -> "list[CompressionResult]":
        """Round-trip a stack of same-shaped images with the designed tables.

        ``(N, H, W)`` stacks run grayscale, ``(N, H, W, 3)`` colour —
        the shape contract of :func:`repro.core.codec.codec_for_stack`,
        including the explicit rejection of ambiguous ``(N, H, 3)``
        stacks and the empty-stack → ``[]`` case.
        """
        self._require_fitted()
        images = np.asarray(images, dtype=np.float64)
        codec = codec_for_stack(
            images,
            self._design.table,
            self._design.chroma_table,
            optimize_huffman=self.config.optimize_huffman,
        )
        return compress_stack(images, codec)

    def compress_dataset(self, dataset: Dataset) -> CompressedDataset:
        """Compress every image of ``dataset`` with the designed table."""
        self._require_fitted()
        return compress_dataset_with_table(
            dataset,
            self._design.table,
            self._design.chroma_table,
            method="DeepN-JPEG",
            optimize_huffman=self.config.optimize_huffman,
        )

    def _require_fitted(self) -> None:
        if self._design is None:
            raise RuntimeError(
                "DeepNJpeg must be fitted (call fit or fit_statistics) before use"
            )


class DeepNJpegCompressor(DatasetCompressor):
    """Adapter exposing a fitted :class:`DeepNJpeg` as a DatasetCompressor."""

    name = "DeepN-JPEG"

    def __init__(self, pipeline: DeepNJpeg) -> None:
        if not pipeline.is_fitted:
            raise ValueError("pipeline must be fitted before wrapping it")
        self.pipeline = pipeline

    @classmethod
    def fit(
        cls, dataset: Dataset, config: Optional[DeepNJpegConfig] = None
    ) -> "DeepNJpegCompressor":
        """Fit a new pipeline on ``dataset`` and wrap it."""
        return cls(DeepNJpeg(config).fit(dataset))

    def spec(self) -> dict:
        """The wrapped pipeline's spec (the fitted artifact's identity)."""
        return self.pipeline.spec()

    def optimize_huffman(self) -> bool:
        """Follow the wrapped pipeline's configuration.

        Keeps the per-image codec path bit-identical to the pipeline's
        own — the ``spec()`` content address describes exactly the
        streams this wrapper produces.
        """
        return self.pipeline.config.optimize_huffman

    def compress_dataset(
        self, dataset: Dataset, optimize_huffman: Optional[bool] = None
    ) -> CompressedDataset:
        """Compress ``dataset`` with the designed tables.

        ``optimize_huffman=None`` (the default) follows the wrapped
        pipeline's configuration, so the dataset path matches what the
        wrapper's ``spec()`` describes; pass an explicit boolean to
        override.
        """
        if optimize_huffman is None:
            optimize_huffman = self.pipeline.config.optimize_huffman
        return super().compress_dataset(
            dataset, optimize_huffman=optimize_huffman
        )

    def luma_table(self) -> QuantizationTable:
        return self.pipeline.design.table

    def chroma_table(self) -> QuantizationTable:
        return self.pipeline.design.chroma_table


def _build_deepn_jpeg(config=None, design=None) -> DeepNJpeg:
    """Registry factory: rebuild a (possibly fitted) DeepN-JPEG pipeline.

    ``config`` and ``design`` accept live objects or their ``to_json``
    payloads, so ``build_codec_from_spec(pipeline.spec())`` restores a
    fitted pipeline exactly.
    """
    if isinstance(config, dict):
        config = DeepNJpegConfig.from_json(config)
    pipeline = DeepNJpeg(config)
    if design is not None:
        if isinstance(design, dict):
            design = TableDesignResult.from_json(design)
        pipeline._design = design
    return pipeline


register_builtin_codec("deepn-jpeg", _build_deepn_jpeg)
