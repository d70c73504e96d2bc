"""The end-to-end DeepN-JPEG pipeline.

:class:`DeepNJpeg` ties the whole framework together:

1. ``fit(dataset)`` runs Algorithm 1 (class-balanced sampling + block-DCT
   statistics) and designs the quantization table through the piece-wise
   linear mapping.
2. ``compress(image)`` / ``encode_to_bytes(image)`` /
   ``compress_dataset(dataset)`` apply the designed table through the
   ordinary grayscale JPEG pipeline with the Annex K Huffman tables, so
   the decoder and hardware cost are exactly those of JPEG.

A fitted pipeline is also the DeepN-JPEG candidate of the figures: it
has the baselines' ``name``, ``spec()`` and ``compress_dataset()``
(:mod:`repro.core.baselines`).

A fitted pipeline is a *serializable artifact*: :meth:`DeepNJpeg.save`
persists the configuration and the complete table design (table,
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
from repro.core.baselines import CompressedDataset, compress_dataset_with_table
from repro.core.config import DeepNJpegConfig
from repro.core.table_design import DeepNJpegTableDesigner, TableDesignResult
from repro.data.dataset import Dataset
from repro.files import read_regular_file
from repro.jpeg.codec import CompressionResult, GrayscaleJpegCodec
from repro.jpeg.quantization import QuantizationTable

#: Format tag and version of the saved-artifact JSON layout.
ARTIFACT_FORMAT = "deepn-jpeg-artifact"
ARTIFACT_VERSION = 2


class DeepNJpeg:
    """DNN-favourable JPEG compression, fitted to a labelled dataset."""

    #: Human-readable name used in experiment tables.
    name = "DeepN-JPEG"

    def __init__(self, config: Optional[DeepNJpegConfig] = None) -> None:
        self.config = config if config is not None else DeepNJpegConfig()
        self._designer = DeepNJpegTableDesigner(self.config)
        self._design: Optional[TableDesignResult] = None
        self._codec: Optional[GrayscaleJpegCodec] = None

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
        """The designed quantization table."""
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

    @classmethod
    def from_design(
        cls, config: DeepNJpegConfig, design: TableDesignResult
    ) -> "DeepNJpeg":
        """A fitted pipeline from its configuration and table design."""
        pipeline = cls(config)
        pipeline._design = design
        return pipeline

    def spec(self) -> dict:
        """JSON-able identity; the artifact store keys cached cells on it.

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
        """Restore a pipeline saved by :meth:`save` (bit-exact tables).

        Raises :class:`ValueError` naming ``path`` for any file that is
        not a well-formed artifact of this version, including a FIFO or
        other non-regular file (never blocking on it), a file over
        :data:`~repro.files.MAX_FILE_BYTES`, and one whose design
        differs from the design its config derives from its embedded
        statistics (an edited table step, say); a missing file or a
        directory stays an :class:`OSError`.
        """
        try:
            payload = json.loads(read_regular_file(path).decode("utf-8"))
        except (RecursionError, ValueError) as error:
            # ValueError covers JSONDecodeError, UnicodeDecodeError and
            # the files read_regular_file refuses; deep nesting exhausts
            # the decoder's recursion limit.
            raise ValueError(
                f"{path} is not a {ARTIFACT_FORMAT} file "
                f"({type(error).__name__}: {error})"
            ) from error
        if not isinstance(payload, dict):
            raise ValueError(
                f"{path} is not a {ARTIFACT_FORMAT} file "
                f"(a JSON {type(payload).__name__}, not an object)"
            )
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
        try:
            config = DeepNJpegConfig.from_json(payload["config"])
            design = TableDesignResult.from_json(payload["design"])
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            raise ValueError(
                f"{path} is a malformed {ARTIFACT_FORMAT} file "
                f"({type(error).__name__}: {error})"
            ) from error
        # The design is a pure function of the config and the embedded
        # statistics: re-deriving it catches an edited table or mapping.
        derived = DeepNJpegTableDesigner(config).design(design.statistics)
        if derived.to_json() != design.to_json():
            raise ValueError(
                f"{path} is an inconsistent {ARTIFACT_FORMAT} file "
                "(its design does not re-derive from its config and "
                "statistics)"
            )
        return cls.from_design(config, design)

    def encode_to_bytes(self, image: np.ndarray) -> bytes:
        """Encode one image into a self-contained byte container.

        The container embeds the designed table, so
        :func:`repro.jpeg.container.decode_image_bytes` inverts it
        without the fitted pipeline — the wire format for shipping
        compressed samples off the edge device.
        """
        return self._fitted_codec().encode_to_bytes(image)

    def compress(self, image: np.ndarray) -> CompressionResult:
        """Compress (and reconstruct) one grayscale image."""
        return self._fitted_codec().compress(image)

    def compress_dataset(self, dataset: Dataset) -> CompressedDataset:
        """Compress every image of ``dataset`` with the designed table."""
        self._require_fitted()
        return compress_dataset_with_table(
            dataset, self._design.table, method=self.name
        )

    def _fitted_codec(self) -> GrayscaleJpegCodec:
        """The codec of the designed table, built once per design."""
        self._require_fitted()
        table = self._design.table
        if self._codec is None or self._codec.table is not table:
            self._codec = GrayscaleJpegCodec(table)
        return self._codec

    def _require_fitted(self) -> None:
        if self._design is None:
            raise RuntimeError(
                "DeepNJpeg must be fitted (call fit or fit_statistics) before use"
            )
