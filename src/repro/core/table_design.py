"""DeepN-JPEG quantization table design.

Connects the pieces: the per-band standard deviations from Algorithm 1
(:mod:`repro.analysis.frequency`), the magnitude-based band segmentation
(:mod:`repro.analysis.bands`) that yields the thresholds ``T1`` and
``T2``, and the piece-wise linear mapping of Eq. 3
(:mod:`repro.core.plm`) that converts each band's statistic into its
quantization step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.bands import BandSegmentation, magnitude_based_segmentation
from repro.analysis.frequency import FrequencyStatistics
from repro.core.config import DeepNJpegConfig
from repro.core.plm import PiecewiseLinearMapping
from repro.jpeg.quantization import QuantizationTable


@dataclass(frozen=True)
class TableDesignResult:
    """Everything produced by one table design run.

    Attributes
    ----------
    table:
        The designed quantization table.
    mapping:
        The fitted piece-wise linear mapping.
    statistics:
        The frequency statistics the design was based on.
    segmentation:
        The magnitude-based LF/MF/HF segmentation implied by the
        statistics.
    """

    table: QuantizationTable
    mapping: PiecewiseLinearMapping
    statistics: FrequencyStatistics
    segmentation: BandSegmentation

    def to_json(self) -> dict:
        """JSON-able payload round-tripping the whole design exactly.

        Every component serializes its defining state (integer table
        steps, ``repr``-exact floats), so a design saved on one machine
        re-compresses bit-identically on another.
        """
        return {
            "table": self.table.to_json(),
            "mapping": self.mapping.to_json(),
            "statistics": self.statistics.to_json(),
            "segmentation": self.segmentation.to_json(),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "TableDesignResult":
        """Rebuild a design from a :meth:`to_json` payload."""
        return cls(
            table=QuantizationTable.from_json(payload["table"]),
            mapping=PiecewiseLinearMapping.from_json(payload["mapping"]),
            statistics=FrequencyStatistics.from_json(payload["statistics"]),
            segmentation=BandSegmentation.from_json(payload["segmentation"]),
        )


class DeepNJpegTableDesigner:
    """Designs the DeepN-JPEG quantization table for a dataset's statistics."""

    def __init__(self, config: Optional[DeepNJpegConfig] = None) -> None:
        self.config = config if config is not None else DeepNJpegConfig()

    def thresholds_from_statistics(
        self, statistics: FrequencyStatistics
    ) -> tuple:
        """Derive ``(t1, t2)`` from the ranked band standard deviations.

        ``t2`` is the standard deviation of the smallest LF band (rank
        ``lf_band_count``), ``t1`` that of the smallest MF band (rank
        ``lf_band_count + mf_band_count``): bands at or below ``t1`` fall
        in the HF segment of the mapping, bands above ``t2`` in the LF
        segment.
        """
        sorted_std = np.sort(statistics.std, axis=None)[::-1]
        t2 = float(sorted_std[self.config.lf_band_count - 1])
        t1 = float(
            sorted_std[self.config.lf_band_count + self.config.mf_band_count - 1]
        )
        if t1 <= 0:
            # Degenerate datasets (e.g. constant images) can produce zero
            # standard deviations; keep the mapping well-formed.
            t1 = 1e-6
        if t2 <= t1:
            t2 = t1 * (1.0 + 1e-6)
        return t1, t2

    def mapping_from_statistics(
        self, statistics: FrequencyStatistics
    ) -> PiecewiseLinearMapping:
        """Fit the Eq. 3 mapping to the measured statistics."""
        t1, t2 = self.thresholds_from_statistics(statistics)
        return PiecewiseLinearMapping.from_anchors(
            t1=t1,
            t2=t2,
            q_max_step=self.config.q_max_step,
            q1=self.config.q1,
            q2=self.config.q2,
            q_min=self.config.q_min,
            k3=self.config.k3,
            lf_intercept=self.config.lf_intercept,
        )

    def design(self, statistics: FrequencyStatistics) -> TableDesignResult:
        """Produce the DeepN-JPEG table for ``statistics``."""
        mapping = self.mapping_from_statistics(statistics)
        table = mapping.table_from_statistics(statistics)
        segmentation = magnitude_based_segmentation(
            statistics,
            lf_count=self.config.lf_band_count,
            mf_count=self.config.mf_band_count,
        )
        return TableDesignResult(
            table=table,
            mapping=mapping,
            statistics=statistics,
            segmentation=segmentation,
        )
