"""Quantization tables for 8x8 DCT blocks.

The 64-entry quantization table is the object DeepN-JPEG redesigns.  This
module provides the standard ITU-T T.81 Annex K luminance table and the
libjpeg quality-factor scaling rule.  The codec quantizes and
dequantizes with a table's steps in zig-zag order
(:class:`repro.jpeg.codec._ChannelCoder`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.jpeg.dct import BLOCK_SIZE

#: Annex K Table K.1 — luminance quantization values (HVS tuned).
STANDARD_LUMINANCE_TABLE = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float64,
)

#: Maximum quantization step representable in a baseline JPEG DQT segment.
MAX_QUANT_STEP = 255
#: Minimum legal quantization step.
MIN_QUANT_STEP = 1


def scale_table_for_quality(
    table: np.ndarray, quality: int
) -> np.ndarray:
    """Scale a base quantization table by the libjpeg quality factor rule.

    ``quality`` follows the IJG convention: 50 leaves the table unchanged,
    100 forces every step to 1 (lossless quantization), and values below
    50 scale the steps up.  Steps are clipped to ``[1, 255]``.
    """
    if not 1 <= quality <= 100:
        raise ValueError(f"quality must be in [1, 100], got {quality}")
    table = _require_table_array(table)
    if quality < 50:
        scale = 5000.0 / quality
    else:
        scale = 200.0 - 2.0 * quality
    scaled = np.floor((table * scale + 50.0) / 100.0)
    return np.clip(scaled, MIN_QUANT_STEP, MAX_QUANT_STEP)


@dataclass(frozen=True)
class QuantizationTable:
    """A 64-entry scalar quantization table for 8x8 DCT blocks.

    Attributes
    ----------
    values:
        Array of shape ``(8, 8)``; entry ``(i, j)`` is the quantization
        step of frequency band ``(i, j)``.  Values are clipped to the
        baseline JPEG range ``[1, 255]`` at construction.
    name:
        A human-readable label used in experiment reports.
    """

    values: np.ndarray
    name: str = "custom"
    _frozen_values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values = _require_table_array(self.values)
        values = np.clip(np.round(values), MIN_QUANT_STEP, MAX_QUANT_STEP)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_frozen_values", values)

    @classmethod
    def standard_luminance(cls, quality: int = 50) -> "QuantizationTable":
        """The Annex K luminance table scaled to ``quality``."""
        return cls(
            scale_table_for_quality(STANDARD_LUMINANCE_TABLE, quality),
            name=f"jpeg-luma-q{quality}",
        )

    @classmethod
    def flat(cls, step: float, name: str = "") -> "QuantizationTable":
        """A table with the same step everywhere (the SAME-Q baseline)."""
        values = np.full((BLOCK_SIZE, BLOCK_SIZE), float(step))
        return cls(values, name=name or f"flat-q{step:g}")

    def mean_step(self) -> float:
        """Average quantization step, a coarse proxy for aggressiveness."""
        return float(self.values.mean())

    def to_json(self) -> dict:
        """JSON-able payload describing this table exactly.

        Steps are integers in ``[1, 255]`` after construction, so the
        payload round-trips the table bit for bit through
        :meth:`from_json`.
        """
        return {
            "values": [[int(step) for step in row] for row in self.values],
            "name": self.name,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "QuantizationTable":
        """Rebuild a table from a :meth:`to_json` payload."""
        return cls(
            np.asarray(payload["values"], dtype=np.float64),
            name=str(payload.get("name", "custom")),
        )


def _require_table_array(table: np.ndarray) -> np.ndarray:
    table = np.array(table, dtype=np.float64)
    if table.shape != (BLOCK_SIZE, BLOCK_SIZE):
        raise ValueError(
            f"quantization table must be 8x8, got shape {table.shape}"
        )
    if not np.all(np.isfinite(table)):
        raise ValueError("quantization table contains non-finite values")
    if np.any(table <= 0):
        raise ValueError("quantization steps must be strictly positive")
    return table
