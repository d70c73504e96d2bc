"""Configuration of the DeepN-JPEG table design.

Every field shapes the designed quantization table; the codec itself
has no knobs (grayscale, one table, Annex K Huffman tables).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

from repro.analysis.bands import LF_BAND_COUNT, MF_BAND_COUNT


@dataclass(frozen=True)
class DeepNJpegConfig:
    """All knobs of the DeepN-JPEG table design.

    Attributes
    ----------
    lf_band_count / mf_band_count:
        Sizes of the low- and mid-frequency groups used to place the PLM
        thresholds (the paper uses 6 and 22; the remaining 36 bands form
        the HF group).
    q_max_step:
        Step assigned to a zero-energy band (intercept ``a`` of Eq. 3).
    q1:
        Largest accuracy-neutral step for the HF group (Fig. 5(c)).
    q2:
        Largest accuracy-neutral step for the MF group (Fig. 5(b)).
    q_min:
        Floor on every step, protecting the highest-energy bands
        (Fig. 5(a)).
    k3:
        Slope of the LF segment, the compression-rate-vs-accuracy knob of
        Fig. 6.
    lf_intercept:
        Intercept ``c`` of the LF segment; ``None`` keeps the mapping
        continuous at ``t2``.
    sampling_interval / max_samples_per_class:
        Algorithm-1 sampling parameters.
    """

    lf_band_count: int = LF_BAND_COUNT
    mf_band_count: int = MF_BAND_COUNT
    q_max_step: float = 255.0
    q1: float = 60.0
    q2: float = 20.0
    q_min: float = 5.0
    k3: float = 3.0
    lf_intercept: Optional[float] = None
    sampling_interval: int = 4
    max_samples_per_class: Optional[int] = None

    def to_json(self) -> dict:
        """JSON-able payload round-tripping the configuration exactly."""
        return asdict(self)

    @classmethod
    def from_json(cls, payload: dict) -> "DeepNJpegConfig":
        """Rebuild a configuration from a :meth:`to_json` payload."""
        return cls(**payload)

    def __post_init__(self) -> None:
        if self.lf_band_count < 1 or self.mf_band_count < 1:
            raise ValueError("band group sizes must be positive")
        if self.lf_band_count + self.mf_band_count >= 64:
            raise ValueError("LF + MF bands must leave room for the HF group")
        if not self.q_min <= self.q2 <= self.q1 <= self.q_max_step:
            raise ValueError(
                "step anchors must satisfy q_min <= q2 <= q1 <= q_max_step"
            )
        if self.k3 < 0:
            raise ValueError("k3 must be non-negative")
        if self.sampling_interval < 1:
            raise ValueError("sampling_interval must be at least 1")
