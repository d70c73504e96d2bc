"""Segmentation of the 64 DCT frequency bands into LF / MF / HF groups.

The paper divides the 64 bands into Low (6 bands), Middle (22 bands,
positions 7-28) and High (36 bands, positions 29-64) frequency groups, and
contrasts two ways of deciding which band belongs where:

* **magnitude based** (DeepN-JPEG): rank bands by the standard deviation
  of their DCT coefficients measured on the sampled dataset; the 6 bands
  with the largest standard deviation form the LF group, and so on.
* **position based** (default JPEG thinking): rank bands purely by their
  zig-zag position in the 8x8 grid.

Fig. 5 of the paper shows the magnitude-based grouping tolerates larger
quantization steps in the MF and HF groups at the same accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.frequency import FrequencyStatistics
from repro.jpeg.dct import BLOCK_SIZE
from repro.jpeg.zigzag import ZIGZAG_ORDER

#: Number of bands in each group, following the paper (Section 3.2.2),
#: which borrows the 6 / 22 / 36 split from the steganography literature.
LF_BAND_COUNT = 6
MF_BAND_COUNT = 22
HF_BAND_COUNT = 64 - LF_BAND_COUNT - MF_BAND_COUNT

_GROUPS = ("LF", "MF", "HF")


@dataclass(frozen=True)
class BandSegmentation:
    """Assignment of each of the 64 bands to the LF, MF or HF group.

    Attributes
    ----------
    groups:
        ``(8, 8)`` array of strings ``"LF"``, ``"MF"`` or ``"HF"``.
    method:
        ``"magnitude"`` or ``"position"``.
    """

    groups: np.ndarray
    method: str

    def __post_init__(self) -> None:
        groups = np.asarray(self.groups, dtype=object)
        if groups.shape != (BLOCK_SIZE, BLOCK_SIZE):
            raise ValueError(f"groups must be 8x8, got shape {groups.shape}")
        invalid = {g for g in groups.ravel()} - set(_GROUPS)
        if invalid:
            raise ValueError(f"invalid group labels: {invalid}")
        object.__setattr__(self, "groups", groups)

    def mask(self, group: str) -> np.ndarray:
        """Boolean 8x8 mask of the bands in ``group``."""
        if group not in _GROUPS:
            raise ValueError(f"group must be one of {_GROUPS}, got {group!r}")
        return self.groups == group

    def to_json(self) -> dict:
        """JSON-able payload round-tripping the segmentation exactly."""
        return {
            "groups": [[str(g) for g in row] for row in self.groups],
            "method": self.method,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "BandSegmentation":
        """Rebuild a segmentation from a :meth:`to_json` payload."""
        return cls(
            groups=np.asarray(payload["groups"], dtype=object),
            method=str(payload["method"]),
        )


def magnitude_based_segmentation(
    statistics: FrequencyStatistics,
    lf_count: int = LF_BAND_COUNT,
    mf_count: int = MF_BAND_COUNT,
) -> BandSegmentation:
    """DeepN-JPEG grouping: rank bands by coefficient standard deviation."""
    _check_counts(lf_count, mf_count)
    groups = np.empty((BLOCK_SIZE, BLOCK_SIZE), dtype=object)
    ranked = statistics.ranked_bands()
    for rank, (row, col) in enumerate(ranked):
        groups[row, col] = _group_for_rank(rank, lf_count, mf_count)
    return BandSegmentation(groups=groups, method="magnitude")


def position_based_segmentation(
    lf_count: int = LF_BAND_COUNT, mf_count: int = MF_BAND_COUNT
) -> BandSegmentation:
    """Default-JPEG grouping: rank bands by zig-zag position."""
    _check_counts(lf_count, mf_count)
    groups = np.empty((BLOCK_SIZE, BLOCK_SIZE), dtype=object)
    for rank, flat_index in enumerate(ZIGZAG_ORDER):
        row, col = divmod(int(flat_index), BLOCK_SIZE)
        groups[row, col] = _group_for_rank(rank, lf_count, mf_count)
    return BandSegmentation(groups=groups, method="position")


def segmentation_agreement(
    first: BandSegmentation, second: BandSegmentation
) -> float:
    """Fraction of the 64 bands assigned to the same group by both methods."""
    return float((first.groups == second.groups).mean())


def _group_for_rank(rank: int, lf_count: int, mf_count: int) -> str:
    if rank < lf_count:
        return "LF"
    if rank < lf_count + mf_count:
        return "MF"
    return "HF"


def _check_counts(lf_count: int, mf_count: int) -> None:
    if lf_count < 1 or mf_count < 1:
        raise ValueError("group sizes must be positive")
    if lf_count + mf_count >= BLOCK_SIZE * BLOCK_SIZE:
        raise ValueError("LF + MF groups must leave room for the HF group")
