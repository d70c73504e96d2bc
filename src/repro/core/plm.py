"""The piece-wise linear mapping (PLM) from band statistics to
quantization steps — Eq. 3 of the paper.

The mapping assigns a quantization step to each frequency band from the
standard deviation of that band's DCT coefficients:

.. math::

    Q_{i,j} = \\begin{cases}
        a - k_1 \\delta_{i,j} & \\delta_{i,j} \\le T_1 \\\\
        b - k_2 \\delta_{i,j} & T_1 < \\delta_{i,j} \\le T_2 \\\\
        c - k_3 \\delta_{i,j} & \\delta_{i,j} > T_2
    \\end{cases}
    \\qquad \\text{s.t. } Q_{i,j} \\ge Q_{min}

Bands with small standard deviation (high-frequency, low energy) fall in
the first segment and receive large steps; bands with large standard
deviation (low-frequency, high energy, most important to the DNN) fall in
the last segment and are clamped near :math:`Q_{min}`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.jpeg.quantization import MAX_QUANT_STEP, QuantizationTable

#: The published parameters tuned for ImageNet (Section 5 of the paper).
PAPER_IMAGENET_PARAMETERS = {
    "a": 255.0,
    "b": 80.0,
    "c": 240.0,
    "t1": 20.0,
    "t2": 60.0,
    "k1": 9.75,
    "k2": 1.0,
    "k3": 3.0,
    "q_min": 5.0,
}


@dataclass(frozen=True)
class PiecewiseLinearMapping:
    """Eq. 3: three linear segments mapping band std-dev to quantization step.

    Attributes mirror the paper's notation.  ``q_max`` bounds the step
    from above (the baseline JPEG byte range), ``q_min`` from below.
    """

    a: float
    b: float
    c: float
    k1: float
    k2: float
    k3: float
    t1: float
    t2: float
    q_min: float = 5.0
    q_max: float = float(MAX_QUANT_STEP)

    def __post_init__(self) -> None:
        if self.t1 < 0 or self.t2 < self.t1:
            raise ValueError("thresholds must satisfy 0 <= t1 <= t2")
        if self.q_min < 1 or self.q_max < self.q_min:
            raise ValueError("bounds must satisfy 1 <= q_min <= q_max")
        if min(self.k1, self.k2, self.k3) < 0:
            raise ValueError("slopes k1, k2, k3 must be non-negative")

    @classmethod
    def paper_imagenet(cls) -> "PiecewiseLinearMapping":
        """The exact parameter set the paper reports for ImageNet."""
        return cls(**PAPER_IMAGENET_PARAMETERS)

    @classmethod
    def from_anchors(
        cls,
        t1: float,
        t2: float,
        q_max_step: float = 255.0,
        q1: float = 60.0,
        q2: float = 20.0,
        q_min: float = 5.0,
        k3: float = 3.0,
        lf_intercept: float = None,
    ) -> "PiecewiseLinearMapping":
        """Derive the segment parameters from interpretable anchor points.

        The anchors follow the design-optimization procedure of Section 4:

        * ``q_max_step`` is the step assigned to a (hypothetical) band with
          zero energy — the intercept ``a``.
        * ``q1`` is the largest step the HF group tolerates without
          accuracy loss (Fig. 5(c)); the HF segment passes through
          ``(t1, q1)``, giving ``k1 = (a - q1) / t1``.
        * ``q2`` is the corresponding MF step (Fig. 5(b)); the MF segment
          passes through ``(t1, q1)`` and ``(t2, q2)``, giving
          ``k2 = (q1 - q2) / (t2 - t1)`` and ``b = q1 + k2 * t1``.
        * ``k3`` is the LF slope swept in Fig. 6; ``lf_intercept`` (``c``)
          defaults to the value that keeps the mapping continuous at
          ``t2`` (``c = q2 + k3 * t2``).
        * ``q_min`` is the LF floor from Fig. 5(a).
        """
        if t1 <= 0 or t2 <= t1:
            raise ValueError("anchors require 0 < t1 < t2")
        if not q_min <= q2 <= q1 <= q_max_step:
            raise ValueError("anchors require q_min <= q2 <= q1 <= q_max_step")
        k1 = (q_max_step - q1) / t1
        k2 = (q1 - q2) / (t2 - t1)
        b = q1 + k2 * t1
        c = lf_intercept if lf_intercept is not None else q2 + k3 * t2
        return cls(
            a=q_max_step, b=b, c=c, k1=k1, k2=k2, k3=k3,
            t1=t1, t2=t2, q_min=q_min, q_max=q_max_step,
        )

    def quantization_step(self, std: np.ndarray) -> np.ndarray:
        """Evaluate Eq. 3 element-wise on an array of standard deviations."""
        std = np.asarray(std, dtype=np.float64)
        if np.any(std < 0):
            raise ValueError("standard deviations must be non-negative")
        high_frequency = self.a - self.k1 * std
        mid_frequency = self.b - self.k2 * std
        low_frequency = self.c - self.k3 * std
        steps = np.where(
            std <= self.t1,
            high_frequency,
            np.where(std <= self.t2, mid_frequency, low_frequency),
        )
        return np.clip(steps, self.q_min, self.q_max)

    def table_from_statistics(self, statistics) -> QuantizationTable:
        """Build the DeepN-JPEG quantization table for measured statistics.

        ``statistics`` is a
        :class:`~repro.analysis.frequency.FrequencyStatistics`; each of
        the 64 bands gets the step Eq. 3 assigns to its standard
        deviation.
        """
        steps = self.quantization_step(statistics.std)
        return QuantizationTable(steps, name="deepn-jpeg")

    def to_json(self) -> dict:
        """JSON-able payload round-tripping the mapping exactly."""
        return {
            "a": self.a, "b": self.b, "c": self.c,
            "k1": self.k1, "k2": self.k2, "k3": self.k3,
            "t1": self.t1, "t2": self.t2,
            "q_min": self.q_min, "q_max": self.q_max,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "PiecewiseLinearMapping":
        """Rebuild a mapping from a :meth:`to_json` payload."""
        return cls(**{key: float(value) for key, value in payload.items()})
