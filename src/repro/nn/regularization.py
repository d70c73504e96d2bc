"""Stochastic regularisation layers."""

from __future__ import annotations

import numpy as np

from repro.nn.base import Layer
from repro.nn.dtype import as_float
from repro.nn.init import fallback_rng


class Dropout(Layer):
    """Inverted dropout: active only when ``training=True``."""

    stochastic = True

    def __init__(self, rate: float = 0.5, rng: np.random.Generator = None) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = float(rate)
        self._rng = fallback_rng(rng)
        self._trained = False
        self._mask = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = as_float(inputs)
        self._trained = training
        self._mask = None
        if not training or self.rate == 0.0:
            return inputs
        keep = 1.0 - self.rate
        # The mask is drawn in float64 (same random stream in every
        # compute dtype) and cast to the activation dtype so the product
        # does not promote float32 activations.
        mask = (self._rng.random(inputs.shape) < keep) / keep
        self._mask = mask.astype(inputs.dtype, copy=False)
        return inputs * self._mask

    def plan_inference(self, builder, source):
        # Inference dropout is the identity — pass the slot straight
        # through, exactly as forward() returns its input uncopied.
        return source

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if not self._trained:
            raise RuntimeError("backward called without a training forward")
        grad_output = as_float(grad_output)
        if self._mask is None:  # rate 0: the identity
            return grad_output
        return grad_output * self._mask
