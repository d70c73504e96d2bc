"""Fully-connected layer and flattening."""

from __future__ import annotations

import numpy as np

from repro.nn.base import Layer, Parameter
from repro.nn.dtype import as_float, resolve_dtype
from repro.nn.engine import PlanError
from repro.nn.init import fallback_rng, he_normal


class Dense(Layer):
    """Affine transform ``y = x W + b`` over flattened feature vectors."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator = None,
        name: str = "dense",
        dtype=None,
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature counts must be positive")
        rng = fallback_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.dtype = resolve_dtype(dtype)
        self.weight = Parameter(
            he_normal(
                (in_features, out_features), in_features, rng,
                dtype=self.dtype,
            ),
            name=f"{name}.weight",
            dtype=self.dtype,
        )
        self.bias = Parameter(
            np.zeros(out_features), name=f"{name}.bias", dtype=self.dtype
        )
        self._inputs = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=self.dtype)
        if inputs.ndim != 2 or inputs.shape[1] != self.in_features:
            raise ValueError(
                f"expected (N, {self.in_features}) input, got {inputs.shape}"
            )
        self._inputs = inputs if training else None
        return inputs @ self.weight.value + self.bias.value

    def plan_inference(self, builder, source):
        if source.ndim != 2 or source.shape[1] != self.in_features:
            raise PlanError(
                f"expected (N, {self.in_features}) input, got {source.shape}"
            )
        out = builder.activation((source.shape[0], self.out_features))

        def build(bind):
            x = bind(source)
            y = bind(out)

            def step():
                np.matmul(x, self.weight.value, out=y)
                np.add(y, self.bias.value, out=y)

            return step

        builder.emit(build, reads=(source,), writes=(out,))
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._inputs is None:
            raise RuntimeError("backward called without a training forward")
        grad_output = np.asarray(grad_output, dtype=self.dtype)
        self.weight.grad += self._inputs.T @ grad_output
        self.bias.grad += grad_output.sum(axis=0)
        return grad_output @ self.weight.value.T

    def parameters(self) -> "list[Parameter]":
        return [self.weight, self.bias]


class Flatten(Layer):
    """Flatten NCHW feature maps into (N, C*H*W) vectors."""

    def __init__(self) -> None:
        self._input_shape = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = as_float(inputs)
        self._input_shape = inputs.shape if training else None
        return inputs.reshape(inputs.shape[0], -1)

    def plan_inference(self, builder, source):
        if source.ndim < 2:
            raise PlanError(f"expected batched input, got {source.shape}")
        batch = source.shape[0]
        # A pure reshape: alias the producer's allocation, no step at all.
        return builder.alias(source, (batch, source.size // max(batch, 1)))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called without a training forward")
        return as_float(grad_output).reshape(self._input_shape)
