"""Core abstractions of the neural-network framework.

A :class:`Parameter` couples a value array with its gradient.  A
:class:`Layer` is anything with a ``forward``/``backward`` pair and a list
of parameters.  :class:`Sequential` chains layers, and is the container
all models in :mod:`repro.nn.models` are built from.
"""

from __future__ import annotations

import numpy as np

from repro.nn.dtype import REFERENCE_DTYPE, resolve_dtype


class Parameter:
    """A trainable tensor and its accumulated gradient.

    ``dtype`` fixes the compute dtype of the value and gradient buffers
    (float32 fast mode or float64 reference mode); ``None`` keeps the
    historical float64 default.
    """

    def __init__(
        self, value: np.ndarray, name: str = "param", dtype=None
    ) -> None:
        self.value = np.asarray(value, dtype=resolve_dtype(dtype))
        self.grad = np.zeros_like(self.value)
        self.name = name

    @property
    def dtype(self) -> np.dtype:
        return self.value.dtype

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero."""
        self.grad[...] = 0.0

    @property
    def shape(self) -> tuple:
        return self.value.shape

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.value.shape})"


class Layer:
    """Base class for all layers.

    Subclasses implement :meth:`forward` and :meth:`backward`; layers with
    trainable state override :meth:`parameters`.
    """

    #: Whether the layer behaves differently in training vs inference
    #: (dropout, batch norm); purely informational.
    stochastic = False

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output for ``inputs``."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad_output`` and accumulate parameter gradients."""
        raise NotImplementedError

    def parameters(self) -> "list[Parameter]":
        """Trainable parameters of this layer (possibly empty)."""
        return []

    def zero_grad(self) -> None:
        """Zero the gradients of all parameters."""
        for parameter in self.parameters():
            parameter.zero_grad()

    def plan_inference(self, builder, source):
        """Emit this layer's inference steps into an execution plan.

        Layers that support the planned engine (:mod:`repro.nn.engine`)
        override this to allocate arena slots and emit kernel steps via
        ``builder``, returning the output slot.  The default refuses,
        which makes the engine fall back to the dynamic path.
        """
        from repro.nn.engine import PlanError

        raise PlanError(
            f"{type(self).__name__} does not support planned inference"
        )

    def __call__(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(inputs, training=training)

    def parameter_count(self) -> int:
        """Total number of trainable scalars."""
        return int(sum(p.value.size for p in self.parameters()))


class Sequential(Layer):
    """A layer that applies its children in order.

    :meth:`forward` is the plain layer loop, in training and inference
    alike.  Production inference runs the compiled plans of
    :mod:`repro.nn.engine` instead, which fuse each conv → ReLU pair
    (see :meth:`plan_inference`); the loop stays as their parity
    reference, :meth:`predict_proba_dynamic`.
    """

    def __init__(self, layers: "list[Layer]" = None, name: str = "sequential") -> None:
        self.layers = list(layers) if layers is not None else []
        self.name = name

    def add(self, layer: Layer) -> "Sequential":
        """Append a layer and return ``self`` for chaining."""
        self.layers.append(layer)
        self.__dict__.pop("_plan_cache", None)
        return self

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        outputs = inputs
        for layer in self.layers:
            outputs = layer.forward(outputs, training=training)
        return outputs

    def backward(
        self, grad_output: np.ndarray, need_input_grad: bool = True
    ) -> np.ndarray:
        """Backpropagate through all layers.

        Needs a training forward first: every layer keeps its backward
        state only then, and raises ``RuntimeError`` otherwise, before
        any gradient is written.  With ``need_input_grad=False`` the
        first layer may skip computing the gradient with respect to the
        network input, which the training loop discards.  Layers
        advertise support via ``backward_params_only``.
        """
        grad = grad_output
        for index in range(len(self.layers) - 1, 0, -1):
            grad = self.layers[index].backward(grad)
        if not self.layers:
            return grad
        first = self.layers[0]
        if not need_input_grad and hasattr(first, "backward_params_only"):
            return first.backward_params_only(grad)
        return first.backward(grad)

    def parameters(self) -> "list[Parameter]":
        params = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    @property
    def dtype(self) -> np.dtype:
        """Compute dtype of the model (dtype of its first parameter).

        Walks the layers in order and stops at the first that has a
        parameter, without building the whole parameter list.
        """
        for layer in self.layers:
            for parameter in layer.parameters():
                return parameter.dtype
        return REFERENCE_DTYPE

    def plan_inference(self, builder, source):
        """Compile the children into plan steps, mirroring ``forward``.

        A layer with ``plan_fused_relu`` followed by one with
        ``accepts_fused_relu`` (conv → ReLU in every built-in model)
        compiles into one kernel that rectifies the GEMM output in place
        with ``maximum``.  That differs from ``ReLU.forward`` only in the
        sign of a rectified zero (+0.0 against -0.0), which the next
        layer's sums absorb, so plan probabilities equal
        :meth:`predict_proba_dynamic`'s bit for bit.  Frees every
        intermediate slot once its consumer has been emitted, and never
        frees ``source`` (the caller owns it — e.g. a residual block
        still feeding it to the shortcut branch).
        """
        previous = source
        index = 0
        while index < len(self.layers):
            layer = self.layers[index]
            successor = (
                self.layers[index + 1] if index + 1 < len(self.layers) else None
            )
            if (
                successor is not None
                and hasattr(layer, "plan_fused_relu")
                and getattr(successor, "accepts_fused_relu", False)
            ):
                output = layer.plan_fused_relu(builder, previous)
                index += 2
            else:
                output = layer.plan_inference(builder, previous)
                index += 1
            if previous is not source and output is not previous:
                builder.free(previous)
            previous = output
        return previous

    def predict_proba(self, inputs: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Class probabilities for a batch of inputs (inference mode).

        Runs through the planned engine (:mod:`repro.nn.engine`) —
        bit-identical to the dynamic path for float32/float64 — and falls
        back to :meth:`predict_proba_dynamic` for an empty batch or a
        model that cannot be planned.
        """
        from repro.nn import engine

        return engine.predict_proba(self, inputs, batch_size=batch_size)

    def predict_proba_dynamic(
        self, inputs: np.ndarray, batch_size: int = 64
    ) -> np.ndarray:
        """Layer-by-layer probabilities: the plans' parity reference."""
        from repro.nn.losses import softmax

        inputs = np.asarray(inputs, dtype=self.dtype)
        outputs = []
        for start in range(0, inputs.shape[0], batch_size):
            logits = self.forward(inputs[start:start + batch_size], training=False)
            outputs.append(softmax(logits))
        return np.concatenate(outputs, axis=0)

    def predict(self, inputs: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Predicted class indices for a batch of inputs."""
        return np.argmax(self.predict_proba(inputs, batch_size=batch_size), axis=1)

    def __len__(self) -> int:
        return len(self.layers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(type(layer).__name__ for layer in self.layers)
        return f"Sequential(name={self.name!r}, layers=[{inner}])"
