"""Gradient-descent optimizers.

Updates run fully in place: every multiply/divide/subtract writes into
either the parameter buffers, the optimizer state, or one of a small set
of scratch buffers reused across steps — no per-parameter temporaries
are allocated after the first step.  The in-place sequences apply the
exact elementwise operations of the textbook formulas in the same order,
so float64 updates are bit-identical to the original allocating
implementation (asserted by the parity tests).

Optimizer state is keyed by parameter *name* rather than raw object
identity, so ``_state`` reads as a checkpointable mapping from layer
names to moments; the first parameter object to claim a name owns its
slot for the optimizer's lifetime, and parameters whose names collide
(e.g. two bare ``Parameter`` objects both named ``"param"``) are
transparently disambiguated with a ``#<n>`` suffix.
"""

from __future__ import annotations

import numpy as np

from repro.nn.base import Parameter


class Optimizer:
    """Base optimizer: holds hyper-parameters and per-parameter state."""

    def __init__(self, learning_rate: float, weight_decay: float = 0.0) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.learning_rate = float(learning_rate)
        self.weight_decay = float(weight_decay)
        #: Per-parameter state, keyed by (disambiguated) parameter name.
        self._state: dict = {}
        self._key_by_id: dict = {}
        self._claimed_keys: set = set()
        self._scratch: dict = {}

    def state_key(self, parameter: Parameter) -> str:
        """Stable state key for ``parameter``: its name, made unique.

        The first parameter to claim a name owns it; a *different*
        parameter object carrying an already-claimed name gets a
        ``#<n>`` suffix so unnamed parameters never share state.  The
        id->key map holds a strong reference to each claimant (the
        moment arrays in ``_state`` dwarf it), so a garbage-collected
        parameter's recycled ``id`` can never resurrect its state.
        """
        entry = self._key_by_id.get(id(parameter))
        if entry is not None and entry[0] is parameter:
            return entry[1]
        key = parameter.name
        suffix = 1
        while key in self._claimed_keys:
            suffix += 1
            key = f"{parameter.name}#{suffix}"
        self._claimed_keys.add(key)
        self._key_by_id[id(parameter)] = (parameter, key)
        return key

    def _scratch_buffer(self, slot: str, reference: np.ndarray) -> np.ndarray:
        """A reusable scratch array matching ``reference``'s shape/dtype."""
        key = (slot, reference.shape, reference.dtype)
        buffer = self._scratch.get(key)
        if buffer is None:
            buffer = np.empty_like(reference)
            self._scratch[key] = buffer
        return buffer

    def step(self, parameters: "list[Parameter]") -> None:
        """Apply one update to every parameter from its accumulated gradient."""
        for parameter in parameters:
            grad = parameter.grad
            if self.weight_decay:
                # grad + wd * value without a fresh temporary: the decay
                # scratch holds wd * value, then accumulates the gradient
                # (addition commutes bit-exactly).
                decayed = self._scratch_buffer("decay", parameter.value)
                np.multiply(parameter.value, self.weight_decay, out=decayed)
                decayed += grad
                grad = decayed
            self._update(parameter, grad)

    def _update(self, parameter: Parameter, grad: np.ndarray) -> None:
        raise NotImplementedError

    def zero_grad(self, parameters: "list[Parameter]") -> None:
        """Zero the gradient buffers of ``parameters``."""
        for parameter in parameters:
            parameter.zero_grad()


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015)."""

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(learning_rate, weight_decay)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)

    def _update(self, parameter: Parameter, grad: np.ndarray) -> None:
        key = self.state_key(parameter)
        state = self._state.get(key)
        if state is None:
            state = {
                "step": 0,
                "m": np.zeros_like(parameter.value),
                "v": np.zeros_like(parameter.value),
            }
            self._state[key] = state
        state["step"] += 1
        m = state["m"]
        v = state["v"]
        buffer_a = self._scratch_buffer("adam_a", parameter.value)
        buffer_b = self._scratch_buffer("adam_b", parameter.value)
        # m = beta1 * m + (1 - beta1) * grad
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=buffer_a)
        m += buffer_a
        # v = beta2 * v + ((1 - beta2) * grad) * grad
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=buffer_a)
        buffer_a *= grad
        v += buffer_a
        # value -= (lr * m_hat) / (sqrt(v_hat) + eps)
        np.divide(m, 1.0 - self.beta1 ** state["step"], out=buffer_a)
        np.divide(v, 1.0 - self.beta2 ** state["step"], out=buffer_b)
        np.sqrt(buffer_b, out=buffer_b)
        buffer_b += self.epsilon
        buffer_a *= self.learning_rate
        buffer_a /= buffer_b
        parameter.value -= buffer_a
