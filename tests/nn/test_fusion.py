"""Parity of the fused conv→ReLU epilogue of the inference plans."""

import numpy as np
import pytest

from repro.nn import engine, models
from repro.nn.activations import ReLU
from repro.nn.base import Sequential
from repro.nn.conv import Conv2D


def _model(name, dtype="float32"):
    return models.build_model(
        name, num_classes=3, input_shape=(1, 16, 16), seed=0, dtype=dtype
    )


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(3)
    return rng.normal(size=(4, 1, 16, 16))


@pytest.mark.parametrize("name", sorted(models.MODEL_BUILDERS))
def test_fused_inference_matches_unfused(name, inputs):
    """Fused plans give the unfused layer loop's probabilities, bit for bit."""
    model = _model(name)
    x = inputs.astype(np.float32)
    assert model.predict_proba(x).tobytes() == (
        model.predict_proba_dynamic(x).tobytes()
    )


def test_fused_inference_matches_unfused_float64(inputs):
    model = _model("AlexNet", dtype="float64")
    assert model.predict_proba(inputs).tobytes() == (
        model.predict_proba_dynamic(inputs).tobytes()
    )


def test_training_forward_never_fuses(inputs):
    """Every ReLU runs its own forward and keeps its mask for backward."""
    model = _model("AlexNet")
    model.forward(inputs.astype(np.float32), training=True)
    relus = [layer for layer in model.layers if isinstance(layer, ReLU)]
    assert relus
    assert all(relu._mask is not None for relu in relus)


def test_relu_backward_before_any_forward_raises():
    relu = ReLU()
    with pytest.raises(RuntimeError):
        relu.backward(np.ones((2, 2)))


def test_fusion_applies_in_place_on_conv_output():
    rng = np.random.default_rng(0)
    conv = Conv2D(1, 2, 3, rng=rng, dtype="float32")
    model = Sequential([conv, ReLU()])
    x = rng.normal(size=(2, 1, 8, 8)).astype(np.float32)
    plan = engine.get_plan(model, x.shape)
    # One kernel, no ReLU step: the conv rectifies its own output slot.
    assert len(plan.step_info) == 1
    out = plan.run(x)
    assert out.min() >= 0.0
    reference = np.maximum(conv.forward(x, training=False), 0.0)
    np.testing.assert_array_equal(out, reference)
