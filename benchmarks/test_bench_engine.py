"""Timing floors of the planned inference engine (``repro.nn.engine``).

Two axes, each timed with ``time.perf_counter`` against the dynamic
layer-by-layer reference path, with the measured speedup printed:

- **single-image latency** — the per-request overhead the plan
  eliminates (no per-call allocation, no layer-list walk);
- **large-batch throughput** — GoogLeNet, whose dynamic path spends
  heavily on per-layer temporaries even at batch scale.

The speedup floors assert planned float32 ≥ 1.5× at single-image
latency and ≥ 1.3× at large-batch throughput, each as a ratio of
medians over interleaved rounds.  ``REPRO_ENGINE_SPEEDUP_FLOOR`` scales
both; 0 turns them off, for a host whose noisy vCPUs cannot give a
stable timing signal.
"""

import os
import statistics
import time

import numpy as np

from repro.nn import engine, models

#: Demanded planned-vs-dynamic speedups; 0 disables the assertions.
ENGINE_SPEEDUP_FLOOR = float(
    os.environ.get("REPRO_ENGINE_SPEEDUP_FLOOR", "1")
)
SINGLE_IMAGE_FLOOR = 1.5 * ENGINE_SPEEDUP_FLOOR
LARGE_BATCH_FLOOR = 1.3 * ENGINE_SPEEDUP_FLOOR
#: Interleaved planned/dynamic rounds whose medians each floor compares.
SINGLE_IMAGE_ROUNDS = 30
LARGE_BATCH_ROUNDS = 20


def _model(name="AlexNet"):
    return models.build_model(
        name, num_classes=8, input_shape=(1, 32, 32), seed=0, dtype="float32"
    )


def _images(count, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(count, 1, 32, 32)).astype(np.float32)


def _seconds(function):
    started = time.perf_counter()
    function()
    return time.perf_counter() - started


def _median_seconds(dynamic, planned, rounds):
    """Median round times of ``dynamic`` and ``planned``, alternating.

    The two paths alternate round by round, so a burst of load on a
    shared host slows both sides of the ratio instead of one.
    """
    dynamic_rounds, planned_rounds = [], []
    for _ in range(rounds):
        dynamic_rounds.append(_seconds(dynamic))
        planned_rounds.append(_seconds(planned))
    return (
        statistics.median(dynamic_rounds), statistics.median(planned_rounds)
    )


def test_single_image_latency():
    """Planned single-image predict vs the dynamic path (AlexNet)."""
    model = _model()
    image = _images(1)
    engine.predict_proba(model, image)  # compile + warm the plan
    model.predict_proba_dynamic(image)  # warm the dynamic scratch caches

    planned = engine.predict_proba(model, image)
    assert planned.shape == (1, 8)

    dynamic_seconds, planned_seconds = _median_seconds(
        lambda: model.predict_proba_dynamic(image),
        lambda: engine.predict_proba(model, image),
        SINGLE_IMAGE_ROUNDS,
    )
    speedup = dynamic_seconds / planned_seconds
    print(
        f"\nsingle-image: dynamic {dynamic_seconds * 1e3:.3f} ms, "
        f"planned {planned_seconds * 1e3:.3f} ms ({speedup:.2f}x)"
    )
    if SINGLE_IMAGE_FLOOR > 0:
        assert speedup >= SINGLE_IMAGE_FLOOR


def test_large_batch_throughput():
    """Planned batch-256 predict vs the dynamic path (GoogLeNet)."""
    model = _model("GoogLeNet")
    images = _images(256)
    engine.predict_proba(model, images, batch_size=64)
    model.predict_proba_dynamic(images, batch_size=64)

    planned = engine.predict_proba(model, images, batch_size=64)
    assert planned.shape == (256, 8)

    dynamic_seconds, planned_seconds = _median_seconds(
        lambda: model.predict_proba_dynamic(images, batch_size=64),
        lambda: engine.predict_proba(model, images, batch_size=64),
        LARGE_BATCH_ROUNDS,
    )
    speedup = dynamic_seconds / planned_seconds
    print(
        f"\nbatch-256: dynamic {dynamic_seconds * 1e3:.1f} ms, "
        f"planned {planned_seconds * 1e3:.1f} ms ({speedup:.2f}x, "
        f"{256 / planned_seconds:.0f} images/s)"
    )
    if LARGE_BATCH_FLOOR > 0:
        assert speedup >= LARGE_BATCH_FLOOR
