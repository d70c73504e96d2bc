"""Per-shape scratch caches on the convolution layer.

Regression tests for a buffer-churn bug: the layers used to keep a
*single* scratch slot keyed by nothing, so the full-tile / remainder-
tile alternation of every predict and fit loop reallocated the im2col
scratch twice per call.  The caches are now keyed per ``(shape,
dtype)`` with a small eviction bound, so repeated same-shape calls
must reuse the same buffer object and the cache must never grow past
its bound.
"""

from __future__ import annotations

import numpy as np

from repro.nn.conv import _SCRATCH_SLOTS, Conv2D


def _conv():
    return Conv2D(2, 3, 3, padding=1, rng=np.random.default_rng(0))


class TestConvScratchCache:
    def test_same_shape_reuses_buffer(self):
        conv = _conv()
        inputs = np.random.default_rng(1).standard_normal((4, 2, 8, 8))
        conv.forward(inputs, training=False)
        buffer = next(iter(conv._patch_scratch.values()))
        for _ in range(5):
            conv.forward(inputs, training=False)
            assert next(iter(conv._patch_scratch.values())) is buffer
        assert len(conv._patch_scratch) == 1

    def test_tile_alternation_keeps_both_buffers(self):
        conv = _conv()
        rng = np.random.default_rng(1)
        full = rng.standard_normal((4, 2, 8, 8))
        remainder = rng.standard_normal((1, 2, 8, 8))
        for _ in range(2):
            conv.forward(full, training=False)
            conv.forward(remainder, training=False)
        buffers = {
            key: id(value) for key, value in conv._patch_scratch.items()
        }
        assert len(buffers) == 2
        # Another alternation round must not replace either buffer.
        conv.forward(full, training=False)
        conv.forward(remainder, training=False)
        assert {
            key: id(value) for key, value in conv._patch_scratch.items()
        } == buffers

    def test_cache_is_bounded(self):
        conv = _conv()
        rng = np.random.default_rng(1)
        for batch in range(1, _SCRATCH_SLOTS + 3):
            conv.forward(
                rng.standard_normal((batch, 2, 8, 8)), training=False
            )
        assert len(conv._patch_scratch) == _SCRATCH_SLOTS

    def test_grad_scratch_reused_across_backward_calls(self):
        conv = _conv()
        rng = np.random.default_rng(1)
        inputs = rng.standard_normal((2, 2, 8, 8))
        grad = rng.standard_normal((2, 3, 8, 8))
        conv.forward(inputs, training=True)
        conv.backward(grad)
        buffer = next(iter(conv._grad_patch_scratch.values()))
        for _ in range(3):
            conv.forward(inputs, training=True)
            conv.backward(grad)
            assert next(iter(conv._grad_patch_scratch.values())) is buffer
        assert len(conv._grad_patch_scratch) == 1

    def test_dtype_keys_are_distinct(self):
        conv32 = Conv2D(
            2, 3, 3, padding=1, rng=np.random.default_rng(0), dtype="float32"
        )
        inputs = np.random.default_rng(1).standard_normal((2, 2, 8, 8))
        conv32.forward(inputs.astype(np.float32), training=False)
        (key,) = conv32._patch_scratch
        assert key[1] == np.dtype(np.float32).str

