"""Planned inference engine: shape-specialized execution plans over an arena.

The dynamic path (:meth:`repro.nn.base.Sequential.forward`) walks the
layer list on every call, allocating activations and im2col scratch as
it goes.  This module compiles a :class:`~repro.nn.base.Sequential` once
per ``(input shape, compute dtype)`` into an :class:`InferencePlan`:
every activation, im2col patch tensor and pooling scratch buffer is laid
out ahead of time into one reusable arena allocation, and a forward pass
executes as a flat list of kernel closures writing in place into arena
slots — zero per-call buffer allocation after the plan is built.

Parity contract
---------------
A float32/float64 plan emits the floating-point operation sequence of
the dynamic layer loop (in-place ``out=`` ufunc variants of the same
operations), except that each conv → ReLU pair runs as one fused kernel
whose in-place ``maximum`` differs from the ReLU's mask-multiply only in
the sign of a rectified zero.  Plan probabilities are bit-identical to
:meth:`~repro.nn.base.Sequential.predict_proba_dynamic`, the reference;
``tests/nn/test_engine.py`` pins the parity across every model-zoo
architecture and both reference dtypes.

Layers participate by implementing ``plan_inference(builder, source)``
(and optionally ``plan_fused_relu`` for the conv→ReLU epilogue) against
the :class:`PlanBuilder` API; anything without a hook raises
:class:`PlanError` and the caller falls back to the dynamic path.

Weights and biases are read from their layers at kernel run time, so
in-place optimizer updates *and* wholesale ``Parameter.value`` /
BatchNorm running-statistic reassignment between calls are both picked
up without recompiling.  Plans are cached on the model (bounded LRU) and
re-resolved on any shape or dtype change.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

__all__ = [
    "InferencePlan",
    "PlanBuilder",
    "PlanError",
    "Slot",
    "compile_plan",
    "get_plan",
    "predict_proba",
]

#: Plans kept per model before least-recently-used eviction.
PLAN_CACHE_SIZE = 8

#: Arena slot alignment in bytes (cache-line sized).
_ALIGN = 64


class PlanError(Exception):
    """A model (or one of its layers) cannot be compiled into a plan.

    Raising this from a ``plan_inference`` hook is not an error
    condition for the caller: :func:`predict_proba` falls back to the
    dynamic layer-by-layer path and caches the verdict.
    """


# ----------------------------------------------------------------------
# Virtual arena: compile-time layout with refcounted slot lifetimes
# ----------------------------------------------------------------------


class _Allocation:
    """One byte range of the arena, possibly shared by alias slots."""

    __slots__ = ("index", "offset", "nbytes", "reserved", "dtype", "refs",
                 "live_start", "live_end")

    def __init__(self, index, offset, nbytes, reserved, dtype, live_start):
        self.index = index
        self.offset = offset
        self.nbytes = nbytes
        self.reserved = reserved
        self.dtype = dtype
        self.refs = 1
        self.live_start = live_start
        self.live_end = None  # step count at free time; None while pinned


class Slot:
    """A shaped view handle over an arena allocation.

    Layer hooks receive and return slots; ``shape`` is what they inspect
    to validate geometry, exactly as ``forward`` inspects its input.
    """

    __slots__ = ("shape", "dtype", "alloc")

    def __init__(self, shape, dtype, alloc):
        self.shape = tuple(int(dim) for dim in shape)
        self.dtype = np.dtype(dtype)
        self.alloc = alloc

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        size = 1
        for dim in self.shape:
            size *= dim
        return size


class _ArenaLayout:
    """Best-fit offset allocator with an exact-coalescing free list.

    Runs entirely at compile time: ``alloc``/``free`` simulate the slot
    lifetimes the emitted steps imply, and ``watermark`` is the single
    buffer size the plan materializes afterwards.
    """

    def __init__(self):
        self.watermark = 0
        self._free = []  # sorted (offset, size) blocks

    def alloc(self, size: int) -> int:
        best = None
        for index, (offset, block) in enumerate(self._free):
            if block >= size and (best is None or block < self._free[best][1]):
                best = index
        if best is not None:
            offset, block = self._free.pop(best)
            if block > size:
                self._free.append((offset + size, block - size))
                self._free.sort()
            return offset
        offset = self.watermark
        self.watermark += size
        return offset

    def free(self, offset: int, size: int) -> None:
        self._free.append((offset, size))
        self._free.sort()
        merged = []
        for block_offset, block_size in self._free:
            if merged and merged[-1][0] + merged[-1][1] == block_offset:
                merged[-1] = (merged[-1][0], merged[-1][1] + block_size)
            else:
                merged.append((block_offset, block_size))
        self._free = merged


def _aligned(nbytes: int) -> int:
    return (max(nbytes, 1) + _ALIGN - 1) // _ALIGN * _ALIGN


class PlanBuilder:
    """Compile-time context handed to the layer ``plan_inference`` hooks.

    Hooks allocate ``activation`` slots for their outputs, ``scratch``
    slots for internal buffers (patch tensors, padded inputs, masks),
    ``alias`` existing slots for zero-copy reshapes, ``emit`` kernel
    steps and ``free`` slots whose last reader has been emitted so the
    arena can reuse their bytes.
    """

    def __init__(self, compute_dtype):
        self.compute_dtype = np.dtype(compute_dtype)
        self.layout = _ArenaLayout()
        self.allocations = []
        self.steps = []  # (build, reads, writes, scratch) tuples

    def _alloc(self, shape, dtype):
        dtype = np.dtype(dtype)
        slot = Slot(shape, dtype, None)
        nbytes = slot.size * dtype.itemsize
        reserved = _aligned(nbytes)
        allocation = _Allocation(
            index=len(self.allocations),
            offset=self.layout.alloc(reserved),
            nbytes=nbytes,
            reserved=reserved,
            dtype=dtype,
            live_start=len(self.steps),
        )
        self.allocations.append(allocation)
        slot.alloc = allocation
        return slot

    def activation(self, shape) -> Slot:
        """A compute-dtype activation slot."""
        return self._alloc(shape, self.compute_dtype)

    def scratch(self, shape, dtype=None) -> Slot:
        """A compute-dtype (or explicit-dtype) scratch slot."""
        return self._alloc(
            shape, dtype if dtype is not None else self.compute_dtype
        )

    def alias(self, slot: Slot, shape) -> Slot:
        """A reshaped view of ``slot`` sharing its allocation."""
        view = Slot(shape, slot.dtype, slot.alloc)
        if view.size != slot.size:
            raise PlanError(
                f"alias shape {tuple(shape)} does not match slot {slot.shape}"
            )
        slot.alloc.refs += 1
        return view

    def free(self, *slots: Slot) -> None:
        """Release slots whose last reading step has been emitted."""
        for slot in slots:
            allocation = slot.alloc
            if allocation.refs <= 0:
                raise PlanError("slot freed twice during compilation")
            allocation.refs -= 1
            if allocation.refs == 0:
                allocation.live_end = len(self.steps)
                self.layout.free(allocation.offset, allocation.reserved)

    def emit(self, build, reads=(), writes=(), scratch=()) -> None:
        """Record one kernel step.

        ``build(bind)`` is called once at plan materialization with a
        ``bind(slot) -> ndarray`` resolver and returns the zero-argument
        kernel closure.  ``reads``/``writes`` are the activation-facing
        operands and ``scratch`` the step's internal buffers; ``bind``
        resolves only these declared slots, each to its arena view.
        """
        self.steps.append((build, tuple(reads), tuple(writes), tuple(scratch)))


# ----------------------------------------------------------------------
# Materialized plan
# ----------------------------------------------------------------------


class _StepInfo:
    """Introspection record for one executed step (used by tests)."""

    __slots__ = ("reads", "writes", "scratch")

    def __init__(self, reads, writes, scratch):
        self.reads = reads
        self.writes = writes
        self.scratch = scratch


class InferencePlan:
    """A compiled forward pass: one arena buffer plus flat kernel steps.

    Built by :func:`compile_plan`; execute with :meth:`run`.  The
    returned logits are a view into the arena — copy them (or consume
    them immediately, as :func:`predict_proba` does) before the next
    ``run``.
    """

    def __init__(self, builder: PlanBuilder, input_slot: Slot,
                 output_slot: Slot, input_shape):
        self.input_shape = tuple(input_shape)
        self.arena_nbytes = builder.layout.watermark
        self._buffer = np.empty(max(self.arena_nbytes, 1), dtype=np.uint8)
        self._flat_views = {}
        for allocation in builder.allocations:
            raw = self._buffer[
                allocation.offset:allocation.offset + allocation.nbytes
            ]
            self._flat_views[allocation.index] = raw.view(allocation.dtype)
        self._allocations = builder.allocations
        self.step_info = [
            _StepInfo(reads, writes, scratch)
            for _, reads, writes, scratch in builder.steps
        ]
        self._steps = [self._bind_step(step) for step in builder.steps]
        self._input_view = self.slot_view(input_slot)
        self._output_view = self.slot_view(output_slot)
        self.output_shape = output_slot.shape

    def slot_view(self, slot: Slot) -> np.ndarray:
        """The arena array backing ``slot``."""
        return self._flat_views[slot.alloc.index][:slot.size].reshape(
            slot.shape
        )

    def _bind_step(self, step):
        """The step's kernel, bound to the arena views of its operands."""
        build, reads, writes, scratch = step
        bound = {
            slot: self.slot_view(slot) for slot in reads + writes + scratch
        }
        return build(bound.__getitem__)

    def run(self, inputs: np.ndarray) -> np.ndarray:
        """Execute the plan; returns the logits view (valid until next run)."""
        inputs = np.asarray(inputs)
        if inputs.shape != self.input_shape:
            raise ValueError(
                f"plan compiled for input shape {self.input_shape}, "
                f"got {inputs.shape}"
            )
        np.copyto(self._input_view, inputs)
        for step in self._steps:
            step()
        return self._output_view

    def debug_allocations(self):
        """(offset, reserved, live_start, live_end) per allocation.

        ``live_end`` is ``None`` for pinned allocations (input, output,
        anything never freed).  Tests assert that allocations whose byte
        ranges overlap have disjoint live step intervals.
        """
        return [
            (a.offset, a.reserved, a.live_start, a.live_end)
            for a in self._allocations
        ]


# ----------------------------------------------------------------------
# Compilation and the per-model plan cache
# ----------------------------------------------------------------------


def compile_plan(model, input_shape) -> InferencePlan:
    """Compile ``model`` for ``input_shape`` into an :class:`InferencePlan`.

    Raises :class:`PlanError` when any layer lacks a plan hook (callers
    fall back to the dynamic path) and the same :class:`ValueError` the
    dynamic path would raise for invalid geometry.
    """
    builder = PlanBuilder(model.dtype)
    input_slot = builder.scratch(input_shape)
    output_slot = model.plan_inference(builder, input_slot)
    return InferencePlan(builder, input_slot, output_slot, input_shape)


#: Cache sentinel for models that cannot be planned: remembered so the
#: compile is not retried on every predict.
_UNPLANNABLE = object()


def get_plan(model, input_shape):
    """The cached plan for ``(model, input_shape)``, or ``None``.

    ``None`` means the model cannot be planned (a layer without a hook);
    the verdict is cached alongside real plans in the model's bounded
    LRU cache.
    """
    key = (tuple(input_shape), model.dtype.str)
    cache = model.__dict__.setdefault("_plan_cache", OrderedDict())
    if key in cache:
        cache.move_to_end(key)
        plan = cache[key]
        return None if plan is _UNPLANNABLE else plan
    try:
        plan = compile_plan(model, input_shape)
    except PlanError:
        cache[key] = _UNPLANNABLE
        return None
    cache[key] = plan
    while len(cache) > PLAN_CACHE_SIZE:
        cache.popitem(last=False)
    return plan


# ----------------------------------------------------------------------
# Model-facing entry point
# ----------------------------------------------------------------------


def predict_proba(model, inputs, batch_size: int = 64) -> np.ndarray:
    """Planned class probabilities; the engine behind ``Sequential.predict``.

    Routes through the plan cache (one plan per tile shape: the full
    ``batch_size`` tile plus the remainder tile) and falls back to
    :meth:`~repro.nn.base.Sequential.predict_proba_dynamic` for an empty
    batch or a model that cannot be planned.  Float32/float64 results
    are bit-identical to that dynamic path.
    """
    from repro.nn.losses import softmax

    inputs = np.asarray(inputs, dtype=model.dtype)
    if inputs.ndim == 0 or inputs.shape[0] == 0:
        return model.predict_proba_dynamic(inputs, batch_size=batch_size)
    total = inputs.shape[0]
    outputs = None
    for start in range(0, total, batch_size):
        chunk = inputs[start:start + batch_size]
        plan = get_plan(model, chunk.shape)
        if plan is None:
            return model.predict_proba_dynamic(inputs, batch_size=batch_size)
        probabilities = softmax(plan.run(chunk))
        if outputs is None:
            outputs = np.empty(
                (total, probabilities.shape[-1]), dtype=probabilities.dtype
            )
        outputs[start:start + chunk.shape[0]] = probabilities
    return outputs
