"""The layers the traced run times, and what each one should move.

Each :class:`Layer` names one span, ``<layer>.<fn>`` where the layer is a
``repro`` module path without the ``repro.`` prefix, the module whose
functions (or whose classes' methods) it wraps, and — so later changes
cite names rather than prose — the end-to-end metrics it should move,
the workload where it does most of the work and the one that bypasses
it (where the prediction is "no change").

Span metrics are ``<span>.calls``, ``<span>.busy_s`` and
``<span>.self_s``.  Layers in phase ``"run"`` are reported per pass of
the timed phase; layers in phase ``"setup"`` over the set-up phase.
Layers marked ``cell_level`` run inside sweep cells, which forked pool
workers execute out of the parent's sight: for a parallel sweep their
numbers come from the same sweep traced with one worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Layer:
    name: str
    module: str
    attrs: "tuple[str, ...]"
    moves: str
    workload: str
    bypass: str
    phase: str = "run"
    cell_level: bool = False
    observe: Optional[Callable] = None


def _count_inputs(counter: str, position: int):
    def observe(tracer, args, kwargs, result) -> None:
        tracer.count(counter, len(args[position]))

    return observe


def _count_dataset_images(tracer, args, kwargs, result) -> None:
    dataset = args[0] if args else kwargs["dataset"]
    tracer.count(
        "core.baselines.compress_dataset_with_table.images",
        dataset.images.shape[0],
    )


def _count_sweep_tasks(tracer, args, kwargs, result) -> None:
    from repro.runtime.executor import CACHE_MISS

    cached = args[2] if len(args) > 2 else kwargs["cached"]
    tracer.count(
        "runtime.executor.map_tasks_resumable.tasks",
        sum(1 for value in cached if value is CACHE_MISS),
    )
    tracer.count(
        "runtime.executor.map_tasks_resumable.failed",
        sum(1 for value in result if type(value).__name__ == "TaskFailure"),
    )


_TRAIN = dict(moves="run_s", workload="fig8-train", bypass="edge-stream")
_EDGE_CODEC = dict(
    moves="item_p50_ms, items_per_s", workload="edge-stream",
    bypass="fig8-train",
)
_BATCH_CODEC = dict(
    moves="run_s", workload="fig5-sweep", bypass="edge-stream",
    cell_level=True,
)
_SETUP = dict(
    moves="setup_s", workload="edge-stream", bypass="fig5-sweep",
    phase="setup",
)

LAYERS: "tuple[Layer, ...]" = (
    # Training: the dominant cost of every figure run.
    Layer("nn.trainer.fit", "repro.nn.trainer", ("fit",), **_TRAIN),
    Layer("nn.conv.forward", "repro.nn.conv",
          ("forward", "forward_fused_relu"), **_TRAIN),
    Layer("nn.conv.backward", "repro.nn.conv",
          ("backward", "backward_params_only"), **_TRAIN),
    Layer("nn.im2col.im2col_patches", "repro.nn.im2col",
          ("im2col_patches",), **_TRAIN),
    Layer("nn.im2col.col2im_patches", "repro.nn.im2col",
          ("col2im_patches",), **_TRAIN),
    Layer("nn.norm.forward", "repro.nn.norm", ("forward",), **_TRAIN),
    Layer("nn.norm.backward", "repro.nn.norm", ("backward",), **_TRAIN),
    Layer("nn.pooling.forward", "repro.nn.pooling", ("forward",), **_TRAIN),
    Layer("nn.pooling.backward", "repro.nn.pooling", ("backward",), **_TRAIN),
    Layer("nn.dense.forward", "repro.nn.dense", ("forward",), **_TRAIN),
    Layer("nn.dense.backward", "repro.nn.dense", ("backward",), **_TRAIN),
    Layer("nn.activations.forward", "repro.nn.activations", ("forward",),
          **_TRAIN),
    Layer("nn.activations.backward", "repro.nn.activations", ("backward",),
          **_TRAIN),
    Layer("nn.blocks.forward", "repro.nn.blocks", ("forward",), **_TRAIN),
    Layer("nn.blocks.backward", "repro.nn.blocks", ("backward",), **_TRAIN),
    Layer("nn.losses.forward", "repro.nn.losses", ("forward",), **_TRAIN),
    Layer("nn.losses.backward", "repro.nn.losses", ("backward",), **_TRAIN),
    Layer("nn.optim.step", "repro.nn.optim", ("step",), **_TRAIN),
    # Planned inference: batch 1 per image on edge-stream, batched in fig5.
    Layer("nn.engine.predict_proba", "repro.nn.engine", ("predict_proba",),
          moves="item_p50_ms, items_per_s; run_s",
          workload="edge-stream, fig5-sweep", bypass="fig8-train",
          cell_level=True,
          observe=_count_inputs("nn.engine.predict_proba.images", 1)),
    Layer("nn.engine.compile_plan", "repro.nn.engine", ("compile_plan",),
          moves="item_p50_ms; run_s", workload="edge-stream, fig5-sweep",
          bypass="fig8-train", cell_level=True),
    Layer("nn.engine.get_plan", "repro.nn.engine", ("get_plan",),
          moves="item_p50_ms; run_s", workload="edge-stream, fig5-sweep",
          bypass="fig8-train", cell_level=True),
    # The per-image container path of the deployment loop.
    Layer("jpeg.codec.encode_to_bytes", "repro.jpeg.codec",
          ("encode_to_bytes",), **_EDGE_CODEC),
    Layer("jpeg.container.decode_image_bytes", "repro.jpeg.container",
          ("decode_image_bytes",), **_EDGE_CODEC),
    Layer("jpeg.container.unpack_container", "repro.jpeg.container",
          ("unpack_container",), **_EDGE_CODEC),
    # The codec's own decode (a single stream takes the scalar walk).
    Layer("jpeg.codec.decode", "repro.jpeg.codec", ("decode",), **_EDGE_CODEC),
    Layer("jpeg.huffman.decode_lut", "repro.jpeg.huffman", ("decode_lut",),
          **_EDGE_CODEC),
    # Batched dataset compression inside sweep cells.  Its round trip
    # reconstructs from the quantized blocks, so no stream is decoded.
    Layer("core.baselines.compress_dataset_with_table", "repro.core.baselines",
          ("compress_dataset_with_table",), observe=_count_dataset_images,
          **_BATCH_CODEC),
    Layer("jpeg.codec.quantized_batch", "repro.jpeg.codec",
          ("quantized_batch",), **_BATCH_CODEC),
    Layer("jpeg.codec.entropy_code", "repro.jpeg.codec", ("entropy_code",),
          **_BATCH_CODEC),
    Layer("jpeg.codec.reconstruct_batch", "repro.jpeg.codec",
          ("reconstruct_batch",), **_BATCH_CODEC),
    Layer("jpeg.bitstream.pack_bits", "repro.jpeg.bitstream", ("pack_bits",),
          **_BATCH_CODEC),
    # The artifact store and the sweep runtime.
    Layer("experiments.store.put", "repro.experiments.store", ("put",),
          moves="run_s", workload="fig5-sweep", bypass="fig8-train"),
    Layer("experiments.store.get", "repro.experiments.store", ("get",),
          moves="run_s", workload="fig5-sweep", bypass="fig8-train"),
    Layer("runtime.executor.map_tasks_resumable", "repro.runtime.executor",
          ("map_tasks_resumable",), moves="run_s", workload="fig5-sweep",
          bypass="fig8-train", observe=_count_sweep_tasks),
    # Set-up work of the deployment loop.
    Layer("core.pipeline.fit", "repro.core.pipeline", ("fit",), **_SETUP),
    Layer("analysis.frequency.analyze_dataset", "repro.analysis.frequency",
          ("analyze_dataset",), **_SETUP),
    Layer("data.synthetic.generate_freqnet", "repro.data.synthetic",
          ("generate_freqnet",), **_SETUP),
)

#: Per-layer metrics that are not span triples: name -> (unit, better,
#: what it maps to).
DERIVED_METRICS = {
    "nn.engine.predict_proba.images": (
        "count", "higher", "images classified per pass"),
    "nn.engine.plan_hit_ratio": (
        "ratio", "higher", "1 - compile_plan.calls / get_plan.calls"),
    "core.baselines.compress_dataset_with_table.images": (
        "count", "higher", "images compressed per pass"),
    "experiments.store.hits": ("count", "higher", "store hits per pass"),
    "experiments.store.misses": ("count", "lower", "store misses per pass"),
    "experiments.store.hit_ratio": (
        "ratio", "higher", "hits / (hits + misses) -> run_s"),
    "runtime.executor.map_tasks_resumable.tasks": (
        "count", "higher", "fresh sweep cells dispatched per pass"),
    "runtime.executor.map_tasks_resumable.failed": (
        "count", "lower", "sweep cells that failed per pass"),
    "runtime.first_result_s": (
        "s", "lower", "map start to first cell completion -> run_s"),
    "runtime.result_gap_p50_ms": (
        "ms", "lower", "median gap between cell completions -> run_s"),
    "import.repro_cli_s": (
        "s", "lower", "cumulative import of repro.cli -> setup_s"),
    "import.scipy_s": (
        "s", "lower", "cumulative import of scipy under repro.cli -> setup_s"),
    "trace_overhead_frac": (
        "ratio", "lower", "traced over untraced run_s, minus 1"),
}

SPAN_FIELDS = (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))


def per_layer_metric_names() -> "list[tuple[str, str, str]]":
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    names = []
    for layer in LAYERS:
        for field, unit in SPAN_FIELDS:
            names.append((f"{layer.name}.{field}", unit, "lower"))
    for name, (unit, better, _) in DERIVED_METRICS.items():
        names.append((name, unit, better))
    return names
