"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig5-sweep --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing: the run
starts :data:`PROCESSES` fresh interpreters one after another, and each
sets up and runs an equal share of the timed phase.  ``--trace 1``
installs the span tracer in this process and reports the per-layer
metrics (see ``perfbench/layers.py``).  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program runs from the
sources under ``src/``; without them it exits with status 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

#: Fresh interpreters per untraced run.  Each one's set-up is a set-up
#: time sample, and on a shared host a process that runs slow for its
#: whole life is outvoted by the others.
PROCESSES = 3
#: Environment variables that change threading; recorded, never set.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "REPRO_BACKEND", "REPRO_BLAS_THREADS", "REPRO_NN_ENGINE", "REPRO_SHM",
)


def build_parser() -> argparse.ArgumentParser:
    from perfbench.workloads import WORKLOAD_NAMES

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject-fault", action="store_true",
        help="corrupt some outputs on purpose (proves the checks count them)",
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser


def fingerprint() -> dict:
    """What the numbers depend on: CPUs, BLAS, Python, NumPy, thread env."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {
            name: os.environ[name]
            for name in THREAD_VARIABLES if name in os.environ
        },
    }


def peak_rss_mb() -> float:
    """Largest peak RSS of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_passes(workload, seconds: float, **options) -> list:
    """Passes until ``seconds`` have elapsed, and at least one."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(workload.run_pass(**options))
    return passes


def run_child(workload, seed: int, seconds: float) -> None:
    """The body of one workload process: set up, say so, run, report."""
    workload.setup(seed)
    print("READY", flush=True)
    passes = run_passes(workload, seconds)
    print(json.dumps({
        "passes": [dataclasses.asdict(result) for result in passes],
        "reference": getattr(workload, "reference", None),
    }))


def start_child(arguments, seconds: float):
    """One workload process: its set-up seconds, passes and row digests.

    Set-up time runs from starting the interpreter to the child's
    ``READY`` line, which it prints right before its first timed pass.
    """
    from perfbench.workloads import PassResult

    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", arguments.workload, "--seed", str(arguments.seed),
        "--seconds", repr(seconds), "--child",
    ]
    if arguments.inject_fault:
        command.append("--inject-fault")
    start = time.perf_counter()
    with subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True
    ) as child:
        ready = child.stdout.readline()
        setup_seconds = time.perf_counter() - start
        output = child.stdout.read()
        status = child.wait()
    if ready.strip() != "READY" or status != 0:
        raise RuntimeError(f"workload process failed (status {status})")
    payload = json.loads(output.strip().splitlines()[-1])
    passes = [PassResult(**result) for result in payload["passes"]]
    return setup_seconds, passes, payload["reference"]


def untraced_metrics(workload, arguments):
    """End-to-end metrics and passes pooled from :data:`PROCESSES` runs."""
    from perfbench.workloads import count_row_failures

    setup_samples, passes, first_reference = [], [], None
    for _ in range(PROCESSES):
        setup_seconds, child_passes, reference = start_child(
            arguments, arguments.seconds / PROCESSES
        )
        setup_samples.append(setup_seconds)
        if reference is not None:
            first_reference = first_reference or reference
            # The rows must also repeat across processes.
            child_passes[0].failed += count_row_failures(
                reference, first_reference
            )
        passes.extend(child_passes)
    return end_to_end_metrics(workload, passes, setup_samples), passes


def item_times(workload, passes) -> "tuple[float, list[float]]":
    """A pass's wall time and its per-item seconds, as the metrics use them.

    Host contention on a shared machine slows whole stretches of a run.
    Where items are timed one by one, each unit takes its fastest repeat
    and the pass time is their sum.  A pool's cells cannot be timed one
    by one, and its passes vary with worker scheduling: the pass time is
    the lower quartile of the passes, and the item time its mean cell.
    """
    from perfbench.stats import fastest_units, percentile

    if workload.best_of_repeats:
        best = fastest_units(result.units for result in passes)
        items = [time for time in best[workload.item_units] if time is not None]
        return sum(time for time in best if time is not None), items
    seconds = percentile([result.seconds for result in passes], 25)
    return seconds, [seconds / passes[0].attempted]


def end_to_end_metrics(workload, passes, setup_samples) -> dict:
    from perfbench.stats import percentile

    run_s, items = item_times(workload, passes)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "run_s": (run_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "items_per_s": (passes[0].attempted / run_s, "1/s"),
        "item_p50_ms": (percentile(items, 50) * 1e3, "ms"),
        "item_p90_ms": (percentile(items, 90) * 1e3, "ms"),
    }


def parse_importtime(text: str) -> dict:
    """Cumulative seconds of ``repro`` and ``scipy`` from ``-X importtime``.

    An entry counts when no enclosing import belongs to the same package,
    so nested imports are not counted twice.  Python prints an import
    after the ones it triggered, so the entries are walked in reverse.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        raw = parts[2].rstrip("\n")
        level = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        entries.append((level, raw.strip(), int(parts[1])))
    totals = {"repro": 0, "scipy": 0}
    ancestors: "list[tuple[int, str]]" = []
    for level, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        package = name.split(".")[0]
        if package in totals and not any(
            parent.split(".")[0] == package for _, parent in ancestors
        ):
            totals[package] += cumulative
        ancestors.append((level, name))
    return {package: micros / 1e6 for package, micros in totals.items()}


def import_seconds() -> dict:
    """``import repro.cli`` timed by ``python -X importtime`` in a child."""
    code = f"import sys; sys.path.insert(0, {str(SOURCES)!r}); import repro.cli"
    completed = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return parse_importtime(completed.stderr)


def traced_metrics(workload, seed: int, seconds: float):
    """Run set-up and passes under the tracer; per-layer metrics + passes."""
    from perfbench.layers import LAYERS, per_layer_metric_names
    from perfbench.stats import percentile
    from perfbench.tracer import Tracer

    imports = import_seconds()
    importlib.import_module("repro.cli")
    for layer in LAYERS:
        importlib.import_module(layer.module)
    tracer = Tracer()
    with tracer.installed_for(LAYERS):
        workload.setup(seed)
    # Alternate untraced and traced passes so both see the same warmth.
    untraced, traced = [], []
    tracer.phase = "run"
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        if len(untraced) <= len(traced):
            untraced.append(workload.run_pass())
        else:
            with tracer.installed_for(LAYERS):
                traced.append(workload.run_pass())
    cell_passes = []
    if workload.workers > 1:
        # Forked workers keep their spans: time the cells serially.
        tracer.phase = "cells"
        with tracer.installed_for(LAYERS):
            cell_passes = [workload.run_pass(workers=1)]
    WORK_DIR.mkdir(exist_ok=True)
    tracer.dump(
        str(WORK_DIR / f"trace-{workload.name}-seed{seed}.json"),
        workload=workload.name, seed=seed,
    )

    totals = {phase: tracer.aggregate(phase) for phase in ("setup", "run", "cells")}
    counters = tracer.counters
    values = {}

    def source(layer):
        if layer.phase == "setup":
            return "setup", 1
        if layer.cell_level and cell_passes:
            return "cells", len(cell_passes)
        return "run", len(traced)

    for layer in LAYERS:
        phase, divisor = source(layer)
        entry = totals[phase].get(layer.name, {})
        for field in ("calls", "busy_s", "self_s"):
            values[f"{layer.name}.{field}"] = entry.get(field, 0) / divisor

    cell_phase, cell_divisor = ("cells", len(cell_passes)) if cell_passes else (
        "run", len(traced))
    for name in (
        "nn.engine.predict_proba.images",
        "core.baselines.compress_dataset_with_table.images",
    ):
        values[name] = counters[cell_phase][name] / cell_divisor
    compiled = values["nn.engine.compile_plan.calls"]
    requested = values["nn.engine.get_plan.calls"]
    values["nn.engine.plan_hit_ratio"] = (
        1 - compiled / requested if requested else 0.0
    )
    stores = [result.store for result in traced if result.store is not None]
    hits = sum(store[0] for store in stores) / len(traced)
    misses = sum(store[1] for store in stores) / len(traced)
    values["experiments.store.hits"] = hits
    values["experiments.store.misses"] = misses
    values["experiments.store.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0
    )
    for name in ("tasks", "failed"):
        key = f"runtime.executor.map_tasks_resumable.{name}"
        values[key] = counters["run"][key] / len(traced)
    map_starts = [
        span[1] for span in tracer.spans
        if span[0] == "runtime.executor.map_tasks_resumable"
        and span[4] == "run"
    ]
    first_results = [
        result.completions[0] - map_start
        for map_start, result in zip(map_starts, traced)
        if result.completions
    ]
    values["runtime.first_result_s"] = (
        statistics.median(first_results) if first_results else 0.0
    )
    gaps = [
        (later - earlier) * 1e3
        for result in traced
        for earlier, later in zip(result.completions, result.completions[1:])
    ]
    values["runtime.result_gap_p50_ms"] = percentile(gaps, 50) if gaps else 0.0
    values["import.repro_cli_s"] = imports["repro"]
    values["import.scipy_s"] = imports["scipy"]
    # The first untraced pass also warms the process up; leave it out
    # when there are others.
    baseline = untraced[1:] or untraced
    values["trace_overhead_frac"] = (
        statistics.median(r.seconds for r in traced)
        / statistics.median(r.seconds for r in baseline) - 1
    )
    metrics = {
        name: (values[name], unit) for name, unit, _ in per_layer_metric_names()
    }
    return metrics, untraced + traced + cell_passes


def main(argv=None) -> int:
    if not (SOURCES / "repro").is_dir():
        print(f"error: no repro sources under {SOURCES}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCES), str(ROOT)]
    from perfbench.workloads import make_workload

    arguments = build_parser().parse_args(argv)
    work_dir = WORK_DIR / f"run-{os.getpid()}"
    workload = make_workload(
        arguments.workload, work_dir, inject_fault=arguments.inject_fault
    )
    try:
        if arguments.child:
            run_child(workload, arguments.seed, arguments.seconds)
            return 0
        print("fingerprint:", json.dumps(fingerprint(), sort_keys=True))
        if arguments.trace:
            metrics, passes = traced_metrics(
                workload, arguments.seed, arguments.seconds
            )
        else:
            metrics, passes = untraced_metrics(workload, arguments)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    from perfbench.stats import highest_supported_percentile

    attempted = sum(result.attempted for result in passes)
    failed = sum(result.failed for result in passes)
    samples = len(item_times(workload, passes)[1])
    tail = highest_supported_percentile(samples)
    print(
        f"{arguments.workload}: {len(passes)} passes, {attempted} "
        f"{workload.item}s attempted, {failed} failed; {samples} item time "
        f"samples (highest percentile with 10 beyond it: "
        f"{f'p{tail:g}' if tail else 'none'})"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<55} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
