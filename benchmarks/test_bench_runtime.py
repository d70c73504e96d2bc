"""Runtime benchmark: serial vs multi-process experiment execution.

Measures the fig5 sweep grid over a process pool against its serial
(``workers=1``) baseline, asserting result equality always and the
speedup floor when the machine actually has the cores to show it.
"""

import os
import time

from conftest import run_once

from repro.experiments import api, build_experiment, run_experiment
from repro.runtime.executor import available_workers, fork_available

#: Pool size used by the parallel benchmarks.
PARALLEL_WORKERS = 4
#: End-to-end fig5 speedup demanded of a 4+-core box.  Overridable via
#: REPRO_FIG5_SPEEDUP_FLOOR; shared CI runners set it to 0 (record-only)
#: because their 4 noisy vCPUs cannot give a stable timing signal, while
#: dedicated multi-core boxes keep the default hard floor.
FIG5_SPEEDUP_FLOOR = float(os.environ.get("REPRO_FIG5_SPEEDUP_FLOOR", "2.5"))


def _parallel_capable() -> bool:
    return fork_available() and available_workers() >= PARALLEL_WORKERS


def _mean_seconds(benchmark) -> float:
    """Measured mean of a benchmark, or None in --benchmark-disable mode."""
    try:
        return float(benchmark.stats.stats.mean)
    except AttributeError:
        return None


def test_fig5_sweep_serial_vs_parallel(benchmark, bench_config):
    """End-to-end fig5: full sweep with 4 workers vs the serial run."""
    fig5 = build_experiment("fig5")
    api.clear_state()
    started = time.perf_counter()
    serial = run_experiment(fig5, bench_config)
    serial_seconds = time.perf_counter() - started

    api.clear_state()
    parallel = run_once(
        benchmark,
        run_experiment,
        fig5,
        bench_config.with_overrides(workers=PARALLEL_WORKERS),
    )

    assert parallel.entries == serial.entries
    assert parallel.baseline_accuracy == serial.baseline_accuracy

    parallel_seconds = _mean_seconds(benchmark)
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 4)
    benchmark.extra_info["workers"] = PARALLEL_WORKERS
    benchmark.extra_info["cpus"] = available_workers()
    if parallel_seconds:
        speedup = serial_seconds / parallel_seconds
        benchmark.extra_info["speedup"] = round(speedup, 2)
        print(
            f"\nfig5 sweep: serial {serial_seconds:.2f} s, "
            f"{PARALLEL_WORKERS} workers {parallel_seconds:.2f} s "
            f"({speedup:.2f}x, {available_workers()} cpus)"
        )
        if _parallel_capable() and FIG5_SPEEDUP_FLOOR > 0:
            assert speedup >= FIG5_SPEEDUP_FLOOR

