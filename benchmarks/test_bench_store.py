"""Artifact-store benchmarks: cold sweep vs warm-store resume.

Measures the PR 4 resume win: a fig5 sensitivity sweep that populates a
content-addressed artifact store on the first (cold) run, then replays
from the store on the second (warm) run without recompressing or
retraining anything.  The warm/cold ratio is recorded in ``extra_info``
so the perf-trajectory JSON keeps the resume speedup on record.
"""

import shutil
import tempfile
import time

from conftest import run_once

from repro.experiments import (
    ArtifactStore,
    api,
    build_experiment,
    run_experiment,
)


def _mean_seconds(benchmark):
    """Measured mean of a benchmark, or None in --benchmark-disable mode."""
    try:
        return float(benchmark.stats.stats.mean)
    except AttributeError:
        return None


def test_fig5_store_hit_vs_cold_run(benchmark, bench_config):
    """Warm-store fig5 replay vs the cold run that filled the store."""
    root = tempfile.mkdtemp(prefix="repro-store-bench-")
    try:
        fig5 = build_experiment("fig5")
        api.clear_state()
        started = time.perf_counter()
        cold = run_experiment(fig5, bench_config, store=ArtifactStore(root))
        cold_seconds = time.perf_counter() - started

        warm_store = ArtifactStore(root)
        api.clear_state()
        warm = run_once(
            benchmark, run_experiment, fig5, bench_config, store=warm_store,
        )

        assert warm.entries == cold.entries
        assert warm.baseline_accuracy == cold.baseline_accuracy
        assert warm_store.misses == 0

        warm_seconds = _mean_seconds(benchmark)
        benchmark.extra_info["cold_seconds"] = round(cold_seconds, 4)
        benchmark.extra_info["store_entries"] = len(warm_store)
        if warm_seconds is not None:
            benchmark.extra_info["warm_seconds"] = round(warm_seconds, 6)
            benchmark.extra_info["store_speedup"] = round(
                cold_seconds / warm_seconds, 2
            )
            # The replay must beat the cold run by a wide margin: it does
            # no compression, no training — only store reads.
            assert warm_seconds < cold_seconds / 5
    finally:
        shutil.rmtree(root, ignore_errors=True)
