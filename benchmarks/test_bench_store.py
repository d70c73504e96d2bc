"""Artifact-store timing floor: cold sweep vs warm-store resume.

Times the resume win: a fig5 sensitivity sweep that populates a
content-addressed artifact store on the first (cold) run, then replays
from the store on the second (warm) run without recompressing or
retraining anything.  The warm replay must take under a fifth of the
cold run.
"""

import shutil
import tempfile
import time

from repro.experiments import (
    ArtifactStore,
    ExperimentConfig,
    build_experiment,
    run_experiment,
)


def test_fig5_store_hit_vs_cold_run():
    """Warm-store fig5 replay vs the cold run that filled the store."""
    config = ExperimentConfig.tiny()
    root = tempfile.mkdtemp(prefix="repro-store-bench-")
    try:
        fig5 = build_experiment("fig5")
        started = time.perf_counter()
        cold = run_experiment(fig5, config, store=ArtifactStore(root))
        cold_seconds = time.perf_counter() - started

        warm_store = ArtifactStore(root)
        started = time.perf_counter()
        warm = run_experiment(fig5, config, store=warm_store)
        warm_seconds = time.perf_counter() - started

        assert warm.entries == cold.entries
        assert warm.baseline_accuracy == cold.baseline_accuracy
        assert warm_store.misses == 0

        print(
            f"\nfig5 store: cold {cold_seconds:.3f} s, warm "
            f"{warm_seconds * 1e3:.1f} ms ({len(warm_store)} entries, "
            f"{cold_seconds / warm_seconds:.0f}x)"
        )
        # The replay must beat the cold run by a wide margin: it does
        # no compression, no training — only store reads.
        assert warm_seconds < cold_seconds / 5
    finally:
        shutil.rmtree(root, ignore_errors=True)
