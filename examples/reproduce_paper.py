"""Reproduce every table and figure of the paper's evaluation.

A loop over the experiment registry: each registered experiment (one per
figure) runs through :func:`repro.experiments.api.run_experiment` with
the same configuration — the declarative framework supplies grid
enumeration, caching/resume, ``workers=`` sharding and ordering, so this
script adds nothing but the loop.  The figures share work through the
artifact store: the Fig. 5 sweeps embedded in the Fig. 6/7/8 design
derivation and the fitted DeepN-JPEG design are store artifacts, so each
is computed once per invocation (a session-local store is created when
``--artifacts-dir`` is not given).

The ``python -m repro`` CLI is the canonical single-experiment entry
point; this script is the run-everything convenience.

* ``tiny``  — minutes; the scale of the paper-shape tests.
* ``small`` — the default; also the default of ``python -m repro run``.
* ``full``  — largest datasets / longest training.

``--workers N`` shards every experiment grid over N processes;
``--workers 0`` uses every CPU.  Each grid cell compresses its datasets
serially.  Results are identical for any worker count.

``--artifacts-dir DIR`` persists the content-addressed artifact store at
DIR: an interrupted or repeated invocation with the same configuration
resumes from the completed cells instead of recomputing them (at the
same scale a fully warm store replays all seven figures in seconds).

``--on-error collect --retries 2 --task-timeout 600`` sets the error
policy of the supervised runtime every sweep runs through
(:mod:`repro.runtime.supervision`): failed cells retry with the same
task payload (recovered sweeps are bit-identical), hung workers are
killed at the timeout, and under ``collect`` every healthy cell
persists before the failure report — so an overnight full-scale run
survives flaky cells and a re-run finishes only what's missing.  A
failure report exits with status 3, as does a pool worker that dies
mid-cell under any policy.

Run with::

    python examples/reproduce_paper.py --scale small --workers 4 \
        --artifacts-dir artifacts/ --on-error collect --retries 2
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time

from repro.cli import SCALES
from repro.experiments import ArtifactStore
from repro.experiments.api import (
    SweepFailure,
    build_experiment,
    experiment_names,
    run_experiment,
)
from repro.experiments.design_flow import derive_design_config


def _banner(title: str) -> None:
    print("\n" + "=" * 72)
    print(title)
    print("=" * 72)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default="small",
        help="experiment scale (dataset size and training epochs)",
    )
    parser.add_argument(
        "--fig8-epochs", type=int, default=None,
        help="override training epochs for the Fig. 8 generality sweep",
    )
    parser.add_argument(
        "--skip", nargs="*", default=[],
        help="experiment names to skip, e.g. --skip fig8",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="processes per experiment sweep (1 = serial, 0 = all CPUs); "
        "results are identical for any worker count",
    )
    parser.add_argument(
        "--artifacts-dir", default=None,
        help="content-addressed artifact store directory; re-runs with the "
        "same configuration resume from completed grid cells (a throwaway "
        "session store is used when omitted, so the figures still share "
        "the fitted design and the embedded Fig. 5 sweeps)",
    )
    parser.add_argument(
        "--on-error", choices=("fail-fast", "retry", "collect"),
        default="fail-fast",
        help="failure policy per grid cell: fail-fast aborts on the first "
        "failure, retry re-runs failed cells up to --retries times, "
        "collect additionally finishes every healthy cell before failing",
    )
    parser.add_argument(
        "--retries", type=int, default=2,
        help="retry budget per cell under --on-error retry|collect",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None,
        help="per-cell timeout in seconds; a hung worker is killed and "
        "the cell charged a failed attempt",
    )
    arguments = parser.parse_args()
    config = SCALES[arguments.scale]().with_overrides(
        workers=arguments.workers,
        on_error=arguments.on_error,
        retries=arguments.retries,
        task_timeout=arguments.task_timeout,
    )
    artifacts_dir = arguments.artifacts_dir
    session_store = None
    if artifacts_dir is None:
        # Throwaway store so the figures still share the fitted design
        # and the embedded Fig. 5 sweeps; removed when the run ends.
        session_store = tempfile.TemporaryDirectory(
            prefix="repro-artifacts-"
        )
        artifacts_dir = session_store.name
        print(f"(session artifact store: {artifacts_dir})")
    store = ArtifactStore(artifacts_dir)
    # Per-experiment parameter overrides.  The paper's design flow runs
    # through the loop order: fig6 selects the LF slope k3, and the
    # derived design (anchored by the fig5 sweeps, resumed from the
    # shared store) is handed to fig7/8/9 — exactly the coupling the
    # pre-registry script wired by hand.
    params_by_name = {"fig8": {"epochs": arguments.fig8_epochs}}
    started = time.time()
    deepn_config = None

    try:
        for name in experiment_names():
            if name in arguments.skip:
                continue
            if name in ("fig7", "fig8", "fig9"):
                if deepn_config is None:
                    # fig6 was skipped: derive with the paper's default
                    # k3=3.0, as the pre-registry script did.
                    deepn_config = derive_design_config(config, store=store)
                params_by_name.setdefault(name, {})[
                    "deepn_config"
                ] = deepn_config
            experiment = build_experiment(name)
            _banner(f"{name} — {experiment.title}")
            try:
                result = run_experiment(
                    experiment, config, store=store,
                    **params_by_name.get(name, {}),
                )
            except SweepFailure as failure:
                # Healthy cells are already persisted (under collect);
                # re-running the same command finishes only the failures.
                print(f"error: {failure.report()}", file=sys.stderr)
                sys.exit(3)
            print(experiment.report(result))
            if name == "fig6":
                deepn_config = derive_design_config(
                    config, k3=result.best_k3(), store=store
                )
            if name == "fig7":
                # Fig. 9 normalises the sizes Fig. 7 already measured.
                sizes = result.bytes_per_image_by_method()
                bytes_per_method = {
                    method: sizes[method]
                    for method in (
                        "Original", "RM-HF3", "SAME-Q4", "DeepN-JPEG"
                    )
                    if method in sizes
                }
                if bytes_per_method:
                    params_by_name.setdefault("fig9", {})[
                        "bytes_per_method"
                    ] = bytes_per_method

        print(
            f"\nTotal wall-clock time: {time.time() - started:.0f} s "
            f"(store: {store.hits} hits, {store.misses} misses)"
        )
    finally:
        if session_store is not None:
            session_store.cleanup()


if __name__ == "__main__":
    main()
