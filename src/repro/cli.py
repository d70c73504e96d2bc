"""The ``python -m repro`` command line: the canonical experiment entry point.

Three subcommands over the experiment registry
(:mod:`repro.experiments.api`):

``list``
    Every registered experiment with its one-line description.
``run <name>``
    Run one experiment end to end — ``--scale`` picks the
    :class:`~repro.experiments.common.ExperimentConfig` preset,
    ``--workers`` shards the grid, ``--artifacts-dir`` caches/resumes
    grid cells, ``--progress`` streams cell completion, ``--json`` emits
    a machine-readable result instead of the table.  ``--on-error``,
    ``--retries`` and ``--task-timeout`` set the error policy of the
    supervised runtime every sweep runs through
    (:mod:`repro.runtime.supervision`): failed cells retry with
    the same task payload (recovered runs are bit-identical), hung cells
    are killed at the timeout, and under ``--on-error collect`` every
    healthy cell completes and persists before the run exits non-zero
    with a report naming the failed cells (exit status 3; with ``--json``
    the report is a machine-readable payload of ``TaskFailure``
    envelopes on stdout).  A pool worker that dies mid-cell makes the
    run exit 3 the same way, under every policy.  Ctrl-C exits with
    status 130 after printing how to resume.
``replay <name>``
    Re-run against a warm artifact store and *fail* unless every cell
    was served from cache — the smoke check that a previous ``run``
    persisted everything it computed.
``lint``
    Check ``src/`` and ``tests/`` against the repo's own correctness
    invariants with the AST-based rules of
    :mod:`repro.analysis.lint_rules` (parity references, task-key
    hygiene, worker seeding, allocation-free plan kernels, envelope
    safety, pool construction — see ``INVARIANTS.md``).  Exits 5 on
    findings; ``--json`` emits a machine-readable report.

Examples::

    python -m repro list
    python -m repro run fig5 --scale tiny --workers 2 --artifacts-dir store/
    python -m repro run fig5 --scale tiny --workers 2 --artifacts-dir store/ \
        --on-error collect --retries 2 --task-timeout 600
    python -m repro replay fig5 --scale tiny --workers 2 --artifacts-dir store/
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from typing import Optional

from repro.experiments import ExperimentConfig
from repro.experiments.api import (
    SweepFailure,
    build_experiment,
    experiment_names,
    run_experiment,
)
from repro.experiments.store import ArtifactStore
from repro.runtime import faults

#: Exit statuses beyond 0/1: argparse-style usage errors are 2, a sweep
#: with failed cells is 3, an interrupted run is 128+SIGINT = 130.
EXIT_SWEEP_FAILURE = 3
EXIT_INTERRUPTED = 130

#: Named experiment scales — the ExperimentConfig presets (micro is the
#: test-suite / golden-fixture scale).
SCALES = {
    "micro": ExperimentConfig.micro,
    "tiny": ExperimentConfig.tiny,
    "small": ExperimentConfig.small,
    "full": ExperimentConfig.full,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run the DeepN-JPEG reproduction experiments by name.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser(
        "list", help="list the registered experiments",
        description="List every registered experiment and its description.",
    )

    for command, help_text in (
        ("run", "run one experiment end to end"),
        ("replay", "re-run from a warm store, failing on any cache miss"),
    ):
        sub = subparsers.add_parser(command, help=help_text)
        sub.add_argument(
            "experiment", help="registered experiment name (see `repro list`)"
        )
        sub.add_argument(
            "--scale", choices=sorted(SCALES), default="small",
            help="experiment scale (dataset size and training epochs)",
        )
        sub.add_argument(
            "--workers", type=int, default=1,
            help="processes per sweep (1 = serial, 0 = all CPUs); results "
            "are identical for any worker count",
        )
        sub.add_argument(
            "--artifacts-dir", default=None,
            required=(command == "replay"),
            help="content-addressed artifact store directory; completed "
            "grid cells resume from it"
            + (" (required for replay)" if command == "replay" else ""),
        )
        sub.add_argument(
            "--on-error", choices=("fail-fast", "retry", "collect"),
            default=None, dest="on_error",
            help="sweep error policy: fail-fast aborts on the first "
            "failure (default), retry re-runs failed cells, collect "
            "retries then finishes every healthy cell before reporting "
            "the failures and exiting with status 3",
        )
        sub.add_argument(
            "--retries", type=int, default=None,
            help="extra attempts per failed cell under retry/collect "
            "(default 2); retried cells re-run the same task payload, so "
            "recovered runs are bit-identical",
        )
        sub.add_argument(
            "--task-timeout", type=float, default=None, dest="task_timeout",
            help="per-cell wall-clock budget in seconds; a cell past it "
            "is killed and handled under the error policy",
        )
        sub.add_argument(
            "--json", action="store_true", dest="as_json",
            help="emit the result as JSON on stdout instead of a table",
        )
        sub.add_argument(
            "--progress", action="store_true",
            help="report cell completion (done/total) on stderr",
        )

    lint = subparsers.add_parser(
        "lint",
        help="check src/ and tests/ against the repo's own correctness "
        "invariants (AST rules; exit 5 on findings; see INVARIANTS.md)",
    )
    lint.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the findings as JSON on stdout",
    )

    return parser


def _progress_printer(name: str):
    def progress(done: int, total: int) -> None:
        end = "\n" if done == total else ""
        print(f"\r{name}: {done}/{total} cells", end=end, file=sys.stderr,
              flush=True)

    return progress


def _resume_hint(arguments: argparse.Namespace) -> str:
    """The command that resumes an interrupted or partly failed run."""
    command = (
        f"python -m repro run {arguments.experiment} "
        f"--scale {arguments.scale}"
    )
    if arguments.workers != 1:
        command += f" --workers {arguments.workers}"
    if arguments.artifacts_dir:
        command += f" --artifacts-dir {arguments.artifacts_dir}"
        return (
            f"completed cells are persisted; resume with: {command}"
        )
    return (
        f"no --artifacts-dir was given, so completed cells were not "
        f"persisted; re-run (ideally with --artifacts-dir): {command}"
    )


def _run(arguments: argparse.Namespace) -> int:
    try:
        experiment = build_experiment(arguments.experiment)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    try:
        # Surface a REPRO_FAULTS typo before any state is built: a bad
        # spec string must fail the run up front, not mid-sweep inside
        # a worker.
        faults.validate_active_faults()
    except faults.FaultSpecError as error:
        print(f"error: invalid {faults.ENV_VAR}: {error}", file=sys.stderr)
        return 2
    overrides = {"workers": arguments.workers}
    if arguments.on_error is not None:
        overrides["on_error"] = arguments.on_error
    if arguments.retries is not None:
        overrides["retries"] = arguments.retries
    if arguments.task_timeout is not None:
        overrides["task_timeout"] = arguments.task_timeout
    try:
        config = SCALES[arguments.scale]().with_overrides(**overrides)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    store = (
        ArtifactStore(arguments.artifacts_dir)
        if arguments.artifacts_dir else None
    )
    progress = (
        _progress_printer(experiment.name) if arguments.progress else None
    )
    started = time.time()
    try:
        result = run_experiment(
            experiment, config, store=store, progress=progress
        )
    except SweepFailure as failure:
        if arguments.as_json:
            # Machine-readable failure report: the supervision envelopes
            # serialise themselves (TaskFailure.to_json), so the payload
            # round-trips through TaskFailure.from_json.
            json.dump(
                {
                    "experiment": failure.experiment,
                    "failed": len(failure.failures),
                    "total": failure.total,
                    "failures": [
                        {"cell": cell, "failure": envelope.to_json()}
                        for cell, envelope in failure.failures
                    ],
                },
                sys.stdout,
            )
            print()
        print(f"error: {failure.report()}", file=sys.stderr)
        print(_resume_hint(arguments), file=sys.stderr)
        return EXIT_SWEEP_FAILURE
    except KeyboardInterrupt:
        print(
            f"\ninterrupted: {experiment.name!r} stopped before the sweep "
            f"finished",
            file=sys.stderr,
        )
        print(_resume_hint(arguments), file=sys.stderr)
        return EXIT_INTERRUPTED
    elapsed = time.time() - started

    if arguments.command == "replay" and store.misses:
        print(
            f"error: replay of {experiment.name!r} was not warm — "
            f"{store.misses} cache miss(es) ({store.hits} hits); run "
            f"`repro run {experiment.name}` with the same scale and "
            f"artifacts dir first",
            file=sys.stderr,
        )
        return 1

    if arguments.as_json:
        payload = {
            "experiment": experiment.name,
            "title": experiment.title,
            "scale": arguments.scale,
            "workers": arguments.workers,
            "headers": list(experiment.headers),
            "rows": result.rows(),
            "elapsed_seconds": elapsed,
        }
        if store is not None:
            payload["store"] = {
                "root": store.root, "hits": store.hits, "misses": store.misses,
            }
        json.dump(payload, sys.stdout, default=float)
        print()
    else:
        print(experiment.report(result))
        summary = f"[{experiment.name}] completed in {elapsed:.1f} s"
        if store is not None:
            summary += f" (store: {store.hits} hits, {store.misses} misses)"
        print(summary, file=sys.stderr)
    return 0


def _import_plugin_modules() -> None:
    """Import the modules named in ``REPRO_EXPERIMENT_MODULES``.

    Out-of-tree experiments register at import time; this hook (a
    comma-separated module list) lets the CLI see them without a code
    change: ``REPRO_EXPERIMENT_MODULES=my_sweeps python -m repro run
    my-experiment``.  A module that fails to import raises
    :class:`ImportError` naming the variable and the module.
    """
    for module in os.environ.get("REPRO_EXPERIMENT_MODULES", "").split(","):
        module = module.strip()
        if module:
            try:
                importlib.import_module(module)
            except ImportError as error:
                raise ImportError(
                    f"REPRO_EXPERIMENT_MODULES names {module!r}, which "
                    f"does not import: {error}"
                ) from error


def main(argv: Optional["list[str]"] = None) -> int:
    arguments = build_parser().parse_args(argv)
    if arguments.command == "lint":
        from repro.analysis.lint import lint_command

        return lint_command(arguments.as_json)
    try:
        _import_plugin_modules()
    except ImportError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if arguments.command == "list":
        names = experiment_names()
        if not names:
            print("no experiments registered")
            return 0
        width = max(len(name) for name in names)
        for name in names:
            print(f"{name.ljust(width)}  {build_experiment(name).title}")
        return 0
    return _run(arguments)


if __name__ == "__main__":
    raise SystemExit(main())
