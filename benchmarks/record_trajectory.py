"""Append a pytest-benchmark JSON run to a machine-readable perf trajectory.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_runtime.py \
        -q --benchmark-json=bench.json
    python benchmarks/record_trajectory.py bench.json \
        --label PR3 --trajectory BENCH_PR3.json

Each invocation appends one entry — label, timestamp, machine shape and
the per-benchmark mean/min/stddev plus any ``extra_info`` the benchmark
recorded (worker counts, measured speedups) — to the trajectory file, a
JSON list that accumulates across PRs so perf history stays diffable
and machine-readable.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path


def summarize(report: dict) -> dict:
    """The per-benchmark summary stored in a trajectory entry."""
    benchmarks = {}
    for bench in report.get("benchmarks", []):
        stats = bench.get("stats", {})
        summary = {
            "mean_seconds": stats.get("mean"),
            "min_seconds": stats.get("min"),
            "stddev_seconds": stats.get("stddev"),
            "rounds": stats.get("rounds"),
        }
        extra = bench.get("extra_info") or {}
        if extra:
            summary["extra_info"] = extra
        benchmarks[bench["name"]] = summary
    return benchmarks


def usable_cpus() -> int:
    """CPUs actually usable by this process (affinity-aware).

    ``machine_info`` reports the physical count, which overstates what a
    containerised runner can use; the affinity mask is what the pools
    see, so it is what makes a 1-CPU container entry distinguishable
    from a real multi-core run.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def build_entry(report: dict, label: str) -> dict:
    machine = report.get("machine_info") or {}
    import numpy as np

    return {
        "label": label,
        "recorded": report.get("datetime"),
        # Stamped on every entry so trajectory consumers can filter
        # 1-CPU container noise without digging into machine blobs.
        "cpu_count": usable_cpus(),
        "dtype": np.dtype(float).name,
        "machine": {
            "node": machine.get("node"),
            "cpu_count": machine.get("cpu", {}).get("count")
            if isinstance(machine.get("cpu"), dict)
            else os.cpu_count(),
            "python": machine.get("python_version"),
        },
        "benchmarks": summarize(report),
    }


def append_entry(trajectory_path: Path, entry: dict) -> list:
    if trajectory_path.exists():
        history = json.loads(trajectory_path.read_text())
        if not isinstance(history, list):
            raise SystemExit(
                f"{trajectory_path} is not a JSON list; refusing to overwrite"
            )
    else:
        history = []
    history.append(entry)
    trajectory_path.write_text(json.dumps(history, indent=2) + "\n")
    return history


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "report", type=Path,
        help="pytest-benchmark --benchmark-json output file",
    )
    parser.add_argument(
        "--label", required=True,
        help="trajectory entry label, e.g. PR3 or PR3-ci",
    )
    parser.add_argument(
        "--trajectory", type=Path, default=Path("BENCH_PR3.json"),
        help="trajectory file to append to (created if missing)",
    )
    arguments = parser.parse_args()
    report = json.loads(arguments.report.read_text())
    entry = build_entry(report, arguments.label)
    history = append_entry(arguments.trajectory, entry)
    print(
        f"appended entry {arguments.label!r} "
        f"({len(entry['benchmarks'])} benchmarks) to {arguments.trajectory} "
        f"({len(history)} entries total)"
    )


if __name__ == "__main__":
    main()
