"""Check the benchmark's steadiness across seeds.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workloads fig5-sweep edge-stream --seeds 10

Runs ``perfbench/run.py`` once per seed and workload with tracing off,
then prints each end-to-end metric's median and its quartile spread (the
distance between the first and third quartile, as a share of the median)
next to the metric's bound from ``BENCHMARK.json``.  A spread above a
third of the bound is flagged; ``setup_s`` is exempt from the spread
rule.  ``--out`` saves every run's metrics as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import quartile_spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs were wrong")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workloads", nargs="+",
        default=[workload["name"] for workload in spec["workloads"]],
    )
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    arguments = parser.parse_args(argv)

    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    runs = {}
    steady = True
    for workload in arguments.workloads:
        seeds = range(arguments.first_seed, arguments.first_seed + arguments.seeds)
        runs[workload] = [
            run_once(workload, seed, arguments.seconds) for seed in seeds
        ]
        print(f"{workload} ({len(runs[workload])} seeds)")
        for name, bound in bounds.items():
            values = [run[name] for run in runs[workload]]
            spread = quartile_spread(values)
            flag = ""
            if name != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of the bound"
                steady = False
            print(
                f"  {name:<14} median {statistics.median(values):<12.6g} "
                f"spread {spread:.4f} bound {bound}{flag}"
            )
    if arguments.out is not None:
        arguments.out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
