"""The repository benchmark: workloads, checks and the outside-in tracer.

Run ``python3 perfbench/run.py --help``; ``BENCHMARK.json`` at the root
lists the workloads and metrics.
"""
