"""Shared configuration for the benchmark harness.

Every figure of the paper has one benchmark module that regenerates its
table/series at a smoke-test scale (``ExperimentConfig.tiny``) and prints
the rows.  ``examples/reproduce_paper.py`` runs the same experiments at
the ``small`` scale.
"""

import pytest

from repro.experiments import ExperimentConfig


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """The experiment scale used by the figure benchmarks."""
    return ExperimentConfig.tiny()


@pytest.fixture(scope="session")
def bench_anchors() -> dict:
    """Fixed design anchors so figure benchmarks need not rerun Fig. 5."""
    return {"q1": 90.0, "q2": 60.0, "q_min": 8.0}


def run_once(benchmark, function, *args, **kwargs):
    """Run a heavy experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(
        function, args=args, kwargs=kwargs, rounds=1, iterations=1,
        warmup_rounds=0,
    )
