"""Shared configuration of the paper-shape checks.

Every figure of the paper has one ``test_bench_fig*.py`` module that runs
its experiment once at a smoke-test scale (``ExperimentConfig.tiny``),
prints the table and asserts the shape of the paper's result: orderings,
bounds and which candidate wins, not the paper's exact numbers (the data
is synthetic).  ``pytest -s`` shows the rows; ``examples/reproduce_paper.py``
runs the same experiments at the ``small`` scale.
"""

import pytest

from repro.experiments import ExperimentConfig


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """The experiment scale of the paper-shape checks."""
    return ExperimentConfig.tiny()


@pytest.fixture(scope="session")
def bench_anchors() -> dict:
    """Fixed design anchors so the Fig. 6-9 checks need not rerun Fig. 5."""
    return {"q1": 90.0, "q2": 60.0, "q_min": 8.0}
