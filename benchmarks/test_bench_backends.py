"""Dispatch benchmarks: what one sweep of trivial tasks costs per transport.

Every map runs through the supervisor, over one of two transports: the
in-process ``SerialBackend`` (one worker, no error policy) and a fresh
forked pool per sweep (``ForkedBackend``).  These benchmarks measure
the dispatch cost of a grid of trivial tasks on each, so the trajectory
records what a sweep pays before any real work.
"""

import pytest

from conftest import run_once

from repro.runtime.executor import (
    CACHE_MISS,
    fork_available,
    map_tasks_resumable,
)

#: Enough tasks that per-task dispatch dominates, small enough that the
#: task body is negligible.
TASK_COUNT = 64
POOL_WORKERS = 2
#: A cold sweep: every task runs.
NOTHING_CACHED = [CACHE_MISS] * TASK_COUNT

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


def _square(value: int) -> int:
    return value * value


@pytest.fixture()
def reference():
    """Serial answer every transport must reproduce exactly."""
    return [index * index for index in range(TASK_COUNT)]


def test_dispatch_serial(benchmark, reference):
    """In-process floor: no pickling, no processes."""
    results = benchmark(
        map_tasks_resumable, _square, range(TASK_COUNT), NOTHING_CACHED,
        workers=1,
    )
    assert results == reference
    benchmark.extra_info["tasks"] = TASK_COUNT


@needs_fork
def test_dispatch_forked(benchmark, reference):
    """A fresh forked pool is spawned for every sweep."""
    results = run_once(
        benchmark, map_tasks_resumable, _square, range(TASK_COUNT),
        NOTHING_CACHED, workers=POOL_WORKERS,
    )
    assert results == reference
    benchmark.extra_info["tasks"] = TASK_COUNT
    benchmark.extra_info["workers"] = POOL_WORKERS
