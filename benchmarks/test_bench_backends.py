"""Dispatch checks: one sweep of trivial tasks over each transport.

Every map runs through the supervisor, over one of two transports: the
in-process ``SerialBackend`` (one worker, no error policy) and a fresh
forked pool per sweep (``ForkedBackend``).  Each test runs a grid of
trivial tasks once and checks the transport returns the serial answer
in order.  Timing lives in ``perfbench/run.py``.
"""

import pytest

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


def test_dispatch_serial(reference):
    """In-process floor: no pickling, no processes."""
    results = map_tasks_resumable(
        _square, range(TASK_COUNT), NOTHING_CACHED, workers=1,
    )
    assert results == reference


@needs_fork
def test_dispatch_forked(reference):
    """A fresh forked pool is spawned for every sweep."""
    results = map_tasks_resumable(
        _square, range(TASK_COUNT), NOTHING_CACHED, workers=POOL_WORKERS,
    )
    assert results == reference
