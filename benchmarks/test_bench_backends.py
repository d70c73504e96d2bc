"""Backend benchmarks: per-transport dispatch overhead.

The ``ExecutorBackend`` refactor promises that backends are pure
transport — same results, different dispatch cost.  These benchmarks
measure that cost for a grid of trivial tasks so the trajectory records
what each transport charges per sweep: ``serial`` (in-process floor),
``forked`` (pool spawn every sweep), and ``persistent`` (pool spawned
once, then warm reuse).
"""

import time

import pytest

from conftest import run_once

from repro.runtime.backends import get_backend, shutdown_backends
from repro.runtime.executor import fork_available, map_tasks

#: Enough tasks that per-task dispatch dominates, small enough that the
#: task body is negligible.
TASK_COUNT = 64
POOL_WORKERS = 2

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


def _square(value: int) -> int:
    return value * value


@pytest.fixture()
def reference():
    """Serial answer every backend must reproduce exactly."""
    return [index * index for index in range(TASK_COUNT)]


@pytest.fixture()
def fresh_backends():
    """Isolate pool singletons so warm/cold measurements are honest."""
    shutdown_backends()
    yield
    shutdown_backends()


def test_dispatch_serial(benchmark, reference):
    """In-process floor: no pickling, no processes, no supervision."""
    results = benchmark(
        map_tasks, _square, range(TASK_COUNT), workers=POOL_WORKERS,
        backend="serial",
    )
    assert results == reference
    benchmark.extra_info["tasks"] = TASK_COUNT


@needs_fork
def test_dispatch_forked(benchmark, reference, fresh_backends):
    """Legacy path: a fresh forked pool is spawned for every sweep."""
    results = run_once(
        benchmark, map_tasks, _square, range(TASK_COUNT),
        workers=POOL_WORKERS, backend="forked",
    )
    assert results == reference
    benchmark.extra_info["tasks"] = TASK_COUNT
    benchmark.extra_info["workers"] = POOL_WORKERS


@needs_fork
def test_dispatch_persistent_warm(benchmark, reference, fresh_backends):
    """Warm pool reuse: the fork tax is paid once, outside the timing."""
    warmup = map_tasks(
        _square, range(TASK_COUNT), workers=POOL_WORKERS,
        backend="persistent",
    )
    assert warmup == reference
    results = benchmark.pedantic(
        map_tasks, args=(_square, range(TASK_COUNT)),
        kwargs={"workers": POOL_WORKERS, "backend": "persistent"},
        rounds=5, iterations=1, warmup_rounds=0,
    )
    assert results == reference
    benchmark.extra_info["tasks"] = TASK_COUNT
    benchmark.extra_info["workers"] = POOL_WORKERS


@needs_fork
def test_persistent_cold_vs_warm(benchmark, reference, fresh_backends):
    """Report how much of a sweep the pool spawn itself costs."""
    started = time.perf_counter()
    cold = map_tasks(
        _square, range(TASK_COUNT), workers=POOL_WORKERS,
        backend="persistent",
    )
    cold_seconds = time.perf_counter() - started
    assert cold == reference

    warm = run_once(
        benchmark, map_tasks, _square, range(TASK_COUNT),
        workers=POOL_WORKERS, backend="persistent",
    )
    assert warm == reference

    backend = get_backend("persistent")
    assert backend._pool is not None
    benchmark.extra_info["cold_seconds"] = round(cold_seconds, 4)
    benchmark.extra_info["tasks"] = TASK_COUNT
    benchmark.extra_info["workers"] = POOL_WORKERS
    print(f"\npersistent backend: cold sweep {cold_seconds * 1e3:.1f} ms")


# ----------------------------------------------------------------------
# Array-result shipping over pickle
# ----------------------------------------------------------------------

#: Per-task result: 512 KiB float64 — the decoded-stack shape class
#: (structure small, flat array data large).
ARRAY_TASKS = 16
ARRAY_SHAPE = (256, 256)


def _array_result(scale: int):
    import numpy as np

    return np.full(ARRAY_SHAPE, float(scale))


def _assert_arrays(results):
    import numpy as np

    assert len(results) == ARRAY_TASKS
    for scale, array in enumerate(results):
        assert array.shape == ARRAY_SHAPE
        assert array[0, 0] == float(scale)
        assert isinstance(array, np.ndarray)


@needs_fork
def test_array_results_warm_pool_pickle(benchmark, fresh_backends):
    """Warm persistent pool: every result byte pickles over the pipe."""
    warmup = map_tasks(
        _array_result, range(ARRAY_TASKS), workers=POOL_WORKERS,
        backend="persistent",
    )
    _assert_arrays(warmup)
    results = benchmark.pedantic(
        map_tasks, args=(_array_result, range(ARRAY_TASKS)),
        kwargs={"workers": POOL_WORKERS, "backend": "persistent"},
        rounds=9, iterations=1, warmup_rounds=1,
    )
    _assert_arrays(results)
    benchmark.extra_info["tasks"] = ARRAY_TASKS
    benchmark.extra_info["bytes_per_result"] = 8 * ARRAY_SHAPE[0] * ARRAY_SHAPE[1]
    benchmark.extra_info["transport"] = "pickle"
