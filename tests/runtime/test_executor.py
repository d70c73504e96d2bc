"""Tests for the process-pool execution layer."""

import multiprocessing
import traceback

import pytest

from repro.runtime import backends
from repro.runtime.executor import (
    CACHE_MISS,
    available_workers,
    chunk_bounds,
    effective_workers,
    fork_available,
    map_tasks_resumable,
)
from tests.runtime.helpers import plain_map


def _square(value):
    return value * value


def _raise_on_three(value):
    if value == 3:
        raise ValueError("task three is poisoned")
    return value


#: The fork-inherited event :func:`_wait_for_release` waits on.
_RELEASE = None


def _wait_for_release(index):
    """Task 0 waits up to 10 s for :data:`_RELEASE`; returns whether it came."""
    if index == 0:
        return _RELEASE.wait(timeout=10.0)
    return True


def _raised_in(error, function_name):
    """Whether ``error``'s formatted chain has a frame of ``function_name``."""
    chain = "".join(traceback.format_exception(error))
    return f", in {function_name}\n" in chain


class TestEffectiveWorkers:
    def test_default_is_serial(self):
        assert effective_workers(1) == 1

    def test_zero_and_none_mean_all_cpus(self):
        assert effective_workers(0) == available_workers()
        assert effective_workers(None) == available_workers()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            effective_workers(-2)

    def test_capped_by_task_count(self):
        assert effective_workers(8, task_count=3) == 3

    def test_at_least_one(self):
        assert effective_workers(4, task_count=0) == 1


class TestChunkBounds:
    def test_empty_input_yields_no_chunks(self):
        assert chunk_bounds(0, 4) == []

    def test_chunk_larger_than_total(self):
        assert chunk_bounds(3, 10) == [(0, 3)]

    def test_odd_final_chunk(self):
        assert chunk_bounds(10, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_exact_division(self):
        assert chunk_bounds(8, 4) == [(0, 4), (4, 8)]

    def test_concatenation_reproduces_range(self):
        for total in (0, 1, 5, 17):
            for chunk in (1, 2, 7, 100):
                covered = [
                    index
                    for start, stop in chunk_bounds(total, chunk)
                    for index in range(start, stop)
                ]
                assert covered == list(range(total))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            chunk_bounds(-1, 4)
        with pytest.raises(ValueError):
            chunk_bounds(4, 0)


class TestMapTasks:
    def test_serial_runs_in_order(self):
        assert plain_map(_square, range(6), workers=1) == [
            0, 1, 4, 9, 16, 25,
        ]

    def test_parallel_matches_serial(self):
        tasks = list(range(23))
        serial = plain_map(_square, tasks, workers=1)
        parallel = plain_map(_square, tasks, workers=4)
        assert parallel == serial

    def test_parallel_preserves_order_with_uneven_chunks(self):
        tasks = list(range(11))
        assert plain_map(_square, tasks, workers=3) == [
            value * value for value in tasks
        ]

    def test_single_task_stays_serial(self):
        assert plain_map(_square, [7], workers=8) == [49]

    def test_exception_propagates_serial(self):
        with pytest.raises(ValueError, match="poisoned"):
            plain_map(_raise_on_three, range(5), workers=1)

    def test_pool_survives_worker_task_raising(self):
        """A poisoned task fails the call, not the runtime."""
        with pytest.raises(ValueError, match="poisoned") as exc_info:
            plain_map(_raise_on_three, range(5), workers=2)
        # The worker's traceback rides along, as concurrent.futures does.
        assert _raised_in(exc_info.value, "_raise_on_three")
        # The next pool works: one bad sweep never wedges the runtime.
        assert plain_map(_square, range(5), workers=2) == [0, 1, 4, 9, 16]

    def test_on_result_fires_in_order_serial(self):
        seen = []
        plain_map(
            _square, range(4), workers=1,
            on_result=lambda index, value: seen.append((index, value)),
        )
        assert seen == [(0, 0), (1, 1), (2, 4), (3, 9)]

    def test_on_result_fires_once_per_task_parallel(self):
        seen = []
        plain_map(
            _square, range(9), workers=3,
            on_result=lambda index, value: seen.append((index, value)),
        )
        assert sorted(seen) == [(index, index * index) for index in range(9)]

    @pytest.mark.skipif(
        not fork_available(), reason="fork start method required"
    )
    def test_a_finished_cell_persists_while_an_earlier_one_runs(
        self, monkeypatch
    ):
        """On a pool, ``on_result`` fires per completion, not in task order.

        Task 0 waits for an event that only ``on_result`` for task 1
        sets; persisting in task order would leave it waiting out its
        10 s timeout and return ``False``.
        """
        release = multiprocessing.get_context("fork").Event()
        monkeypatch.setitem(globals(), "_RELEASE", release)

        def on_result(index, value):
            if index == 1:
                release.set()

        assert plain_map(
            _wait_for_release, range(2), workers=2, on_result=on_result
        ) == [True, True]


class TestInProcessOrdering:
    def test_each_result_persists_before_the_next_task_runs(
        self, monkeypatch
    ):
        """One worker, no policy: run i, persist i, then run i + 1.

        Running a task before the previous result is persisted would
        pair up a serial sweep's progress stamps, and lose a finished
        cell when the next one is interrupted.
        """
        def no_pool(count):
            raise AssertionError("the in-process path built a pool")

        monkeypatch.setattr(backends, "_new_pool", no_pool)
        log = []

        def run(value):
            log.append(f"run {value}")
            return value

        map_tasks_resumable(
            run, range(4), [CACHE_MISS] * 4, workers=1,
            on_result=lambda index, value: log.append(f"persist {index}"),
        )
        assert log == [
            entry
            for index in range(4)
            for entry in (f"run {index}", f"persist {index}")
        ]


@pytest.mark.skipif(not fork_available(), reason="fork start method required")
def test_parallel_really_uses_processes():
    """With fork available and workers > 1, tasks run in child processes."""
    import os

    parent = os.getpid()
    pids = plain_map(_child_pid, range(4), workers=2)
    assert any(pid != parent for pid in pids)


def _child_pid(_):
    import os

    return os.getpid()
