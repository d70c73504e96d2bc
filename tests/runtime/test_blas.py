"""The fit-scoped thread pool of repro.runtime.blas.

``split_pool`` keeps helper threads alive only inside its block, with
BLAS pinned to 1 thread; ``split_batch`` cuts a batch into contiguous
slices over them.  The width and grain are monkeypatched where a test
must take the split path on any CPU count.
"""

import functools
import sys
import threading

import numpy as np
import pytest

from repro.runtime import backends, blas
from repro.runtime.executor import available_workers, fork_available


def _record_slices(count, elements):
    """The ``(lo, hi, thread)`` of every slice one split_batch ran."""
    slices = []
    lock = threading.Lock()

    def kernel(lo, hi):
        with lock:
            slices.append((lo, hi, threading.get_ident()))

    blas.split_batch(kernel, count, elements)
    return sorted(slices)


class TestSplitBatch:
    @pytest.mark.usefixtures("two_wide")
    def test_outside_a_pool_the_kernel_runs_whole(self):
        assert _record_slices(7, 10**9) == [(0, 7, threading.get_ident())]

    @pytest.mark.usefixtures("two_wide")
    def test_contiguous_slices_and_the_caller_takes_the_first(self):
        with blas.split_pool():
            slices = _record_slices(7, 1)
        assert [(lo, hi) for lo, hi, _ in slices] == [(0, 3), (3, 7)]
        assert slices[0][2] == threading.get_ident()
        assert slices[1][2] != threading.get_ident()

    @pytest.mark.usefixtures("two_wide")
    def test_a_batch_smaller_than_the_width_runs_whole(self):
        with blas.split_pool():
            assert [(lo, hi) for lo, hi, _ in _record_slices(1, 1)] == [(0, 1)]

    def test_arrays_below_the_grain_run_whole(self, monkeypatch):
        monkeypatch.setattr(blas, "split_width", lambda: 2)
        with blas.split_pool():
            slices = _record_slices(8, blas.SPLIT_GRAIN - 1)
            assert [(lo, hi) for lo, hi, _ in slices] == [(0, 8)]
            slices = _record_slices(8, blas.SPLIT_GRAIN)
            assert [(lo, hi) for lo, hi, _ in slices] == [(0, 4), (4, 8)]

    @pytest.mark.usefixtures("two_wide")
    def test_a_helper_slice_error_reaches_the_caller(self):
        def kernel(lo, hi):
            if lo:
                raise ValueError(f"slice {lo}:{hi}")

        with blas.split_pool():
            with pytest.raises(ValueError, match="slice 2:4"):
                blas.split_batch(kernel, 4, 1)


def _mark(hits, lo, hi):
    hits[lo:hi] += 1


def test_slices_cover_the_batch_once_under_thread_churn(monkeypatch):
    """More threads than CPUs, switching every microsecond."""
    monkeypatch.setattr(blas, "split_width", lambda: available_workers() + 2)
    monkeypatch.setattr(blas, "SPLIT_GRAIN", 0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with blas.split_pool():
            for count in range(1, 40):
                hits = np.zeros(count, dtype=int)
                blas.split_batch(functools.partial(_mark, hits), count, 1)
                assert (hits == 1).all(), (count, hits)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.usefixtures("two_blas_threads")
class TestSplitPool:
    @pytest.mark.usefixtures("two_wide")
    def test_pins_blas_inside_and_restores_it_and_the_threads(self):
        threads = blas.get_threads()
        before = set(threading.enumerate())
        with blas.split_pool():
            if threads is not None:
                assert blas.get_threads() == 1
            _record_slices(4, 1)
        assert blas.get_threads() == threads
        assert set(threading.enumerate()) <= before

    @pytest.mark.usefixtures("two_wide")
    def test_restores_after_an_error(self):
        threads = blas.get_threads()
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="inside"):
            with blas.split_pool():
                _record_slices(4, 1)
                raise RuntimeError("inside")
        assert blas.get_threads() == threads
        assert set(threading.enumerate()) <= before
        assert blas._split is None

    def test_width_one_starts_no_pool(self, monkeypatch):
        monkeypatch.setattr(blas, "split_width", lambda: 1)
        threads = blas.get_threads()
        with blas.split_pool():
            assert blas._split is None
            assert blas.get_threads() == threads

    @pytest.mark.usefixtures("two_wide")
    def test_a_nested_block_reuses_the_outer_pool(self):
        with blas.split_pool():
            outer = blas._split
            with blas.split_pool():
                assert blas._split is outer
            assert blas._split is outer
        assert blas._split is None


def test_width_is_the_blas_count_capped_at_the_cpus():
    threads = blas.get_threads()
    expected = 1 if threads is None else min(threads, available_workers())
    assert blas.split_width() == expected


def _width_in_worker(_):
    with blas.split_pool():
        return blas.split_width(), blas._split is None


@pytest.mark.skipif(not fork_available(), reason="fork start method required")
def test_a_pool_worker_sharing_the_cpus_gets_width_one():
    """A worker of a pool as wide as the CPUs runs every kernel whole.

    ``_new_pool`` sets each worker's BLAS count to its CPU share, which
    for ``max(2, CPUs)`` workers is 1 (a 2-worker pool on a 2-CPU
    host).
    """
    with backends._new_pool(max(2, available_workers())) as pool:
        assert pool.submit(_width_in_worker, None).result(timeout=60) == (
            1, True
        )
