"""The two executor transports (repro.runtime.backends).

The serial backend's one-attempt-per-poll cycle, the supervisor's
choice of transport, result shipping (large arrays, unpicklable values)
over a pool on the default path and under a named policy, and each pool
worker's BLAS thread budget.
"""

import ast
import pathlib
import threading
import time

import numpy as np
import pytest

from repro.runtime import backends, blas, faults, supervision
from repro.runtime.backends import BackendEvent, ForkedBackend, SerialBackend
from repro.runtime.executor import available_workers, fork_available
from repro.runtime.supervision import TaskFailure
from tests.runtime.helpers import plain_map

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method required"
)


def _square(value):
    return value * value


def _boom(value):
    raise ValueError(f"boom {value}")


def _worker_blas_threads(_):
    return blas.get_threads()


def _array_result(scale):
    """A 128 KiB float64 array."""
    return np.full((128, 128), float(scale))


def _lock_at_two(value):
    """``value`` squared, except that task 2 returns an unpicklable lock."""
    if value == 2:
        return threading.Lock()
    return value * value


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.clear_faults()
    yield
    faults.clear_faults()


class TestSerialBackend:
    def test_supervised_cycle_emits_events_inline(self):
        calls = []

        def record(value):
            calls.append(value)
            return value * value

        backend = SerialBackend()
        backend.open(record, [2, 3], workers=1)
        backend.submit(0, 1)
        backend.submit(1, 1)
        assert calls == []  # submit only queues
        # One queued attempt runs per poll, in submit order.
        events = [event for _ in range(2) for event in backend.poll(0.0)]
        assert [(e.index, e.kind, e.value) for e in events] == [
            (0, "ok", 4), (1, "ok", 9),
        ]
        assert calls == [2, 3]
        assert backend.poll(0.0) == []  # drained
        assert backend.running() == {}  # no process to watch -> no timeouts
        backend.close()

    def test_supervised_failure_event_carries_envelope(self):
        backend = SerialBackend()
        backend.open(_boom, ["x"], workers=1)
        backend.submit(0, 1)
        (event,) = backend.poll(0.0)
        assert event.kind == "failure"
        assert event.failure.error_type == "ValueError"
        assert "boom" in event.failure.message


@pytest.fixture()
def opened(monkeypatch):
    """The transport of every map opened, in order."""
    names = []
    for cls in (SerialBackend, ForkedBackend):
        def spy(self, *args, _open=cls.open, **kwargs):
            names.append(type(self).__name__)
            return _open(self, *args, **kwargs)

        monkeypatch.setattr(cls, "open", spy)
    return names


class TestExecutorRouting:
    def test_one_worker_with_no_policy_runs_in_process(self, opened):
        assert plain_map(_square, range(4), workers=1) == [0, 1, 4, 9]
        assert plain_map(_square, [3], workers=2) == [9]
        assert opened == ["SerialBackend", "SerialBackend"]

    @needs_fork
    def test_a_pool_a_policy_or_a_timeout_forks(self, opened):
        expected = [0, 1, 4, 9]
        assert plain_map(_square, range(4), workers=2) == expected
        assert plain_map(
            _square, range(4), workers=1, policy="fail-fast"
        ) == expected
        assert plain_map(_square, range(4), workers=1, task_timeout=60) == (
            expected
        )
        assert opened == ["ForkedBackend"] * 3

    def test_without_fork_every_map_runs_in_process(
        self, opened, monkeypatch
    ):
        monkeypatch.setattr(supervision, "fork_available", lambda: False)
        assert plain_map(
            _square, range(4), workers=2, policy="retry"
        ) == [0, 1, 4, 9]
        assert opened == ["SerialBackend"]

    @needs_fork
    def test_supervised_results_identical_across_backends(self):
        reference = plain_map(
            _square, list(range(10)), workers=1, policy=None
        )
        for workers, policy in ((1, "retry"), (2, "retry"), (2, None)):
            assert plain_map(
                _square, list(range(10)), workers=workers, policy=policy,
                retries=1,
            ) == reference


class _LateExitStatus:
    """A dead worker whose status another thread is still recording."""

    def __init__(self, delay):
        self._ready_at = time.monotonic() + delay

    def join(self, timeout=None):
        pass

    @property
    def exitcode(self):
        return 70 if time.monotonic() >= self._ready_at else None


class TestReapExitcode:
    def test_waits_for_a_status_the_executor_thread_is_recording(self):
        assert backends._reap_exitcode(_LateExitStatus(0.02)) == 70

    def test_gives_up_at_the_deadline(self):
        assert backends._reap_exitcode(_LateExitStatus(60), timeout=0.01) is None


class TestBackendEvent:
    def test_defaults(self):
        event = BackendEvent(3, 2, "ok", value=9)
        assert (event.index, event.attempt, event.kind) == (3, 2, "ok")
        assert event.failure is None


#: The pool transports, both a 2-worker ``ForkedBackend`` map: "plain"
#: passes no policy (the default path), "supervised" names
#: ``policy="retry"``.
TRANSPORTS = ["plain", "supervised"]


def _two_worker_map(transport, function, tasks, policy="retry", retries=2):
    """``function`` over ``tasks`` through one 2-worker map of ``transport``.

    ``policy`` and ``retries`` apply to the supervised transport only.
    """
    if transport == "plain":
        return plain_map(function, tasks, workers=2)
    return plain_map(
        function, tasks, workers=2, policy=policy, retries=retries,
    )


def _probe_map(transport):
    """Every pool worker's BLAS thread count, over one 2-worker map."""
    return _two_worker_map(transport, _worker_blas_threads, list(range(8)))


@needs_fork
@pytest.mark.parametrize("transport", TRANSPORTS)
class TestResultShipping:
    """Results cross the pool as ordinary pickles, whatever their size."""

    def test_large_array_results(self, transport):
        scales = [1, 2, 3, 4, 5]
        results = _two_worker_map(transport, _array_result, scales)
        assert len(results) == len(scales)
        for scale, array in zip(scales, results):
            assert isinstance(array, np.ndarray)
            assert array.nbytes == 128 * 1024
            np.testing.assert_array_equal(array, _array_result(scale))

    def test_unpicklable_result(self, transport):
        """A result the worker cannot pickle fails only its own task.

        The executor's ``TypeError`` reaches ``ForkedBackend.poll``'s
        transport-failure branch, which charges it like a task
        exception: the default path raises it, ``collect`` keeps its
        envelope in the task's slot.
        """
        tasks = [0, 1, 2, 3]
        if transport == "plain":
            with pytest.raises(TypeError):
                _two_worker_map(transport, _lock_at_two, tasks)
            return
        results = _two_worker_map(
            transport, _lock_at_two, tasks, policy="collect", retries=0
        )
        failure = results[2]
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "exception"
        assert failure.error_type == "TypeError"
        assert failure.attempts == 1
        assert [results[index] for index in (0, 1, 3)] == [0, 1, 9]


@pytest.fixture()
def ctypes_blas():
    control = blas._resolve_blas_control()
    if control is None or control[0] != "ctypes":
        pytest.skip("no ctypes OpenBLAS control surface")


@pytest.fixture()
def one_blas_thread():
    """Lower the parent's BLAS setting to 1 thread for one test."""
    previous = blas.get_threads()
    blas.set_threads(1)
    try:
        yield
    finally:
        blas.set_threads(previous)


@needs_fork
@pytest.mark.usefixtures("ctypes_blas")
@pytest.mark.parametrize("transport", TRANSPORTS)
class TestWorkerBlasBudget:
    """Each pool worker runs its CPU share of BLAS threads, never more."""

    def test_workers_get_their_cpu_share(self, transport):
        parent = blas.get_threads()
        share = min(parent, max(1, available_workers() // 2))
        assert set(_probe_map(transport)) == {share}
        assert blas.get_threads() == parent

    @pytest.mark.usefixtures("one_blas_thread")
    def test_a_lowered_parent_setting_is_never_raised(self, transport):
        assert set(_probe_map(transport)) == {1}
        assert blas.get_threads() == 1


def _one_worker_blas_threads():
    with backends._new_pool(1) as pool:
        return pool.submit(_worker_blas_threads, None).result(timeout=60)


@needs_fork
@pytest.mark.usefixtures("ctypes_blas")
class TestNewPool:
    def test_a_one_worker_pool_gets_every_cpu_up_to_the_parent(self):
        parent = blas.get_threads()
        assert _one_worker_blas_threads() == min(parent, available_workers())

    @pytest.mark.usefixtures("one_blas_thread")
    def test_a_one_worker_pool_keeps_a_lowered_parent_setting(self):
        assert _one_worker_blas_threads() == 1


def test_runtime_imports_nothing_from_nn():
    """BLAS control lives in repro.runtime.blas so the layering is one-way."""
    package = pathlib.Path(backends.__file__).parent
    imported = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module:
                imported.update(
                    f"{node.module}.{alias.name}" for alias in node.names
                )
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
    assert not {name for name in imported if name.startswith("repro.nn")}
