"""The pluggable executor backends (repro.runtime.backends).

Name resolution, the registry, plain/supervised parity across
serial/forked/persistent, persistent-pool reuse, the executor's
routing of every map through a backend, result shipping (large arrays,
unpicklable values) and each pool worker's BLAS thread budget.
"""

import ast
import pathlib
import threading
import time

import numpy as np
import pytest

from repro.runtime import backends, blas, faults
from repro.runtime.backends import (
    BACKEND_NAMES,
    BackendEvent,
    ForkedBackend,
    SerialBackend,
    get_backend,
    resolve_backend_name,
    shutdown_backends,
    validate_backend_name,
)
from repro.runtime.executor import (
    available_workers,
    fork_available,
    imap_tasks,
    map_tasks,
)
from repro.runtime.supervision import TaskFailure, supervised_map

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
def _clean_backends(monkeypatch):
    monkeypatch.delenv(backends.ENV_VAR, raising=False)
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.clear_faults()
    yield
    faults.clear_faults()
    shutdown_backends()


class TestNameResolution:
    @pytest.mark.parametrize("name", [None, "", "auto", "AUTO", " auto "])
    def test_auto_spellings_normalise_to_none(self, name):
        assert validate_backend_name(name) is None

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_known_names_pass_through(self, name):
        assert validate_backend_name(name) == name
        assert validate_backend_name(name.upper()) == name

    def test_unknown_name_rejected(self):
        for name in ("threads", "socket"):
            with pytest.raises(ValueError, match="unknown backend"):
                validate_backend_name(name)

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(backends.ENV_VAR, "persistent")
        assert resolve_backend_name("serial") == "serial"

    def test_env_var_applies_when_no_argument(self, monkeypatch):
        monkeypatch.setenv(backends.ENV_VAR, "serial")
        assert resolve_backend_name(None) == "serial"

    def test_default_is_auto(self):
        assert resolve_backend_name(None) == "forked"
        assert resolve_backend_name("auto") == "forked"

    def test_bad_env_var_raises(self, monkeypatch):
        monkeypatch.setenv(backends.ENV_VAR, "bogus")
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend_name(None)


class TestRegistry:
    def test_serial_and_forked_are_fresh_instances(self):
        assert get_backend("serial") is not get_backend("serial")
        assert get_backend("forked") is not get_backend("forked")
        assert isinstance(get_backend("serial"), SerialBackend)
        assert isinstance(get_backend("forked"), ForkedBackend)

    def test_persistent_is_a_singleton(self):
        assert get_backend("persistent") is get_backend("persistent")

    def test_shutdown_releases_singletons(self):
        first = get_backend("persistent")
        shutdown_backends()
        assert get_backend("persistent") is not first


class TestSerialBackend:
    def test_plain_map_matches_builtin(self):
        backend = SerialBackend()
        seen = []
        out = backend.map_ordered(
            _square, range(5), on_result=lambda i, v: seen.append((i, v))
        )
        assert out == [v * v for v in range(5)]
        assert seen == [(i, i * i) for i in range(5)]
        assert list(backend.imap_ordered(_square, range(5))) == out

    def test_supervised_cycle_emits_events_inline(self):
        backend = SerialBackend()
        backend.open(_square, [2, 3], workers=1)
        backend.submit(0, 1)
        backend.submit(1, 1)
        events = backend.poll(0.0)
        assert [(e.index, e.kind, e.value) for e in events] == [
            (0, "ok", 4), (1, "ok", 9),
        ]
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


@needs_fork
class TestForkedParity:
    def test_plain_map_matches_serial(self):
        forked = ForkedBackend().map_ordered(_square, range(12), workers=2)
        assert forked == [v * v for v in range(12)]

    def test_imap_matches_serial(self):
        out = list(
            ForkedBackend().imap_ordered(_square, range(12), workers=2)
        )
        assert out == [v * v for v in range(12)]

    def test_single_worker_falls_back_to_serial_path(self):
        assert ForkedBackend().map_ordered(_square, range(4), workers=1) == [
            0, 1, 4, 9,
        ]


@needs_fork
class TestPersistentBackend:
    def test_pool_survives_across_maps(self):
        backend = get_backend("persistent")
        assert backend.map_ordered(_square, range(8), workers=2) == [
            v * v for v in range(8)
        ]
        pool = backend._pool
        assert pool is not None
        assert backend.map_ordered(_square, range(8), workers=2) == [
            v * v for v in range(8)
        ]
        assert backend._pool is pool  # the warm pool was reused

    def test_pool_grows_for_a_larger_map(self):
        backend = get_backend("persistent")
        backend.map_ordered(_square, range(8), workers=2)
        first = backend._pool
        backend.map_ordered(_square, range(8), workers=3)
        assert backend._pool is not first
        assert backend._pool._max_workers >= 3

    def test_supervised_map_reuses_the_plain_pool(self):
        backend = get_backend("persistent")
        backend.map_ordered(_square, range(8), workers=2)
        pool = backend._pool
        out = supervised_map(
            _square, list(range(8)), workers=2, policy="retry", retries=1,
            backend="persistent",
        )
        assert out == [v * v for v in range(8)]
        assert get_backend("persistent")._pool is pool

    def test_shutdown_then_reuse_builds_a_fresh_pool(self):
        backend = get_backend("persistent")
        backend.map_ordered(_square, range(8), workers=2)
        shutdown_backends()
        assert get_backend("persistent").map_ordered(
            _square, range(8), workers=2
        ) == [v * v for v in range(8)]


class TestExecutorRouting:
    def test_map_tasks_backend_argument(self):
        assert map_tasks(_square, range(6), workers=2, backend="serial") == [
            v * v for v in range(6)
        ]

    def test_imap_tasks_backend_argument(self):
        assert list(
            imap_tasks(_square, range(6), workers=2, backend="serial")
        ) == [v * v for v in range(6)]

    def test_env_var_routes_plain_maps(self, monkeypatch):
        monkeypatch.setenv(backends.ENV_VAR, "serial")
        assert map_tasks(_square, range(6), workers=2) == [
            v * v for v in range(6)
        ]

    def test_bad_env_var_surfaces(self, monkeypatch):
        monkeypatch.setenv(backends.ENV_VAR, "bogus")
        with pytest.raises(ValueError, match="unknown backend"):
            map_tasks(_square, range(6), workers=2)

    def test_plain_maps_dispatch_through_forked_backend(self, monkeypatch):
        """With no backend named, plain maps take the ``forked`` loops."""
        calls = []
        original_map = ForkedBackend.map_ordered
        original_imap = ForkedBackend.imap_ordered

        def spy_map(self, *args, **kwargs):
            calls.append("map_ordered")
            return original_map(self, *args, **kwargs)

        def spy_imap(self, *args, **kwargs):
            calls.append("imap_ordered")
            return original_imap(self, *args, **kwargs)

        monkeypatch.setattr(ForkedBackend, "map_ordered", spy_map)
        monkeypatch.setattr(ForkedBackend, "imap_ordered", spy_imap)
        expected = [v * v for v in range(6)]
        assert map_tasks(_square, range(6), workers=2) == expected
        assert list(imap_tasks(_square, range(6), workers=2)) == expected
        assert calls == ["map_ordered", "imap_ordered"]

    @needs_fork
    def test_supervised_results_identical_across_backends(self):
        reference = supervised_map(
            _square, list(range(10)), workers=2, policy="retry", retries=1,
            backend="serial",
        )
        for name in ("forked", "persistent"):
            assert supervised_map(
                _square, list(range(10)), workers=2, policy="retry",
                retries=1, backend=name,
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


#: The pool transports: a plain forked map, a supervised forked map and
#: a plain map on the persistent backend's warm pool.
TRANSPORTS = ["plain", "supervised", "persistent"]


def _two_worker_map(transport, function, tasks, policy="retry", retries=2):
    """``function`` over ``tasks`` through one 2-worker map of ``transport``.

    ``policy`` and ``retries`` apply to the supervised transport only.
    """
    if transport == "plain":
        return ForkedBackend().map_ordered(function, tasks, workers=2)
    if transport == "supervised":
        return supervised_map(
            function, tasks, workers=2, policy=policy, retries=retries,
            backend="forked",
        )
    return get_backend("persistent").map_ordered(function, tasks, workers=2)


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

        A supervised map gets the executor's ``TypeError`` through
        ``ForkedBackend.poll``'s transport-failure branch and charges
        it like a task exception; a plain map raises it.
        """
        tasks = [0, 1, 2, 3]
        if transport != "supervised":
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

    def test_a_lowered_parent_setting_is_never_raised(self, transport):
        with blas.blas_thread_limit(1):
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

    def test_a_one_worker_pool_keeps_a_lowered_parent_setting(self):
        with blas.blas_thread_limit(1):
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
