"""The supervised runtime: envelopes, retries, timeouts, crash recovery."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runtime import faults, supervision
from repro.runtime.backends import SerialBackend
from repro.runtime.executor import (
    CACHE_MISS,
    fork_available,
    map_tasks_resumable,
)
from repro.runtime.faults import InjectedFault
from repro.runtime.supervision import (
    FAILURE_CRASH,
    FAILURE_EXCEPTION,
    FAILURE_TIMEOUT,
    TaskError,
    TaskFailure,
    supervise,
)
from tests.runtime.helpers import plain_map

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method required"
)

#: Tight-but-safe watchdog budget for the hang tests: the injected hang
#: sleeps far longer (10 s), so the only way a test passes quickly is the
#: watchdog actually killing the worker.
TIMEOUT = 0.75
HANG = "10"


def _square(value):
    return value * value


def _raise_on_negative(value):
    if value < 0:
        raise ValueError(f"negative input {value}")
    return value * value


#: A 2-worker map whose task 3 kills its own worker, once, while that
#: worker holds the start channel's write lock, as a kill landing inside
#: a start-marker put does.  It prints the map's results.
LOCK_HOLDER_MAP = """
import os, signal, sys
from repro.runtime import supervision
from tests.runtime.helpers import plain_map

def task(value):
    if value == 3 and not os.path.exists(sys.argv[1]):
        open(sys.argv[1], "w").close()
        supervision._START_CHANNEL._wlock.acquire()
        os.kill(os.getpid(), signal.SIGKILL)
    return value * value

print(plain_map(task, range(6), workers=2, policy="retry", retries=2))
"""


@pytest.fixture(autouse=True)
def _no_leaked_faults(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.clear_faults()
    yield
    faults.clear_faults()


class TestValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            list(supervise(_square, [1], policy="nope"))

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            list(supervise(_square, [1], retries=-1))

    def test_non_positive_timeout_rejected(self):
        with pytest.raises(ValueError, match="task_timeout"):
            list(supervise(_square, [1], task_timeout=0))

    def test_empty_tasks_yield_nothing(self):
        assert list(supervise(_square, [])) == []
        assert plain_map(_square, []) == []


class TestFailureEnvelope:
    def test_describe_names_task_kind_and_error(self):
        failure = TaskFailure(
            index=4, kind=FAILURE_EXCEPTION, error_type="ValueError",
            message="boom", attempts=3,
        )
        text = failure.describe()
        assert "task 4" in text and "3 attempt(s)" in text
        assert "ValueError" in text and "boom" in text

    def test_task_error_carries_failure_and_cause(self):
        original = ValueError("boom")
        failure = supervision._failure_from_exception(2, 1, original)
        assert failure.error is not None  # picklable exceptions ride along
        with pytest.raises(TaskError) as exc_info:
            supervision._raise_task_error(failure)
        assert exc_info.value.failure is failure
        assert isinstance(exc_info.value.__cause__, ValueError)

    def test_unpicklable_exception_is_dropped_but_described(self):
        error = ValueError("boom")
        error.payload = lambda: None  # closures don't pickle
        failure = supervision._failure_from_exception(0, 1, error)
        assert failure.error is None
        assert failure.error_type == "ValueError"
        assert failure.message == "boom"
        assert "ValueError" in failure.traceback


@needs_fork
class TestPoolParity:
    def test_matches_plain_map(self):
        tasks = list(range(8))
        expected = [_square(t) for t in tasks]
        for workers in (1, 2):
            for policy in ("fail-fast", "retry", "collect"):
                assert plain_map(
                    _square, tasks, workers=workers, policy=policy
                ) == expected

    def test_on_result_fires_once_per_task(self):
        seen = []
        plain_map(
            _square, list(range(8)), workers=2, policy="retry",
            on_result=lambda index, value: seen.append((index, value)),
        )
        assert sorted(seen) == [(i, i * i) for i in range(8)]


@needs_fork
class TestRetries:
    def test_transient_fault_recovers_identically(self):
        with faults.injected("raise:3:1"):
            out = plain_map(
                _square, list(range(6)), workers=2, policy="retry", retries=2
            )
        assert out == [_square(t) for t in range(6)]

    def test_fail_fast_never_retries(self):
        with faults.injected("raise:3:1"):
            with pytest.raises(TaskError) as exc_info:
                plain_map(
                    _square, list(range(6)), workers=2,
                    policy="fail-fast", retries=5,
                )
        failure = exc_info.value.failure
        assert failure.index == 3
        assert failure.attempts == 1
        assert failure.kind == FAILURE_EXCEPTION
        assert isinstance(exc_info.value.__cause__, InjectedFault)

    def test_retry_exhaustion_raises_with_attempt_count(self):
        with faults.injected("raise:2:0"):  # permanent
            with pytest.raises(TaskError) as exc_info:
                plain_map(
                    _square, list(range(4)), workers=2,
                    policy="retry", retries=1,
                )
        assert exc_info.value.failure.attempts == 2

    def test_collect_yields_envelope_in_failed_slot(self):
        with faults.injected("raise:2:0"):
            out = plain_map(
                _square, list(range(5)), workers=2,
                policy="collect", retries=1,
            )
        assert [out[i] for i in (0, 1, 3, 4)] == [0, 1, 9, 16]
        failure = out[2]
        assert isinstance(failure, TaskFailure)
        assert failure.index == 2
        assert failure.attempts == 2
        assert failure.error_type == "InjectedFault"

    def test_on_result_skips_failures(self):
        seen = []
        with faults.injected("raise:1:0"):
            plain_map(
                _square, list(range(4)), workers=2,
                policy="collect", retries=0,
                on_result=lambda index, value: seen.append(index),
            )
        assert sorted(seen) == [0, 2, 3]

    def test_failed_attempts_retry_immediately(self):
        started = time.monotonic()
        with faults.injected("raise:1:1,raise:1:2"):
            out = plain_map(
                _square, list(range(3)), workers=2,
                policy="retry", retries=2,
            )
        assert out == [0, 1, 4]
        # The two retried attempts are re-submitted at once; a
        # 2-second-per-retry wait would blow this budget.
        assert time.monotonic() - started < 5.0


@needs_fork
class TestCrashRecovery:
    def test_worker_crash_recovers_under_retry(self):
        with faults.injected("exit:3:1"):
            out = plain_map(
                _square, list(range(6)), workers=2, policy="retry", retries=2
            )
        assert out == [_square(t) for t in range(6)]

    def test_worker_crash_fail_fast_names_task(self):
        with faults.injected("exit:0:1"):
            with pytest.raises(TaskError) as exc_info:
                plain_map(
                    _square, list(range(4)), workers=2, policy="fail-fast"
                )
        failure = exc_info.value.failure
        assert failure.kind == FAILURE_CRASH
        assert failure.index == 0
        assert str(faults.EXIT_CODE) in failure.message

    def test_permanent_crash_collected(self):
        with faults.injected("exit:1:0"):
            out = plain_map(
                _square, list(range(4)), workers=2,
                policy="collect", retries=1,
            )
        assert isinstance(out[1], TaskFailure)
        assert out[1].kind == FAILURE_CRASH
        assert out[1].attempts == 2
        assert [out[i] for i in (0, 2, 3)] == [0, 4, 9]

    def test_runtime_survives_for_subsequent_maps(self):
        with faults.injected("exit:2:0"):
            with pytest.raises(TaskError):
                plain_map(
                    _square, list(range(4)), workers=2,
                    policy="retry", retries=0,
                )
        # The broken pool must not wedge the next (default or named-policy) map.
        assert plain_map(_square, range(4), workers=2) == [0, 1, 4, 9]
        assert plain_map(
            _square, range(4), workers=2, policy="retry"
        ) == [0, 1, 4, 9]

    def test_worker_killed_holding_the_start_lock_does_not_wedge_the_restart(
        self, tmp_path
    ):
        # The map runs in a process group of its own, so a restarted pool
        # that blocks on the dead worker's lock fails this test at the
        # time limit, and its workers are killed, instead of hanging.
        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(root / "src"), str(root), env.get("PYTHONPATH"),
        ]))
        child = subprocess.Popen(
            [sys.executable, "-c", LOCK_HOLDER_MAP, str(tmp_path / "killed")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail("the restarted pool blocked on the dead worker's lock")
        assert child.returncode == 0, err
        assert out == f"{[value * value for value in range(6)]}\n"


@needs_fork
class TestTimeouts:
    def test_hung_task_recovers_under_retry(self):
        with faults.injected(f"hang:2:1:{HANG}"):
            out = plain_map(
                _square, list(range(4)), workers=2,
                policy="retry", retries=1, task_timeout=TIMEOUT,
            )
        assert out == [_square(t) for t in range(4)]

    def test_hung_task_fail_fast_is_a_timeout_failure(self):
        with faults.injected(f"hang:1:1:{HANG}"):
            with pytest.raises(TaskError) as exc_info:
                plain_map(
                    _square, list(range(3)), workers=2,
                    policy="fail-fast", task_timeout=TIMEOUT,
                )
        failure = exc_info.value.failure
        assert failure.kind == FAILURE_TIMEOUT
        assert failure.index == 1
        assert "timeout" in failure.message

    def test_permanent_hang_collected(self):
        with faults.injected(f"hang:0:0:{HANG}"):
            out = plain_map(
                _square, list(range(3)), workers=2,
                policy="collect", retries=1, task_timeout=TIMEOUT,
            )
        assert isinstance(out[0], TaskFailure)
        assert out[0].kind == FAILURE_TIMEOUT
        assert out[0].attempts == 2
        assert out[1:] == [1, 4]


class TestSerialFallback:
    @pytest.fixture(autouse=True)
    def _no_fork(self, monkeypatch):
        monkeypatch.setattr(supervision, "fork_available", lambda: False)

    def test_retries_and_results_without_fork(self):
        with faults.injected("raise:2:1"):
            out = plain_map(
                _square, list(range(4)), workers=2, policy="retry", retries=1
            )
        assert out == [0, 1, 4, 9]

    def test_collect_without_fork(self):
        with faults.injected("raise:1:0"):
            out = plain_map(
                _square, list(range(3)), workers=2,
                policy="collect", retries=0,
            )
        assert isinstance(out[1], TaskFailure)
        assert out[1].error_type == "InjectedFault"

    def test_fail_fast_without_fork(self):
        with faults.injected("raise:0:1"):
            with pytest.raises(TaskError):
                plain_map(_square, [1, 2], policy="fail-fast")


@needs_fork
class TestExecutorIntegration:
    def test_map_tasks_policy_engages_supervision(self):
        with faults.injected("raise:1:1"):
            out = plain_map(
                _square, range(4), workers=2, policy="retry", retries=1
            )
        assert out == [0, 1, 4, 9]

    def test_map_tasks_default_path_raises_fault(self):
        # With no policy the task's own exception surfaces, not TaskError.
        with faults.injected("raise:1:0"):
            with pytest.raises(InjectedFault):
                plain_map(_square, range(4), workers=2)

    def test_timeout_alone_engages_supervision(self):
        with faults.injected(f"hang:1:1:{HANG}"):
            with pytest.raises(TaskError) as exc_info:
                plain_map(
                    _square, range(3), workers=2, task_timeout=TIMEOUT
                )
        assert exc_info.value.failure.kind == FAILURE_TIMEOUT

    def test_resumable_collect_rewrites_global_indices(self):
        # Global tasks 1 and 3 fail; 2 is cached, so supervision sees the
        # subset [0, 1, 3] with local failure indices 1 and 2.  The
        # returned envelopes must name the *global* positions.
        tasks = [1, -1, 2, -1]
        cached = [CACHE_MISS, CACHE_MISS, 99, CACHE_MISS]
        persisted = []
        out = map_tasks_resumable(
            _raise_on_negative, tasks, cached, workers=2,
            on_result=lambda index, value: persisted.append(index),
            policy="collect", retries=0,
        )
        assert out[0] == 1 and out[2] == 99
        assert isinstance(out[1], TaskFailure) and out[1].index == 1
        assert isinstance(out[3], TaskFailure) and out[3].index == 3
        assert persisted == [0]  # failures and cache hits never persist

    def test_resumable_raised_error_rewrites_global_index(self):
        tasks = [1, 2, -1, 3]
        cached = [1, CACHE_MISS, CACHE_MISS, CACHE_MISS]
        with pytest.raises(TaskError) as exc_info:
            map_tasks_resumable(
                _raise_on_negative, tasks, cached, workers=2,
                policy="retry", retries=0,
            )
        assert exc_info.value.failure.index == 2  # subset-local was 1
        assert "task 2" in str(exc_info.value)


class _QueueDepthBackend(SerialBackend):
    """The serial transport, recording the most attempts queued at once."""

    deepest = 0

    def submit(self, index, attempt):
        super().submit(index, attempt)
        self.deepest = max(self.deepest, len(self._queue))


class TestInFlightCap:
    @pytest.mark.parametrize("count", [1, 3])
    def test_at_most_two_attempts_per_worker(self, count):
        backend = _QueueDepthBackend()
        outcomes = supervision._supervise_backend(
            backend, _square, list(range(10)), count, policy=None,
            max_attempts=1, task_timeout=None,
        )
        assert sorted(outcomes) == [(i, i * i) for i in range(10)]
        assert backend.deepest == 2 * count


class TestEnforceDeadlines:
    def test_kills_only_past_deadline_and_only_once(self):
        killed = []
        running = {0: 100.0, 1: 104.0}
        timed_out = set()

        def kill(index):
            killed.append(index)
            return True

        supervision._enforce_deadlines(
            running, timed_out, task_timeout=2.0, now=103.0, kill=kill
        )
        assert killed == [0]  # task 1 is only 0s in; task 0 is 3s in
        assert timed_out == {0}
        supervision._enforce_deadlines(
            running, timed_out, task_timeout=2.0, now=104.0, kill=kill
        )
        assert killed == [0]  # no repeat kill while the event is in flight

    def test_failed_kill_retries_next_tick(self):
        attempts = []

        def kill(index):
            attempts.append(index)
            return len(attempts) > 1  # first attempt misses

        timed_out = set()
        supervision._enforce_deadlines(
            {5: 0.0}, timed_out, task_timeout=1.0, now=10.0, kill=kill
        )
        assert timed_out == set()  # not marked: the kill was not issued
        supervision._enforce_deadlines(
            {5: 0.0}, timed_out, task_timeout=1.0, now=10.0, kill=kill
        )
        assert attempts == [5, 5]
        assert timed_out == {5}


@needs_fork
class TestTimeoutEdges:
    def test_timeout_shorter_than_poll_interval_still_enforced(self):
        # The supervisor polls in ~0.25 s slices; a 0.1 s deadline must
        # still kill the hang rather than quantise away.
        with faults.injected(f"hang:0:1:{HANG}"):
            out = plain_map(
                _square, [7], workers=2,
                policy="retry", retries=1, task_timeout=0.1,
            )
        assert out == [49]

    def test_timeout_on_final_attempt_raises_timeout_error(self):
        # Attempt 1 hangs AND the retry hangs: the last attempt's
        # timeout must surface as a FAILURE_TIMEOUT TaskError, not hang
        # the supervisor or misreport as a crash.
        with faults.injected(f"hang:0:1:{HANG},hang:0:2:{HANG}"):
            with pytest.raises(TaskError) as exc_info:
                plain_map(
                    _square, [3], workers=2,
                    policy="retry", retries=1, task_timeout=TIMEOUT,
                )
        failure = exc_info.value.failure
        assert failure.kind == FAILURE_TIMEOUT
        assert failure.attempts == 2
        assert "timeout" in failure.message
