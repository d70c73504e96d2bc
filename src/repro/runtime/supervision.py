"""Supervised task execution: failure envelopes, retries, timeouts, recovery.

:func:`supervise` is the one dispatch loop: the runtime's one map,
:func:`~repro.runtime.executor.map_tasks_resumable`, consumes it
directly, over one of two transports (:mod:`repro.runtime.backends`):
in-process, or a forked pool.  DeepN-JPEG targets edge/IoT deployments,
where preemption, OOM kills and transient failures are the norm, so a
failing, killed or hung task must cost only itself, never the sweep.
The supervisor provides:

* **Per-task error envelopes.**  Each task runs inside
  :func:`_run_envelope`; an exception becomes a :class:`TaskFailure`
  carrying the task index, error type/message, formatted traceback, the
  attempt count and (when picklable) the original exception — one
  failing cell never poisons its siblings.
* **Bounded immediate retries.**  A failed attempt is re-queued at once,
  up to ``retries`` times.  A retried task re-runs with exactly the same
  task payload, so a recovered sweep is bit-identical to a fault-free
  one.
* **Per-task timeouts with a hung-worker watchdog.**  Workers announce
  each task they start over a fork-inherited channel; the parent tracks
  deadlines and ``SIGKILL``\\ s the worker running a task past its
  ``task_timeout``.  The kill breaks the pool, which the recovery path
  below restarts; the timed-out task is charged one attempt.
* **Crash recovery.**  A worker that dies mid-task (``os._exit``, OOM
  kill, segfault) breaks the pool with
  :class:`~concurrent.futures.process.BrokenProcessPool`.  The
  supervisor classifies the in-flight tasks — dead worker's task:
  charged a ``worker-crash`` attempt; watchdog victims: charged a
  ``timeout`` attempt; bystanders: re-queued for free — then restarts
  the pool and re-dispatches only the unfinished tasks.  Completed
  results are never recomputed (and cells persisted through
  :func:`~repro.runtime.executor.map_tasks_resumable` survive even a
  supervisor crash).

Three error policies decide what happens when a task exhausts its
attempts: ``fail-fast`` (no retries; raise :class:`TaskError`
immediately), ``retry`` (retry, then raise), ``collect`` (retry, then
yield the :class:`TaskFailure` in the task's result slot so the sweep
finishes every healthy task).  No policy (``None``, the executor map's
default) is ``fail-fast`` that re-raises a failed task's own exception.

The pool requires the ``fork`` start method for its worker channel and
watchdog; without it, execution degrades to the in-process transport,
which still provides envelopes and retries (but cannot enforce timeouts
or survive crashes — there is no second process to kill).
Deterministic faults for testing all of this live in
:mod:`repro.runtime.faults`.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback as traceback_module
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.runtime import faults as faults_module
from repro.runtime.executor import effective_workers, fork_available

#: The error policies a supervised map understands.
POLICIES = ("fail-fast", "retry", "collect")

#: ``TaskFailure.kind`` values.
FAILURE_EXCEPTION = "exception"
FAILURE_TIMEOUT = "timeout"
FAILURE_CRASH = "worker-crash"

#: Supervisor poll interval (seconds): how often backend events are
#: drained and watchdog deadlines checked while attempts are in flight.
_TICK = 0.05


@dataclass(frozen=True)
class TaskFailure:
    """The error envelope of one task that exhausted its attempts.

    ``index`` is the task's position in the supervised map
    (:func:`~repro.runtime.executor.map_tasks_resumable`, which maps only
    the cache misses, rewrites it to the task's global position).
    ``error`` holds the original exception when it survived pickling,
    else ``None``; ``traceback`` is always a formatted string (empty for
    crashes and timeouts, which have no Python traceback to capture).
    """

    index: int
    kind: str
    error_type: str
    message: str
    attempts: int
    traceback: str = ""
    error: Optional[BaseException] = field(
        default=None, repr=False, compare=False
    )

    def describe(self) -> str:
        return (
            f"task {self.index} failed after {self.attempts} attempt(s) "
            f"[{self.kind}]: {self.error_type}: {self.message}"
        )

    def to_json(self) -> dict:
        """A JSON-able envelope (what the CLI's ``--json`` report emits).

        The live exception object does not survive JSON — only its
        type/message/traceback strings do — so ``from_json`` always
        reconstructs with ``error=None``; everything else round-trips
        exactly.
        """
        return {
            "index": self.index,
            "kind": self.kind,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "traceback": self.traceback,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "TaskFailure":
        return cls(
            index=int(payload["index"]),
            kind=str(payload["kind"]),
            error_type=str(payload["error_type"]),
            message=str(payload["message"]),
            attempts=int(payload["attempts"]),
            traceback=str(payload.get("traceback", "")),
        )


class TaskError(RuntimeError):
    """Raised under ``fail-fast``/``retry`` when a task's attempts run out.

    With no policy it is raised only for a failure that has no exception
    of its own to re-raise: a crash, or one that did not survive
    pickling.  Carries the :class:`TaskFailure` envelope as
    ``failure``; the original exception (when available) is chained as
    ``__cause__``.
    """

    def __init__(self, failure: TaskFailure) -> None:
        super().__init__(failure.describe())
        self.failure = failure


def _raise_task_error(failure: TaskFailure) -> None:
    raise TaskError(failure) from failure.error


def validate_policy(policy: str) -> str:
    if policy not in POLICIES:
        raise ValueError(
            f"unknown error policy {policy!r}; valid policies: {POLICIES}"
        )
    return policy


def _failure_from_exception(
    index: int, attempt: int, error: BaseException, kind: str = FAILURE_EXCEPTION
) -> TaskFailure:
    keep: Optional[BaseException] = error
    try:  # Only ship exceptions that survive a pickle round-trip.
        pickle.loads(pickle.dumps(error))
    except Exception:
        keep = None
    return TaskFailure(
        index=index,
        kind=kind,
        error_type=type(error).__name__,
        message=str(error),
        attempts=attempt,
        traceback="".join(
            traceback_module.format_exception(
                type(error), error, error.__traceback__
            )
        ),
        error=keep,
    )


# ----------------------------------------------------------------------
# Worker side.
# ----------------------------------------------------------------------

#: Fork-inherited start-marker channel.  The parent installs a queue here
#: before opening (or reopening) a pool; every worker announces
#: ``(pid, index, attempt, monotonic start time)`` before running a task,
#: which is what gives the watchdog per-task deadlines and the crash
#: recovery exact attribution.  Linux ``CLOCK_MONOTONIC`` is shared
#: across processes, so worker timestamps compare directly with the
#: parent's clock.
_START_CHANNEL = None


def _run_envelope(payload):
    """Module-level pool task: one supervised attempt of one task."""
    index, attempt, function, task = payload
    channel = _START_CHANNEL
    if channel is not None:
        channel.put((os.getpid(), index, attempt, time.monotonic()))
    try:
        faults_module.fire(index, attempt)
        value = function(task)
    except Exception as error:
        return ("failure", _failure_from_exception(index, attempt, error))
    return ("ok", value)


# ----------------------------------------------------------------------
# Supervisor.
# ----------------------------------------------------------------------

def supervise(
    function,
    tasks,
    workers: int = 1,
    policy: Optional[str] = "retry",
    retries: int = 2,
    task_timeout: Optional[float] = None,
):
    """Supervised map: yields ``(index, outcome)`` in completion order.

    ``outcome`` is the task's return value, or — only under the
    ``collect`` policy — a :class:`TaskFailure` for a task that
    exhausted its attempts.  Under ``fail-fast``/``retry`` exhaustion
    raises :class:`TaskError` instead (``fail-fast`` is ``retry`` with
    zero retries).  A failed attempt retries immediately, and at most
    two attempts per worker are in flight at once.

    ``policy=None``, the executor map's default, is ``fail-fast`` except
    that a task that raised re-raises its own exception — on a pool,
    chained to the worker's formatted traceback as
    :mod:`concurrent.futures` does.  A crash, or an exception that does
    not survive pickling, has none to re-raise and raises
    :class:`TaskError`.  With a ``task_timeout``, no policy means
    ``fail-fast``.

    The transport (:mod:`repro.runtime.backends`) is the in-process
    ``SerialBackend`` without ``fork``, or for one worker with no policy
    and no timeout; otherwise it is a ``ForkedBackend`` pool, even for
    one worker, because process isolation is the point of a policy or a
    timeout: a crash or a kill must take out a worker, never the
    supervisor.  In-process, envelopes and retries work but timeouts and
    crash recovery do not: there is no second process to kill.  The
    retry, timeout, crash-classification and policy semantics here are
    transport-independent; only event *production* differs.

    Requires a picklable module-level ``function`` on the pool.
    """
    if policy is None and task_timeout is not None:
        policy = "fail-fast"
    if policy is not None:
        validate_policy(policy)
    if retries < 0:
        raise ValueError(f"retries must be non-negative, got {retries}")
    if task_timeout is not None and task_timeout <= 0:
        raise ValueError(
            f"task_timeout must be positive, got {task_timeout}"
        )
    # A REPRO_FAULTS typo must abort here — before any task runs — not
    # mid-sweep inside a worker.
    faults_module.validate_active_faults()
    tasks = list(tasks)
    max_attempts = 1 + (retries if policy in ("retry", "collect") else 0)
    if not tasks:
        return
    from repro.runtime.backends import ForkedBackend, SerialBackend

    count = effective_workers(workers, task_count=len(tasks))
    if not fork_available() or (policy is None and count == 1):
        impl = SerialBackend()
    else:
        impl = ForkedBackend()
    yield from _supervise_backend(
        impl, function, tasks, count, policy, max_attempts, task_timeout
    )


def _supervise_backend(
    impl, function, tasks, count, policy, max_attempts, task_timeout
):
    """The backend-independent supervisor loop.

    Drives one :class:`~repro.runtime.backends.ExecutorBackend` through
    ``open``/``submit``/``poll``/``close``, owning everything that must
    behave identically across transports: the FIFO queue of
    ``(index, attempt)`` pairs, the in-flight cap of ``2 * count``
    attempts, attempt accounting per event kind (``ok`` yields,
    ``failure`` charges an attempt, ``lost`` re-queues free), watchdog
    deadlines via ``running()``/``kill()``, and the error policies
    (none, fail-fast, retry, collect).

    Stale events — a late delivery for an attempt that is no longer in
    flight — are dropped; idempotent task payloads make the drop safe.
    """
    pending = deque((index, 1) for index in range(len(tasks)))
    in_flight: dict = {}   # index -> attempt
    timed_out: set = set()
    capacity = 2 * count

    def handle_failure(index, attempt, failure):
        """Charge one failed attempt; returns the outcome to yield, if any."""
        if attempt < max_attempts:
            pending.append((index, attempt + 1))
            return None
        if policy == "collect":
            return failure
        if policy is None and failure.error is not None:
            raise failure.error  # no policy: the task's own exception
        _raise_task_error(failure)

    completed = False
    impl.open(function, tasks, count)
    try:
        while pending or in_flight:
            while pending and len(in_flight) < capacity:
                index, attempt = pending.popleft()
                in_flight[index] = attempt
                impl.submit(index, attempt)
            for event in impl.poll(_TICK):
                if in_flight.get(event.index) != event.attempt:
                    continue  # stale: this attempt already resolved
                del in_flight[event.index]
                timed_out.discard(event.index)
                if event.kind == "ok":
                    yield event.index, event.value
                elif event.kind == "failure":
                    outcome = handle_failure(
                        event.index, event.attempt, event.failure
                    )
                    if outcome is not None:
                        yield event.index, outcome
                else:  # "lost": never completed, through no fault of the task
                    pending.append((event.index, event.attempt))
            if task_timeout is not None:
                _enforce_deadlines(
                    impl.running(), timed_out, task_timeout,
                    time.monotonic(), impl.kill,
                )
        completed = True
    finally:
        impl.close(graceful=completed)


def _enforce_deadlines(running, timed_out, task_timeout, now, kill) -> None:
    """Kill any running task past its deadline (at most once per attempt).

    ``running`` is the backend's ``{index: started_at}`` view and
    ``kill`` its kill method; how a kill is effected is the backend's
    business (a pool backend SIGKILLs the worker).  The backend then
    emits a ``timeout`` failure event, which charges the victim one
    attempt; ``timed_out`` stops repeat kills while that event is still
    in flight.
    """
    for index, started_at in list(running.items()):
        if index in timed_out or now - started_at <= task_timeout:
            continue
        if kill(index):
            timed_out.add(index)
