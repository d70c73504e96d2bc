"""The two transports the supervisor drives: in-process and a forked pool.

The runtime's one map,
:func:`repro.runtime.executor.map_tasks_resumable`, runs through the
supervisor (:func:`repro.runtime.supervision.supervise`), which drives
one of these backends, so the *policy* layer (retries, timeouts, crash
classification, error policies) is written once and runs identically
over both:

:class:`SerialBackend`
    The in-process loop, one task attempt per ``poll``.  There is no
    second process to kill, so timeouts and crash recovery do not apply.
:class:`ForkedBackend`
    A forked pool per map, built by :func:`_new_pool` (which sets each
    worker's BLAS thread count to its share of the CPUs), with start
    markers, hung-worker watchdog kills and broken-pool recovery.

The supervisor picks :class:`SerialBackend` when ``fork`` is unavailable
or when one worker runs with no error policy and no timeout, and
:class:`ForkedBackend` otherwise.  The choice is *transport only*: both
map the same task payloads (with their per-task seeds) through the same
functions, so results — and therefore store addresses via
``task_key()`` — are bit-identical.

The interface is event-driven: the supervisor calls
``open(function, tasks, workers)``, then ``submit(index, attempt)`` /
``poll(timeout) -> [BackendEvent]`` in a loop, consulting ``running()``
for watchdog deadlines and ``kill(index)`` to enforce them, and finally
``close(graceful)``.  An event is ``ok`` (a result), ``failure`` (one
*charged* attempt: exception, timeout or crash envelope) or ``lost``
(the attempt never completed through no fault of the task — a bystander
of a pool break — and is re-queued without charge).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool, _RemoteTraceback
from dataclasses import dataclass
from typing import Optional

from repro.runtime import blas, supervision
from repro.runtime.executor import available_workers
from repro.runtime.supervision import (
    FAILURE_CRASH,
    FAILURE_TIMEOUT,
    TaskFailure,
    _failure_from_exception,
    _run_envelope,
)


@dataclass
class BackendEvent:
    """One completion event from a backend's supervised ``poll``.

    ``kind`` is ``"ok"`` (``value`` holds the result), ``"failure"``
    (``failure`` holds the envelope; the supervisor charges the attempt)
    or ``"lost"`` (the attempt never ran to completion through no fault
    of the task — the supervisor re-queues it without charging).
    """

    index: int
    attempt: int
    kind: str
    value: object = None
    failure: Optional[TaskFailure] = None


def _envelope_event(index: int, attempt: int, outcome) -> BackendEvent:
    """The event for one finished execution envelope ``(status, value)``."""
    status, value = outcome
    if status == "ok":
        return BackendEvent(index, attempt, "ok", value=value)
    return BackendEvent(index, attempt, "failure", failure=value)


def _pooled_event(index: int, attempt: int, outcome) -> BackendEvent:
    """:func:`_envelope_event` for an envelope that came back from a worker.

    Pickling drops a task exception's traceback, so, as
    :mod:`concurrent.futures` does for a raising pool task, the worker's
    formatted traceback is chained on as the exception's ``__cause__``.
    """
    event = _envelope_event(index, attempt, outcome)
    if event.failure is not None and event.failure.error is not None:
        event.failure.error.__cause__ = _RemoteTraceback(
            f'\n"""\n{event.failure.traceback}"""'
        )
    return event


class ExecutorBackend:
    """The transport interface both backends implement.

    One map is one ``open``/``submit``/``poll``/``running``/``kill``/
    ``close`` cycle, described in the module docstring.
    """

    def open(self, function, tasks, workers: int) -> None:
        raise NotImplementedError

    def submit(self, index: int, attempt: int) -> None:
        raise NotImplementedError

    def poll(self, timeout: float) -> "list[BackendEvent]":
        raise NotImplementedError

    def running(self) -> "dict[int, float]":
        """``{task index: monotonic start time}`` of started attempts.

        Only tasks that appear here are subject to the watchdog; a
        backend that cannot observe task starts returns ``{}`` and
        timeouts are simply not enforced (the serial transport).
        """
        return {}

    def kill(self, index: int) -> bool:
        """Forcibly stop a running task; ``True`` if a kill was issued."""
        return False

    def close(self, graceful: bool = True) -> None:
        """End one map, releasing everything it opened."""


# ----------------------------------------------------------------------
# serial
# ----------------------------------------------------------------------

class SerialBackend(ExecutorBackend):
    """In-process execution, one task attempt per :meth:`poll`.

    ``submit`` only queues an attempt; each ``poll`` runs the oldest one
    through the execution envelope and returns its event.  So, as in a
    plain loop, each result reaches the supervisor's consumer (the
    experiment store's recorder) before the next task starts, and an
    interrupt in one task never loses the task before it.
    :meth:`running` stays empty because there is no second process to
    kill, so timeouts are not enforced.
    """

    def __init__(self) -> None:
        self._function = None
        self._tasks: list = []
        self._queue: deque = deque()

    def open(self, function, tasks, workers: int) -> None:
        self._function = function
        self._tasks = list(tasks)
        self._queue = deque()

    def submit(self, index: int, attempt: int) -> None:
        self._queue.append((index, attempt))

    def poll(self, timeout: float) -> "list[BackendEvent]":
        if not self._queue:
            return []
        index, attempt = self._queue.popleft()
        outcome = _run_envelope(
            (index, attempt, self._function, self._tasks[index])
        )
        return [_envelope_event(index, attempt, outcome)]

    def close(self, graceful: bool = True) -> None:
        self._function = None
        self._tasks = []
        self._queue = deque()


# ----------------------------------------------------------------------
# forked
# ----------------------------------------------------------------------

def _new_pool(count: int) -> ProcessPoolExecutor:
    """A fresh ``count``-worker fork pool; every pool in ``src/`` is built here.

    A forked worker inherits the parent's BLAS thread pool, sized for
    every CPU, so ``count`` workers would run ``count`` times as many BLAS
    threads as there are CPUs.  Each worker therefore starts by setting
    its own count to its CPU share, ``available_workers() // count`` (at
    least 1), capped at the parent's setting so a caller who lowered it
    is never raised.  Reading the parent's setting here also resolves
    the control handle before the fork, so workers inherit it rather
    than probing again; the parent's own setting is left as it is.
    Lint rule R7 keeps pool construction in this one function.
    """
    parent = blas.get_threads()
    threads = None
    if parent is not None:
        threads = min(parent, max(1, available_workers() // count))
    return ProcessPoolExecutor(
        max_workers=count,
        mp_context=multiprocessing.get_context("fork"),
        initializer=blas.set_threads,
        initargs=(threads,),
    )


def _terminate_pool(pool) -> None:
    """Hard-stop a pool: SIGKILL every worker, never wait on them.

    Used on abnormal exits (fail-fast raise, consumer close,
    KeyboardInterrupt) and after a break, where a graceful shutdown
    could block forever behind a hung worker.
    """
    for process in list(getattr(pool, "_processes", {}).values()):
        try:
            os.kill(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _pool_is_broken(pool) -> bool:
    return bool(getattr(pool, "_broken", False))


def _reap_exitcode(process, timeout: float = 0.5):
    """The worker's exit status, waiting briefly for the OS to reap it.

    A ``BrokenProcessPool`` can surface before the dead child is
    waitable, in which case a bare ``exitcode`` read (a non-blocking
    ``waitpid``) still reports ``None``; the short join closes that race
    so crash classification sees the real exit status.  The executor's
    own thread reaps a broken pool's children too: when its ``waitpid``
    wins, ours fails and the status reaches the shared process object a
    moment later, so the read is retried until the same deadline.
    """
    if process is None:
        return None
    deadline = time.monotonic() + timeout
    process.join(timeout=timeout)
    while process.exitcode is None and time.monotonic() < deadline:
        time.sleep(0.001)
    return process.exitcode


def _worker_died_abnormally(record, worker_pids) -> bool:
    if record is None:
        return False
    pid, _ = record
    process = worker_pids.get(pid)
    if process is None:
        return False
    exitcode = _reap_exitcode(process)
    return exitcode is not None and exitcode not in (0, -signal.SIGTERM)


def _crash_failure(index, attempt, pid, worker_pids) -> TaskFailure:
    exitcode = _reap_exitcode(worker_pids.get(pid))
    return TaskFailure(
        index=index,
        kind=FAILURE_CRASH,
        error_type="BrokenProcessPool",
        message=(
            f"worker pid {pid} died while running this task "
            f"(exit status {exitcode}); the pool was restarted and "
            f"unfinished tasks re-dispatched"
        ),
        attempts=attempt,
    )


def _timeout_failure(index, attempt) -> TaskFailure:
    return TaskFailure(
        index=index,
        kind=FAILURE_TIMEOUT,
        error_type="TimeoutError",
        message=(
            "task exceeded its timeout; its worker was killed "
            "and the pool restarted"
        ),
        attempts=attempt,
    )


class ForkedBackend(ExecutorBackend):
    """A forked process pool per map.

    A fork-inherited start-marker channel tells the parent which worker
    runs which attempt, which drives the hung-worker watchdog kills and
    the broken-pool recovery with crash classification; bystanders of a
    break are re-queued free (reported to the supervisor as ``lost``
    events).  The pool is forked lazily at the first ``submit`` and shut
    down at ``close``.
    """

    #: Safety valve: a pool that keeps breaking without any task being
    #: attributable (a pathologically unstable host) eventually
    #: re-raises instead of restarting forever.
    MAX_UNATTRIBUTED_RESTARTS = 8

    def __init__(self) -> None:
        self._pool = None
        self._channel = None
        self._previous_channel = None
        self._function = None
        self._tasks: list = []
        self._count = 1
        self._futures: dict = {}       # future -> (index, attempt)
        self._running: dict = {}       # index -> (pid, started_at)
        self._timed_out: set = set()   # watchdog victims (this generation)
        self._worker_pids: dict = {}   # pid -> Process (this generation)
        self._broken_submits: list = []
        self._unattributed_restarts = 0

    def open(self, function, tasks, workers: int) -> None:
        self._function = function
        self._tasks = list(tasks)
        self._count = max(int(workers), 1)
        self._futures = {}
        self._running = {}
        self._timed_out = set()
        self._broken_submits = []
        self._unattributed_restarts = 0
        self._previous_channel = supervision._START_CHANNEL

    def _ensure_pool(self):
        if self._pool is None:
            # Each pool gets its own start channel, set as the global its
            # workers read at fork time (pools fork at the first submit).
            # A worker killed inside a put leaves the channel's write lock
            # held, so a channel shared with the next pool would block
            # every one of its workers at their first put.
            self._channel = multiprocessing.get_context("fork").SimpleQueue()
            supervision._START_CHANNEL = self._channel
            self._pool = _new_pool(self._count)
            self._running.clear()
            self._timed_out.clear()
            self._worker_pids = {}
        return self._pool

    def _discard_pool(self) -> None:
        if self._pool is not None:
            _terminate_pool(self._pool)
        self._pool = None
        self._worker_pids = {}
        self._running.clear()
        self._timed_out.clear()
        if self._channel is not None:
            self._channel.close()
            self._channel = None
        supervision._START_CHANNEL = self._previous_channel

    def submit(self, index: int, attempt: int) -> None:
        pool = self._ensure_pool()
        try:
            future = pool.submit(
                _run_envelope,
                (index, attempt, self._function, self._tasks[index]),
            )
        except BrokenProcessPool:
            # The pool broke between two submissions; the attempt never
            # ran, so poll()'s recovery reports it lost (re-queued free).
            self._broken_submits.append((index, attempt))
            return
        self._futures[future] = (index, attempt)
        self._worker_pids.update(getattr(pool, "_processes", None) or {})

    def poll(self, timeout: float) -> "list[BackendEvent]":
        events: "list[BackendEvent]" = []
        broken = bool(self._broken_submits)
        if self._futures and not broken:
            done, _ = wait(
                set(self._futures), timeout=timeout,
                return_when=FIRST_COMPLETED,
            )
            self._drain_start_markers()
            for future in done:
                index, attempt = self._futures.pop(future)
                error = future.exception()
                if not isinstance(error, BrokenProcessPool):
                    # Keep the running record of broken futures: crash
                    # classification needs to know which worker was
                    # running which task.
                    self._running.pop(index, None)
                    self._timed_out.discard(index)
                if error is None:
                    events.append(
                        _pooled_event(index, attempt, future.result())
                    )
                elif isinstance(error, BrokenProcessPool):
                    # Classified below with the rest of the in-flight set.
                    broken = True
                    self._futures[future] = (index, attempt)
                elif isinstance(error, (KeyboardInterrupt, SystemExit)):
                    raise error
                else:
                    # The envelope caught task exceptions, so this is a
                    # transport failure (e.g. an unpicklable result):
                    # charge the attempt with the executor's exception.
                    events.append(
                        BackendEvent(
                            index, attempt, "failure",
                            failure=_failure_from_exception(
                                index, attempt, error
                            ),
                        )
                    )
        if broken or (self._pool is not None and _pool_is_broken(self._pool)):
            events.extend(self._recover_break())
        return events

    def _recover_break(self) -> "list[BackendEvent]":
        """Classify a broken pool's in-flight attempts and restart.

        Completed results are harvested first (a finished task must
        never be re-run), then every unfinished ``(index, attempt)`` is
        attributed: watchdog victims get a ``timeout`` failure event,
        tasks whose recorded worker died *abnormally* (an exit status
        that is neither a clean 0 nor the executor's own SIGTERM
        teardown of bystanders) a ``worker-crash`` failure event, and
        everything else — queued tasks, bystanders — a free ``lost``
        event.  If nothing is attributable (stdlib teardown details
        vary), every *started* task is blamed instead: over-charging a
        bystander costs one deterministic re-run, while under-charging
        could restart forever.
        """
        events: "list[BackendEvent]" = []
        for future in [f for f in self._futures if f.done()]:
            if future.exception() is None:
                index, attempt = self._futures.pop(future)
                self._running.pop(index, None)
                self._timed_out.discard(index)
                events.append(
                    _pooled_event(index, attempt, future.result())
                )
        self._drain_start_markers()
        charged = False
        deferred = []
        for future, (index, attempt) in list(self._futures.items()):
            if index in self._timed_out:
                charged = True
                events.append(
                    BackendEvent(
                        index, attempt, "failure",
                        failure=_timeout_failure(index, attempt),
                    )
                )
            elif _worker_died_abnormally(
                self._running.get(index), self._worker_pids
            ):
                charged = True
                pid = self._running[index][0]
                events.append(
                    BackendEvent(
                        index, attempt, "failure",
                        failure=_crash_failure(
                            index, attempt, pid, self._worker_pids
                        ),
                    )
                )
            else:
                deferred.append((index, attempt))
        if not charged and deferred:
            # Fall back: blame every task that had actually started.
            still_deferred = []
            for index, attempt in deferred:
                if index in self._running:
                    charged = True
                    pid = self._running[index][0]
                    events.append(
                        BackendEvent(
                            index, attempt, "failure",
                            failure=_crash_failure(
                                index, attempt, pid, self._worker_pids
                            ),
                        )
                    )
                else:
                    still_deferred.append((index, attempt))
            deferred = still_deferred
        for index, attempt in deferred:
            events.append(BackendEvent(index, attempt, "lost"))
        for index, attempt in self._broken_submits:
            events.append(BackendEvent(index, attempt, "lost"))
        self._broken_submits = []
        if not charged:
            self._unattributed_restarts += 1
            if self._unattributed_restarts > self.MAX_UNATTRIBUTED_RESTARTS:
                raise BrokenProcessPool(
                    "process pool kept breaking without any attributable "
                    "task; giving up after "
                    f"{self._unattributed_restarts} restarts"
                )
        self._futures.clear()
        self._discard_pool()
        return events

    def _drain_start_markers(self) -> None:
        """Record which worker is running which task attempt.

        Markers for attempts that are no longer in flight (their future
        already completed) are dropped — a stale marker must never give
        the watchdog a pid to kill for a task that already finished.
        """
        live = {(index, attempt) for index, attempt in self._futures.values()}
        while not self._channel.empty():
            pid, index, attempt, started_at = self._channel.get()
            if (index, attempt) in live:
                self._running[index] = (pid, started_at)

    def running(self) -> "dict[int, float]":
        return {
            index: started_at
            for index, (pid, started_at) in self._running.items()
        }

    def kill(self, index: int) -> bool:
        record = self._running.get(index)
        if record is None:
            return False
        self._timed_out.add(index)
        try:
            os.kill(record[0], signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        return True

    def close(self, graceful: bool = True) -> None:
        if graceful and self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._discard_pool()
        self._previous_channel = None
        self._futures = {}
        self._function = None
        self._tasks = []
