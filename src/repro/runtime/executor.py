"""Multi-process execution layer for experiment sweeps.

Every per-figure experiment grid funnels through
:func:`map_tasks_resumable`, the runtime's one map: the cells that have
no cached result are mapped over a module-level task function by the
supervisor (:mod:`repro.runtime.supervision`), either serially
in-process (``workers=1``, the default, which runs the exact same
function objects in the exact same order as the historical loops and is
therefore bit-identical to them) or through a forked process pool
(:mod:`repro.runtime.backends`).

Design rules the callers follow:

* Task descriptions are small (grid-cell parameters, chunk bounds) —
  never live arrays.  Heavy shared state (datasets, trained
  classifiers, codecs) is built once in the parent before the first
  task is submitted; the pool forks at that submit, so the workers
  inherit it for free.  Results are ordinary pickled values; a grid
  cell returns a few scalars, so no pixel arrays cross the pool.
* Each result is stored at its task's index, so any worker count
  produces the same output list as the serial path.
* Randomness, where a task needs it, is seeded from the task payload
  itself (the figure grids are fully deterministic from their
  ``ExperimentConfig`` seeds), so streams are identical for any worker
  count.

Parallelism requires the ``fork`` start method (Linux / most POSIX):
on ``spawn``-only platforms the map silently degrades to the serial
path rather than risking stale or expensive worker state.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import sys


def available_workers() -> int:
    """Number of CPUs usable by a process pool on this machine."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def fork_available() -> bool:
    """Whether ``fork`` exists *and is safe* on this platform.

    macOS technically offers the ``fork`` start method but forking after
    the parent has touched Accelerate/BLAS or ObjC frameworks — which
    any NumPy workload has — can abort or deadlock the children, so the
    runtime treats it (and every other non-Linux POSIX) as
    fork-unsafe and degrades to the serial path instead.
    """
    return sys.platform.startswith("linux") and (
        "fork" in multiprocessing.get_all_start_methods()
    )


def effective_workers(workers, task_count: int = None) -> int:
    """Resolve a ``workers`` knob into a concrete pool size.

    ``1`` (the default everywhere) means serial; ``N > 1`` a pool of N;
    ``0`` or ``None`` means one worker per available CPU.  The result is
    additionally capped by ``task_count`` when given — a pool larger
    than the task list only costs fork time.
    """
    if workers is None or workers == 0:
        count = available_workers()
    else:
        count = int(workers)
        if count < 0:
            raise ValueError(f"workers must be non-negative, got {workers}")
    if task_count is not None:
        count = min(count, max(int(task_count), 1))
    return max(count, 1)


def chunk_bounds(total: int, chunk: int) -> "list[tuple[int, int]]":
    """Ordered ``(start, stop)`` shards covering ``range(total)``.

    The contract the codec chunk loop relies on: an empty input yields no
    chunks (not one empty chunk), a chunk size larger than the total
    yields a single short chunk, and a remainder yields a short final
    chunk.  Concatenating the shards in order always reproduces the
    original range exactly.
    """
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if chunk < 1:
        raise ValueError(f"chunk must be at least 1, got {chunk}")
    return [
        (start, min(start + chunk, total)) for start in range(0, total, chunk)
    ]


#: Sentinel marking a task with no cached result in
#: :func:`map_tasks_resumable`.  ``None`` is not used because a task's
#: legitimate result may be ``None``.
CACHE_MISS = object()


def map_tasks_resumable(
    function,
    tasks,
    cached,
    workers: int = 1,
    on_result=None,
    policy: str = None,
    retries: int = 2,
    task_timeout: float = None,
) -> list:
    """Map ``function`` over the ``tasks`` that have no cached result.

    ``cached`` parallels ``tasks``: a previous result or
    :data:`CACHE_MISS`.  The misses run through
    :func:`~repro.runtime.supervision.supervise` and each outcome is
    stored at its task's index, so a resumed sweep returns what a cold
    one does.  ``on_result(index, result)`` fires for each fresh result
    as soon as it completes (the experiment store persists cells
    there): in-process before the next task starts, on a pool even
    while an earlier task is still running.  An interrupted sweep so
    keeps every finished cell.

    One worker with no ``policy`` and no ``task_timeout`` (or no
    ``fork``) runs in-process, in task order; anything else forks a
    pool, so ``function`` must be a picklable module-level function.
    ``policy=None`` re-raises a failed task's own exception; a named
    policy or a timeout raises
    :class:`~repro.runtime.supervision.TaskError` once a task exhausts
    its ``retries``, except that ``collect`` leaves the
    :class:`~repro.runtime.supervision.TaskFailure` in the task's slot
    and never passes it to ``on_result``.  Either envelope's ``index``
    is the task's position in ``tasks``.
    """
    # Lazy: supervision imports this module at import time.
    from repro.runtime.supervision import TaskError, TaskFailure, supervise

    tasks = list(tasks)
    results = list(cached)
    if len(results) != len(tasks):
        raise ValueError(
            f"cached must parallel tasks: {len(results)} != {len(tasks)}"
        )
    # Supervision sees only the cache misses; indices[local] is global.
    indices = [
        index for index, value in enumerate(results) if value is CACHE_MISS
    ]
    outcomes = supervise(
        function, [tasks[index] for index in indices], workers=workers,
        policy=policy, retries=retries, task_timeout=task_timeout,
    )
    try:
        for local, value in outcomes:
            index = indices[local]
            if isinstance(value, TaskFailure):
                value = dataclasses.replace(value, index=index)
            elif on_result is not None:
                on_result(index, value)
            results[index] = value
    except TaskError as error:
        local = error.failure.index
        if 0 <= local < len(indices):
            error.failure = dataclasses.replace(
                error.failure, index=indices[local]
            )
            error.args = (error.failure.describe(),)
        raise
    finally:
        outcomes.close()
    return results

