"""Process-pool experiment runtime.

:func:`~repro.runtime.executor.map_tasks_resumable` is the runtime's one
map, the execution layer behind the ``workers=`` knob of
:class:`~repro.experiments.common.ExperimentConfig`, which shards every
``fig*`` experiment sweep: it runs only the cells with no cached result,
stores each at its task index, and persists each fresh one as it
completes.  With one worker it runs in-process and is bit-identical to
the historical single-process loops.

The map consumes :func:`~repro.runtime.supervision.supervise`, one loop
over two transports (:mod:`repro.runtime.backends`: in-process or a
forked pool).  It adds fault tolerance — per-task
:class:`~repro.runtime.supervision.TaskFailure` envelopes, bounded
immediate retries, per-task timeouts with a hung-worker watchdog and
broken-pool recovery — chosen through the map's ``policy``/``retries``/
``task_timeout`` knobs.
:mod:`repro.runtime.faults` is the matching deterministic fault-injection
harness the chaos tests drive, and :mod:`repro.runtime.blas` the BLAS
thread control that sizes each pool worker's share.
"""

from repro.runtime.executor import (
    CACHE_MISS,
    available_workers,
    chunk_bounds,
    effective_workers,
    fork_available,
    map_tasks_resumable,
)
from repro.runtime.supervision import (
    POLICIES,
    TaskError,
    TaskFailure,
    supervise,
)

__all__ = [
    "CACHE_MISS",
    "POLICIES",
    "TaskError",
    "TaskFailure",
    "available_workers",
    "chunk_bounds",
    "effective_workers",
    "fork_available",
    "map_tasks_resumable",
    "supervise",
]
