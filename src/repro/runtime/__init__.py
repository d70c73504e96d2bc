"""Process-pool experiment runtime.

:mod:`repro.runtime.executor` is the execution layer behind the
``workers=`` knob of :class:`~repro.experiments.common.ExperimentConfig`,
which shards every ``fig*`` experiment sweep: deterministic task
sharding with an in-process path that is bit-identical to the historical
single-process loops.

Every executor map runs through :mod:`repro.runtime.supervision`, one
loop over two transports (:mod:`repro.runtime.backends`: in-process or
a forked pool).  It adds fault tolerance — per-task
:class:`~repro.runtime.supervision.TaskFailure` envelopes, bounded
deterministic retries, per-task timeouts with a hung-worker watchdog and
broken-pool recovery — chosen through the ``policy``/``retries``/
``task_timeout`` knobs of the executor maps.
:mod:`repro.runtime.faults` is the matching deterministic fault-injection
harness the chaos tests drive, and :mod:`repro.runtime.blas` the BLAS
thread control that sizes each pool worker's share.
"""

from repro.runtime.executor import (
    CACHE_MISS,
    TaskState,
    available_workers,
    chunk_bounds,
    effective_workers,
    fork_available,
    imap_tasks,
    map_tasks,
    map_tasks_resumable,
    spawn_seeds,
)
from repro.runtime.supervision import (
    POLICIES,
    TaskError,
    TaskFailure,
    supervise,
    supervised_imap,
    supervised_map,
)

__all__ = [
    "CACHE_MISS",
    "POLICIES",
    "TaskError",
    "TaskFailure",
    "TaskState",
    "available_workers",
    "chunk_bounds",
    "effective_workers",
    "fork_available",
    "imap_tasks",
    "map_tasks",
    "map_tasks_resumable",
    "spawn_seeds",
    "supervise",
    "supervised_imap",
    "supervised_map",
]
