"""A plain map for the runtime and chaos tests: the one map, nothing cached."""

from repro.runtime.executor import CACHE_MISS, map_tasks_resumable


def plain_map(function, tasks, **options) -> list:
    """``function`` over every task, results in task order.

    ``options`` are :func:`map_tasks_resumable`'s keywords (``workers``,
    ``on_result``, ``policy``, ``retries``, ``task_timeout``).
    """
    tasks = list(tasks)
    return map_tasks_resumable(
        function, tasks, [CACHE_MISS] * len(tasks), **options
    )
