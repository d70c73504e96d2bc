"""R7 clean: pools come from the factory; thread pools are not flagged."""

import multiprocessing
from concurrent.futures import ThreadPoolExecutor


class Pool:
    """A local class that merely shares the name."""


def fan_out(function, tasks, new_pool):
    with new_pool(2) as pool:
        return list(pool.map(function, tasks))


def threads(count):
    return ThreadPoolExecutor(max_workers=count)


def channel():
    return multiprocessing.get_context("fork").SimpleQueue()


def local_pool():
    return Pool()
