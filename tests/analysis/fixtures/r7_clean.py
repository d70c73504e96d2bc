"""R7 clean: pools come from their factories."""

import multiprocessing


class Pool:
    """A local class that merely shares the name."""


def fan_out(function, tasks, new_pool):
    with new_pool(2) as pool:
        return list(pool.map(function, tasks))


def split(kernel, count, split_pool, split_batch):
    with split_pool():
        split_batch(kernel, count, count)


def channel():
    return multiprocessing.get_context("fork").SimpleQueue()


def local_pool():
    return Pool()
