"""R7 bad: pools built outside backends._new_pool and blas.split_pool."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import ProcessPoolExecutor as Executor
from multiprocessing import Pool


def plain(count):
    return ProcessPoolExecutor(max_workers=count)


def aliased(count):
    return Executor(max_workers=count)


def stdlib_pool(count):
    return multiprocessing.Pool(count)


def imported_pool(count):
    return Pool(count)


def context_pool(count):
    context = multiprocessing.get_context("fork")
    return context.Pool(count)


def _new_pool(count):
    # Only the factory in src/repro/runtime/backends.py is exempt.
    return ProcessPoolExecutor(max_workers=count)


def threads(count):
    return ThreadPoolExecutor(max_workers=count)
