"""BLAS thread control, and the thread pool that splits training kernels.

NumPy's GEMMs run in the OpenBLAS bundled inside ``numpy.libs``, whose
thread count is one process-wide setting.  The runtime backends set it
once per forked pool worker (:func:`set_threads`, run as the pool
initializer) so that a pool of N workers does not run N copies of the
parent's all-CPU thread pool on the same CPUs.

Training spends its time in small per-sample GEMMs, patch gathers and
elementwise passes, where a second BLAS thread mostly spins.  Instead,
:func:`split_pool` keeps a thread pool alive for the length of one
``Trainer.fit`` with BLAS pinned to 1 thread, and :func:`split_batch`
runs a layer's batch-independent kernel over contiguous batch slices on
it.  NumPy releases the GIL in ``copyto``, ufuncs and ``matmul``, so the
slices run in parallel; every sample is computed by the same operations
as in one whole-batch call, so the results are bit-identical.

Beyond NumPy and the standard library it needs only the CPU count of
:mod:`repro.runtime.executor`.  Every entry point degrades to the
serial path when no control surface exists (no threadpoolctl and no
OpenBLAS symbols).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager

import numpy as np

from repro.runtime.executor import available_workers

__all__ = [
    "SPLIT_GRAIN",
    "get_threads",
    "set_threads",
    "split_batch",
    "split_pool",
    "split_width",
]

#: Fewest elements the array a kernel writes must have for
#: :func:`split_batch` to split it; a smaller kernel takes about as long
#: as handing a slice to another thread.
SPLIT_GRAIN = 1 << 18

#: ``(executor, width)`` while a :func:`split_pool` block runs, else None.
_split = None

_BLAS_CONTROL_UNRESOLVED = object()
_blas_control = _BLAS_CONTROL_UNRESOLVED

_OPENBLAS_SYMBOL_PAIRS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _load_openblas_control():
    """(set_threads, get_threads) from the OpenBLAS bundled with NumPy.

    threadpoolctl is preferred when importable; otherwise the OpenBLAS
    shared objects shipped inside ``numpy.libs`` are probed over ctypes
    (NumPy's GEMMs run there, whatever other packages bundle).  Returns
    ``None`` when no control surface exists (thread limiting then
    degrades to a no-op).
    """
    try:
        import threadpoolctl

        return ("threadpoolctl", threadpoolctl)
    except ImportError:
        pass
    import ctypes
    import glob

    libs_dir = os.path.join(
        os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs"
    )
    for path in sorted(glob.glob(os.path.join(libs_dir, "*.so*"))):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_SYMBOL_PAIRS:
            try:
                set_fn = getattr(library, set_name)
                get_fn = getattr(library, get_name)
            except AttributeError:
                continue
            set_fn.argtypes = [ctypes.c_int]
            set_fn.restype = None
            get_fn.argtypes = []
            get_fn.restype = ctypes.c_int
            return ("ctypes", (set_fn, get_fn))
    return None


def _resolve_blas_control():
    global _blas_control
    if _blas_control is _BLAS_CONTROL_UNRESOLVED:
        _blas_control = _load_openblas_control()
    return _blas_control


def get_threads():
    """This process's BLAS thread count, or ``None`` without a control."""
    control = _resolve_blas_control()
    if control is None:
        return None
    kind, handle = control
    if kind == "threadpoolctl":
        counts = [
            info["num_threads"] for info in handle.threadpool_info()
            if info.get("user_api") == "blas"
        ]
        return max(counts) if counts else None
    _, get_fn = handle
    return get_fn()


def set_threads(threads) -> None:
    """Set this process's BLAS thread count until changed again.

    ``None`` (and a missing control surface) is a no-op.  The forked
    pools run it as their worker initializer.
    """
    if threads is None:
        return
    control = _resolve_blas_control()
    if control is None:
        return
    kind, handle = control
    if kind == "threadpoolctl":
        handle.threadpool_limits(limits=int(threads), user_api="blas")
        return
    set_fn, _ = handle
    set_fn(int(threads))


def split_width() -> int:
    """The number of threads :func:`split_pool` splits kernels over.

    This process's BLAS thread count, capped at the CPUs it may run on,
    and 1 without a BLAS control.  A forked pool worker's count is
    already its CPU share (``_new_pool`` sets it), so the workers of a
    pool as wide as the CPUs get 1 and run every kernel whole.
    """
    threads = get_threads()
    if threads is None:
        return 1
    return max(1, min(threads, available_workers()))


@contextmanager
def split_pool():
    """Let :func:`split_batch` split kernels while the block runs.

    Starts ``split_width() - 1`` helper threads (the calling thread is
    the last) and pins BLAS to 1 thread, so the split slices, not
    OpenBLAS, use the CPUs.  On exit the helpers are joined and the
    BLAS count is restored, so no helper thread outlives the block (a
    later fork inherits none).  With a width of 1, or inside another
    ``split_pool`` block, it changes nothing.
    """
    global _split
    width = split_width()
    if width < 2 or _split is not None:
        yield
        return
    threads = get_threads()
    set_threads(1)
    try:
        with ThreadPoolExecutor(max_workers=width - 1) as executor:
            _split = (executor, width)
            try:
                yield
            finally:
                _split = None
    finally:
        set_threads(threads)


def split_batch(kernel, count: int, elements: int) -> None:
    """Run ``kernel(lo, hi)`` over contiguous slices of a ``count`` batch.

    Inside a :func:`split_pool` block, when the array the kernel writes
    has at least :data:`SPLIT_GRAIN` ``elements``, the batch is cut into
    one slice per thread (at most ``count``); the calling thread runs
    the first and the pool the rest.  Otherwise ``kernel(0, count)``
    runs alone.  Either way it returns once every slice has finished,
    raising the first slice's exception, if any.  A kernel must write
    only its own slice of its outputs, and call only private helpers:
    the benchmark's tracer wraps the public layer functions and keeps
    one span stack per process.
    """
    active = _split
    if active is None or count < 2 or elements < SPLIT_GRAIN:
        kernel(0, count)
        return
    executor, width = active
    parts = min(width, count)
    bounds = [count * part // parts for part in range(parts + 1)]
    futures = [
        executor.submit(kernel, bounds[part], bounds[part + 1])
        for part in range(1, parts)
    ]
    try:
        kernel(bounds[0], bounds[1])
    finally:
        wait(futures)
    for future in futures:
        future.result()
