"""BLAS thread control for pool workers: read or set the thread count.

NumPy's GEMMs run in the OpenBLAS bundled inside ``numpy.libs``, whose
thread count is one process-wide setting.  The runtime backends set it
once per forked pool worker (:func:`set_threads`, run as the pool
initializer) so that a pool of N workers does not run N copies of the
parent's all-CPU thread pool on the same CPUs.

A leaf module — NumPy and the standard library only.  Both entry points
degrade to a no-op when no control surface exists (no threadpoolctl and
no OpenBLAS symbols).
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["get_threads", "set_threads"]

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
