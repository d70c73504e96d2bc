"""R7 suppressed: a deliberate pool with a stated reason."""

from concurrent.futures import ProcessPoolExecutor


def probe_pool():
    return ProcessPoolExecutor(max_workers=1)  # repro: lint-ignore[R7] one worker that never calls BLAS
