"""Bounded reads of the JSON files a run reloads.

Artifact-store entries (:class:`repro.experiments.store.ArtifactStore`)
and saved pipelines (:meth:`repro.core.pipeline.DeepNJpeg.load`) are
read back through :func:`read_regular_file`, which neither blocks on a
FIFO nor reads without limit.
"""

from __future__ import annotations

import os
import stat

#: The most bytes either reader accepts.  The largest store entry of
#: all seven figures takes 3,683 bytes at micro scale and 3,672 at tiny
#: scale, and a saved tiny-scale pipeline 7,292: real files stay more
#: than a hundred times below it.
MAX_FILE_BYTES = 1 << 20


def _open_nonblocking(path: str, flags: int) -> int:
    # A FIFO opened for reading blocks until a writer appears; with
    # O_NONBLOCK the open returns at once.  Regular files ignore it.
    return os.open(path, flags | os.O_NONBLOCK)


def read_regular_file(path: str) -> bytes:
    """The bytes of the regular file at ``path``.

    The file type is checked on the open descriptor, before any read:
    anything but a regular file (a FIFO, a device, a socket) raises
    :class:`ValueError`, and so does a file holding more than
    :data:`MAX_FILE_BYTES`.  The messages leave naming ``path`` to the
    caller.  A missing file or a directory raises the :class:`OSError`
    that :func:`open` raises.
    """
    with open(path, "rb", opener=_open_nonblocking) as handle:
        if not stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
            raise ValueError("not a regular file")
        data = handle.read(MAX_FILE_BYTES + 1)
    if len(data) > MAX_FILE_BYTES:
        raise ValueError(f"larger than {MAX_FILE_BYTES} bytes")
    return data
