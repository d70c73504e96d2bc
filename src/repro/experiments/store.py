"""Content-addressed artifact store for the experiment sweeps.

Every ``fig*`` experiment writes its grid-cell results through an
:class:`ArtifactStore` when one is supplied: each cell is keyed on the
experiment's :meth:`~repro.experiments.common.ExperimentConfig.task_key`
plus the cell's own identity — including the relevant codec ``spec()``
where a compressor is involved, so a cell produced by a *fitted*
DeepN-JPEG artifact is addressed by the fitted tables themselves, not
by which process happened to fit them.  Re-running a sweep with the
same configuration (any worker count) resumes from the store: completed
cells load instead of recomputing, and a fully warm store skips the
heavy shared state (dataset compression, classifier training) entirely.

Keys are SHA-256 digests of canonical JSON; values are JSON payloads
written atomically (temp file + rename), so concurrent sweeps sharing a
store directory at worst duplicate work, never corrupt it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
from typing import Optional

from repro.files import read_regular_file
from repro.runtime.executor import CACHE_MISS

logger = logging.getLogger(__name__)


class ArtifactStoreError(RuntimeError):
    """A store write failed (disk full, permissions, unserialisable payload).

    Raised by :meth:`ArtifactStore.put` after cleaning up its temp file;
    the original exception rides along as ``__cause__``.
    """


def canonical_json(payload) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def all_cached(cached: list) -> bool:
    """True when a sweep's every lookup hit (non-empty sweeps only).

    The uniform warm-store early-return condition of the ``fig*``
    modules: an empty cell list never short-circuits.
    """
    return bool(cached) and all(value is not CACHE_MISS for value in cached)


def config_payload(config) -> dict:
    """The JSON identity of an experiment configuration.

    Uses :meth:`~repro.experiments.common.ExperimentConfig.task_key` so
    the ``workers`` knob — which never influences results — never
    influences the address either.
    """
    return dataclasses.asdict(config.task_key())


class ArtifactStore:
    """A directory of content-addressed JSON artifacts.

    Artifacts live under ``root/<first two hex digits>/<digest>.json``.
    ``hits`` / ``misses`` count lookups since construction, which is how
    the resume tests assert that a warm second run recomputed nothing.
    """

    def __init__(self, root: str) -> None:
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def key(self, payload: dict) -> str:
        """The content address (SHA-256 hex digest) of a key payload."""
        return hashlib.sha256(
            canonical_json(payload).encode("utf-8")
        ).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def get(self, key: str):
        """The stored payload for ``key``, or ``None`` (counted as a miss).

        An unreadable artifact is treated as a miss rather than an
        error: a corrupted or truncated file (a crashed writer on a
        filesystem without atomic rename, manual tampering), JSON nested
        deeper than the decoder's recursion limit, a file over
        :data:`~repro.files.MAX_FILE_BYTES`, or a directory, FIFO or
        other non-regular file where the file belongs (the read never
        blocks on it).  The sweep recomputes the cell and :meth:`put`
        atomically overwrites the poisoned file (a directory makes that
        ``put`` raise :class:`ArtifactStoreError`).
        """
        path = self._path(key)
        try:
            value = json.loads(read_regular_file(path).decode("utf-8"))
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, RecursionError, IsADirectoryError) as error:
            # ValueError covers JSONDecodeError, UnicodeDecodeError and
            # the non-regular and oversized files read_regular_file
            # refuses.
            logger.warning(
                "artifact %s is unreadable (%s: %s); treating it as a cache "
                "miss, the cell will be recomputed and overwritten",
                path, type(error).__name__, error,
            )
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, key: str, payload) -> None:
        """Atomically persist ``payload`` (any JSON-able value) at ``key``.

        On any failure — an unserialisable payload, a full disk, a
        permission error on the rename — the temp file is removed so a
        failed write never litters the store, and the failure surfaces
        as an :class:`ArtifactStoreError` naming the key and path, with
        the original exception chained as its cause.  The final artifact
        path is only ever produced by a completed ``os.replace``, so a
        failed put leaves the store exactly as it was.
        """
        path = self._path(key)
        temporary = f"{path}.{os.getpid()}.tmp"
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(temporary, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
                handle.write("\n")
            os.replace(temporary, path)
        except Exception as error:
            try:
                os.remove(temporary)
            except OSError:
                pass
            raise ArtifactStoreError(
                f"failed to persist artifact {key} at {path}: {error}"
            ) from error

    def __len__(self) -> int:
        count = 0
        for _, _, files in os.walk(self.root):
            count += sum(1 for name in files if name.endswith(".json"))
        return count


class SweepCache:
    """Binds an :class:`ArtifactStore` to one figure sweep.

    A figure constructs one ``SweepCache(store, figure, config)`` and
    addresses each grid cell by a small JSON-able ``cell`` payload; the
    cache composes ``{figure, config, cell}`` into the content address.
    ``from_payload`` / ``to_payload`` translate between the figure's
    entry objects and their stored JSON form (identity by default).

    With ``store=None`` every lookup reports :data:`CACHE_MISS` and
    writes are dropped, so figures call the cache unconditionally.
    """

    def __init__(
        self,
        store: Optional[ArtifactStore],
        figure: str,
        config,
        from_payload=None,
        to_payload=None,
    ) -> None:
        self.store = store
        self.figure = figure
        self._config = config_payload(config)
        self._from_payload = from_payload or (lambda payload: payload)
        self._to_payload = to_payload or (lambda value: value)

    def key(self, cell: dict) -> str:
        return self.store.key(
            {"figure": self.figure, "config": self._config, "cell": cell}
        )

    def lookup(self, cell: dict):
        """The decoded cached entry for ``cell``, or :data:`CACHE_MISS`."""
        if self.store is None:
            return CACHE_MISS
        key = self.key(cell)
        payload = self.store.get(key)
        if payload is None:
            return CACHE_MISS
        # Entries are stored wrapped ({"value": ...}) so a legitimately
        # null payload stays distinguishable from a missing artifact.  A
        # valid-JSON artifact without the wrapper, or whose value the
        # figure cannot decode, is tampering the JSON decoder cannot
        # catch: demote the hit to a miss so the cell is recomputed and
        # overwritten, like any other corruption.
        if not isinstance(payload, dict) or "value" not in payload:
            return self._demote(key, "is valid JSON but not a wrapped sweep entry")
        try:
            return self._from_payload(payload["value"])
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            return self._demote(
                key, f"does not decode ({type(error).__name__}: {error})"
            )

    def _demote(self, key: str, reason: str):
        """Count a corrupt hit as a miss and report :data:`CACHE_MISS`."""
        logger.warning(
            "artifact %s %s; treating it as a cache miss, the cell will be "
            "recomputed and overwritten",
            key, reason,
        )
        self.store.hits -= 1
        self.store.misses += 1
        return CACHE_MISS

    def lookup_many(self, cells: "list[dict]") -> list:
        """Decoded entries (or :data:`CACHE_MISS`) for every cell."""
        return [self.lookup(cell) for cell in cells]

    def record(self, cell: dict, value) -> None:
        """Persist one freshly computed entry (no-op without a store)."""
        if self.store is not None:
            self.store.put(self.key(cell), {"value": self._to_payload(value)})

    def recorder(self, cells: "list[dict]"):
        """An ``on_result(index, value)`` callback over indexed cells.

        The shape :func:`repro.runtime.executor.map_tasks_resumable`
        expects: fresh results are persisted under their cell's address
        as they arrive.
        """

        def on_result(index: int, value) -> None:
            self.record(cells[index], value)

        return on_result
