"""The benchmark's workloads and the checks on their outputs.

Every workload is a closed loop — one client in one process, the next
operation starting when the previous one returned — built from the
workload seed alone, through :func:`experiment_seeds`.  ``setup(seed)``
does everything before the first timed operation; ``run_pass()`` runs
one fixed unit of work, checks its output and returns a
:class:`PassResult`.  A wrong output is counted as a failed item, never
raised.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

#: The seed whose figure rows must also match the recorded digests.
DEFAULT_SEED = 0
#: Dataset-seed offset of edge-stream's streamed images.
FIELD_SEED_OFFSET = 1000
DIGESTS_PATH = Path(__file__).with_name("digests.json")


def experiment_seeds(seed: int) -> dict:
    """The ``ExperimentConfig`` seed fields for workload seed ``seed``.

    Seed 0 gives the repository defaults (dataset 7, split 0, model 0),
    so the default-seed figure rows are those ``repro run`` prints.
    """
    return {"dataset_seed": 7 + seed, "split_seed": seed, "model_seed": seed}


def row_digest(row) -> str:
    """SHA-256 of one result row as ``repro run --json`` serialises it."""
    return hashlib.sha256(
        json.dumps(row, default=float).encode("utf-8")
    ).hexdigest()


def count_row_failures(digests, reference) -> int:
    """Rows that differ from ``reference``, plus rows missing or extra."""
    differing = sum(1 for got, want in zip(digests, reference) if got != want)
    return differing + abs(len(digests) - len(reference))


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def image_failed(decoded, label, expected_image, expected_label) -> bool:
    """Whether one streamed image came back wrong.

    The decoded pixels must equal the pipeline's own reconstruction bit
    for bit, and the streamed prediction the batch prediction.
    """
    import numpy as np

    return not (
        decoded.shape == expected_image.shape
        and np.array_equal(decoded, expected_image)
        and int(label) == int(expected_label)
    )


@dataclass
class PassResult:
    """One pass of a workload: its wall time and checked outputs."""

    seconds: float
    #: Seconds per unit of the pass, in a fixed order (``None``: failed).
    units: "list[Optional[float]]"
    attempted: int
    failed: int
    #: ``perf_counter`` stamps of each completed sweep cell.
    completions: "list[float]" = field(default_factory=list)
    #: ``(hits, misses)`` of the pass's artifact store, if it had one.
    store: Optional[tuple] = None


class FigureWorkload:
    """One ``repro run <fig> --scale tiny`` sweep per pass.

    The pass is exactly what the CLI's ``run`` does — the experiment
    from the registry, the tiny-scale config with the seed overrides and
    ``workers``, optionally a fresh artifact store — called in-process
    so the traced run can see it.  The rows must repeat bit for bit
    across passes and, at :data:`DEFAULT_SEED`, match ``digests.json``.
    """

    item = "cell"
    #: The cell units of a pass (its first and last unit are not cells).
    item_units = slice(1, -1)

    def __init__(
        self, name: str, experiment: str, workers: int, use_store: bool,
        params: dict, work_dir: Path, inject_fault: bool = False,
        anchors_in_setup: bool = False,
    ) -> None:
        self.name = name
        self.anchors_in_setup = anchors_in_setup
        # Serial cells are timed one by one, so each can take its
        # fastest repeat; cells spread over a pool cannot.
        self.best_of_repeats = workers == 1
        self.experiment = experiment
        self.workers = workers
        self.use_store = use_store
        self.params = params
        self.work_dir = work_dir
        self.inject_fault = inject_fault
        self.reference: "Optional[list[str]]" = None
        self._passes = 0

    def setup(self, seed: int) -> None:
        from repro.cli import SCALES

        self.config = SCALES["tiny"]().with_overrides(
            workers=self.workers, **experiment_seeds(seed)
        )
        if self.anchors_in_setup:
            # The Fig. 5 sweep the experiment would run to derive its
            # design anchors (the same ones: its cells do not depend on
            # the worker count).
            from repro.experiments import fig5_band_sensitivity

            anchors = fig5_band_sensitivity.run(self.config).derived_anchors()
            self.params = {**self.params, "anchors": anchors}
        if seed == DEFAULT_SEED:
            self.reference = load_digests()[self.name]

    def run_pass(self, workers: Optional[int] = None) -> PassResult:
        from repro.experiments import api
        from repro.experiments.store import ArtifactStore

        config = self.config
        if workers is not None:
            config = config.with_overrides(workers=workers)
        self._passes += 1
        store = store_dir = None
        if self.use_store:
            store_dir = self.work_dir / f"store-{self._passes}"
            store = ArtifactStore(str(store_dir))
        completions = []

        def progress(done: int, total: int) -> None:
            completions.append(time.perf_counter())

        start = time.perf_counter()
        result = api.run_experiment(
            api.build_experiment(self.experiment), config, store=store,
            progress=progress, **self.params,
        )
        end = time.perf_counter()
        if store_dir is not None:
            shutil.rmtree(store_dir)
        digests = [row_digest(row) for row in result.rows()]
        if self.reference is None:
            self.reference = digests
        if self.inject_fault:
            digests = digests[:-1]
        # Units: set-up up to the first progress call (which reports the
        # cached count before any cell runs), one unit per completed
        # cell, then assembly.  Serially each cell unit is that cell.
        stamps = [start, *completions, end]
        return PassResult(
            seconds=end - start,
            units=[later - earlier for earlier, later in zip(stamps, stamps[1:])],
            attempted=max(len(digests), len(self.reference), 1),
            failed=count_row_failures(digests, self.reference),
            completions=completions[1:],
            store=(store.hits, store.misses) if store is not None else None,
        )


class EdgeStreamWorkload:
    """The deployment loop: compress on the device, classify in the cloud.

    Set-up fits DeepN-JPEG on the FreqNet train split and trains the
    cloud classifier on its compressed output.  A pass streams 128
    fresh FreqNet images one at a time through
    ``DeepNJpeg.encode_to_bytes`` -> ``decode_image_bytes`` ->
    ``Sequential.predict``.
    """

    name = "edge-stream"
    item = "image"
    workers = 1
    best_of_repeats = True
    item_units = slice(None)

    def __init__(self, work_dir: Path, inject_fault: bool = False) -> None:
        self.work_dir = work_dir
        self.inject_fault = inject_fault
        self._reported = False

    def setup(self, seed: int) -> None:
        from repro.core import DeepNJpeg, DeepNJpegConfig
        from repro.data.synthetic import generate_freqnet
        from repro.experiments.common import (
            ExperimentConfig,
            make_splits,
            train_classifier,
        )

        config = ExperimentConfig.tiny().with_overrides(**experiment_seeds(seed))
        train_split, _ = make_splits(config)
        self.pipeline = DeepNJpeg(
            DeepNJpegConfig(sampling_interval=config.sampling_interval)
        ).fit(train_split)
        self.classifier = train_classifier(
            self.pipeline.compress_dataset(train_split), config
        )
        # The images the deployed device captures: fresh FreqNet draws,
        # more of them than the 32-image test split, so per-image costs
        # average over more content and the p90 has 12 images beyond it.
        field = generate_freqnet(replace(
            config.freqnet_config(),
            seed=config.dataset_seed + FIELD_SEED_OFFSET,
        ))
        self.images = field.images
        self.expected_images = [
            self.pipeline.compress(image).reconstructed for image in self.images
        ]
        self.expected_labels = self.classifier.predictions_on(
            self.pipeline.compress_dataset(field)
        )

    def run_pass(self) -> PassResult:
        import repro.jpeg
        from repro.data.transforms import prepare_for_network

        model = self.classifier.model
        latencies = []
        failed = 0
        pass_start = time.perf_counter()
        for index, image in enumerate(self.images):
            start = time.perf_counter()
            try:
                data = self.pipeline.encode_to_bytes(image)
                if self.inject_fault and index % 8 == 0:
                    data = data[:-1]
                decoded = repro.jpeg.decode_image_bytes(data)
                label = model.predict(
                    prepare_for_network(decoded[None], dtype=model.dtype)
                )[0]
            except Exception:  # a failed image is counted, never fatal
                failed += 1
                latencies.append(None)
                self._report_once()
                continue
            latencies.append(time.perf_counter() - start)
            if image_failed(
                decoded, label,
                self.expected_images[index], self.expected_labels[index],
            ):
                failed += 1
                latencies[-1] = None
        return PassResult(
            seconds=time.perf_counter() - pass_start,
            units=latencies,
            attempted=len(self.images),
            failed=failed,
        )

    def _report_once(self) -> None:
        if not self._reported:
            self._reported = True
            print("edge-stream: an image failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)


def make_workload(name: str, work_dir: Path, inject_fault: bool = False):
    """The workload registered under ``name``."""
    os.makedirs(work_dir, exist_ok=True)
    if name == "fig8-train":
        # Fig. 8's grid (4 models x 4 methods, serial, no store) with the
        # cell training cut from tiny's 10 epochs to 2 and the design
        # anchors derived in set-up, so that each cell repeats two or
        # three times in a run; training stays above 90% of a pass.
        return FigureWorkload(
            name, "fig8", workers=1, use_store=False, params={"epochs": 2},
            work_dir=work_dir, inject_fault=inject_fault,
            anchors_in_setup=True,
        )
    if name == "fig5-sweep":
        return FigureWorkload(
            name, "fig5", workers=2, use_store=True, params={},
            work_dir=work_dir, inject_fault=inject_fault,
        )
    if name == "edge-stream":
        return EdgeStreamWorkload(work_dir, inject_fault=inject_fault)
    raise KeyError(f"unknown workload {name!r}")


WORKLOAD_NAMES = ("fig8-train", "fig5-sweep", "edge-stream")
