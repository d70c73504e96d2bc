"""Fig. 3: removing high-frequency components flips DNN predictions.

The paper's example removes the six highest-frequency DCT components of a
"junco" image; the result is visually indistinguishable but the DNN
mis-predicts "robin".  Here the same operation is applied to the test
images of the FreqNet classes whose identity lives in high-frequency
detail, and the experiment reports how the classifier's accuracy and the
image distortion (PSNR) change as more components are removed.

Declared on :mod:`repro.experiments.api` as one ``removed_components``
axis; the framework supplies caching, resume and sharding.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from repro.data.dataset import Dataset
from repro.experiments import api
from repro.experiments.common import format_table, make_splits, train_classifier
from repro.jpeg.blocks import (
    assemble_blocks,
    inverse_level_shift,
    level_shift,
    partition_blocks,
)
from repro.jpeg.dct import block_dct2d, block_idct2d
from repro.jpeg.metrics import psnr
from repro.jpeg.zigzag import inverse_zigzag, zigzag

#: Numbers of removed components evaluated (the paper's example removes 6).
FIG3_REMOVED_COMPONENTS = (0, 3, 6, 9, 12)
#: Table columns (shared by the result table and the CLI --json payload).
FIG3_HEADERS = [
    "Removed HF bands",
    "Top-1 accuracy",
    "HF-class accuracy",
    "PSNR (dB)",
    "Flipped predictions",
]


def remove_high_frequency_components(
    image: np.ndarray, removed_components: int
) -> np.ndarray:
    """Zero the last ``removed_components`` zig-zag DCT bands of every block.

    This is the operation illustrated in Fig. 3: a frequency-domain edit
    with no quantization involved, isolating the effect of losing the
    highest-frequency features.
    """
    if not 0 <= removed_components < 64:
        raise ValueError("removed_components must be in [0, 63]")
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError(f"expected a grayscale image, got shape {image.shape}")
    if removed_components == 0:
        return image.copy()
    blocks, grid_shape = partition_blocks(level_shift(image))
    coefficients = zigzag(block_dct2d(blocks))
    coefficients[:, 64 - removed_components:] = 0.0
    restored = block_idct2d(inverse_zigzag(coefficients))
    return inverse_level_shift(
        assemble_blocks(restored, grid_shape, image.shape)
    )


def remove_high_frequency_dataset(
    dataset: Dataset, removed_components: int
) -> Dataset:
    """Apply :func:`remove_high_frequency_components` to a whole dataset."""
    images = np.stack(
        [
            remove_high_frequency_components(image, removed_components)
            for image in dataset.images
        ],
        axis=0,
    )
    return dataset.with_images(images)


@dataclass(frozen=True)
class Fig3Entry:
    """Effect of removing ``removed_components`` high-frequency bands."""

    removed_components: int
    accuracy: float
    high_frequency_class_accuracy: float
    mean_psnr: float
    flipped_fraction: float


@dataclass
class Fig3Result:
    """All measurements behind the Fig. 3 demonstration."""

    entries: "list[Fig3Entry]" = field(default_factory=list)
    high_frequency_classes: "list[str]" = field(default_factory=list)

    def rows(self) -> "list[list]":
        return [
            [
                entry.removed_components,
                entry.accuracy,
                entry.high_frequency_class_accuracy,
                entry.mean_psnr,
                entry.flipped_fraction,
            ]
            for entry in self.entries
        ]

    def format_table(self) -> str:
        return format_table(FIG3_HEADERS, self.rows())


class Fig3Experiment(api.Experiment):
    """The feature-degradation demonstration as a declarative experiment."""

    name = "fig3"
    title = "High-frequency removal flips predictions (accuracy / PSNR)"
    headers = FIG3_HEADERS
    defaults = {
        "removed_components": FIG3_REMOVED_COMPONENTS,
        "high_frequency_classes": ("textured_blob",),
    }

    def axes(self, ctx: api.RunContext) -> "list[api.Axis]":
        return [
            api.Axis(
                "removed_components",
                tuple(int(count) for count in ctx.params["removed_components"]),
            )
        ]

    def cell_identity(self, ctx: api.RunContext, point: dict) -> dict:
        return {
            "removed_components": point["removed_components"],
            "high_frequency_classes": list(
                ctx.params["high_frequency_classes"]
            ),
        }

    def state_key(self, ctx: api.RunContext):
        return (
            ctx.config.task_key(),
            tuple(ctx.params["high_frequency_classes"]),
        )

    def build_state(self, key: tuple) -> dict:
        """Shared state keyed by (config, high-frequency class names)."""
        config, high_frequency_classes = key
        train_dataset, test_dataset = make_splits(config)
        classifier = train_classifier(train_dataset, config)
        high_frequency_labels = [
            test_dataset.class_names.index(name)
            for name in high_frequency_classes
            if name in test_dataset.class_names
        ]
        return {
            "test_dataset": test_dataset,
            "classifier": classifier,
            "baseline_predictions": classifier.predictions_on(test_dataset),
            "high_frequency_mask": np.isin(
                test_dataset.labels, high_frequency_labels
            ),
        }

    def compute_cell(self, key, state, cell: dict, extra) -> Fig3Entry:
        """One removed-component count: degrade, predict, measure."""
        count = cell["removed_components"]
        test_dataset = state["test_dataset"]
        high_frequency_mask = state["high_frequency_mask"]
        degraded = remove_high_frequency_dataset(test_dataset, count)
        predictions = state["classifier"].predictions_on(degraded)
        accuracy = float((predictions == test_dataset.labels).mean())
        if high_frequency_mask.any():
            hf_accuracy = float(
                (
                    predictions[high_frequency_mask]
                    == test_dataset.labels[high_frequency_mask]
                ).mean()
            )
        else:
            hf_accuracy = float("nan")
        psnr_values = [
            psnr(original, degraded_image)
            for original, degraded_image in zip(
                test_dataset.images, degraded.images
            )
        ]
        finite = [value for value in psnr_values if np.isfinite(value)]
        return Fig3Entry(
            removed_components=count,
            accuracy=accuracy,
            high_frequency_class_accuracy=hf_accuracy,
            mean_psnr=float(np.mean(finite)) if finite else float("inf"),
            flipped_fraction=float(
                (predictions != state["baseline_predictions"]).mean()
            ),
        )

    def cell_to_payload(self, value: Fig3Entry) -> dict:
        return asdict(value)

    def cell_from_payload(self, payload: dict) -> Fig3Entry:
        return Fig3Entry(**payload)

    def assemble(
        self, ctx: api.RunContext, results: list, scalars: dict
    ) -> Fig3Result:
        result = Fig3Result(
            high_frequency_classes=list(ctx.params["high_frequency_classes"])
        )
        result.entries.extend(results)
        return result


api.register_experiment(Fig3Experiment.name, Fig3Experiment)
