"""Fig. 5: sensitivity of DNN accuracy to quantization per frequency group.

For each frequency group (LF / MF / HF) and each band-segmentation method
(magnitude based — DeepN-JPEG — and position based — default JPEG), the
experiment quantizes only the bands of that group at a sweep of steps
while keeping every other band at step 1, and measures the accuracy of a
classifier trained on uncompressed images.  The output also extracts the
paper's design anchors: the largest accuracy-neutral step per group
(``Q1`` for HF, ``Q2`` for MF) and the LF knee (``Qmin``), which the
Fig. 6/7/8 experiments feed into the piece-wise linear mapping.

The experiment is declared on :mod:`repro.experiments.api`: two axes
(segmentation method × linked (group, step) pairs), one cell function,
one state builder and a cached ``baseline_accuracy`` scalar — caching,
resume, sharding and ordering come from the framework.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from repro.analysis.bands import (
    BandSegmentation,
    magnitude_based_segmentation,
    position_based_segmentation,
)
from repro.analysis.frequency import analyze_dataset
from repro.core.baselines import compress_dataset_with_table
from repro.experiments import api
from repro.experiments.common import (
    ExperimentConfig,
    TrainedClassifier,
    format_table,
    make_splits,
    train_classifier,
)
from repro.experiments.store import ArtifactStore
from repro.jpeg.quantization import QuantizationTable

#: The two band-segmentation methods the figure contrasts (the order of
#: the sweep grid and of the state's ``segmentations`` dict).
SEGMENTATION_METHODS = ("magnitude", "position")

#: Quantization steps swept per group (the paper sweeps to 40/60/80; the
#: synthetic dataset tolerates larger steps, so the sweeps extend further to
#: locate the knees).
DEFAULT_STEP_SWEEPS = {
    "LF": (1, 3, 5, 8, 12, 20, 30),
    "MF": (1, 10, 20, 40, 60, 90, 120),
    "HF": (1, 20, 40, 60, 90, 120, 160, 200),
}
#: Accuracy tolerance when extracting the largest accuracy-neutral step.
ACCURACY_TOLERANCE = 0.005
#: Table columns (shared by the result table and the CLI --json payload).
FIG5_HEADERS = ["Segmentation", "Group", "Step", "Accuracy", "Normalized"]


def group_quantization_table(
    segmentation: BandSegmentation, group: str, step: float
) -> QuantizationTable:
    """A table with ``step`` on the given group's bands and 1 elsewhere."""
    values = np.ones((8, 8), dtype=np.float64)
    values[segmentation.mask(group)] = step
    return QuantizationTable(
        values, name=f"{segmentation.method}-{group}-q{step:g}"
    )


@dataclass(frozen=True)
class Fig5Entry:
    """Accuracy of one (segmentation method, group, step) configuration."""

    method: str
    group: str
    step: float
    accuracy: float
    normalized_accuracy: float


@dataclass
class Fig5Result:
    """All sweep points plus the derived design anchors."""

    entries: "list[Fig5Entry]" = field(default_factory=list)
    baseline_accuracy: float = 0.0

    def rows(self) -> "list[list]":
        return [
            [entry.method, entry.group, entry.step, entry.accuracy,
             entry.normalized_accuracy]
            for entry in self.entries
        ]

    def format_table(self) -> str:
        return format_table(FIG5_HEADERS, self.rows())

    def entries_for(self, method: str, group: str) -> "list[Fig5Entry]":
        """Sweep points of one curve, ordered by step."""
        selected = [
            entry for entry in self.entries
            if entry.method == method and entry.group == group
        ]
        return sorted(selected, key=lambda entry: entry.step)

    def largest_neutral_step(
        self, method: str, group: str, tolerance: float = ACCURACY_TOLERANCE
    ) -> float:
        """Largest swept step below the first accuracy drop.

        This is the "critical point" the paper reads off Fig. 5: the step at
        which accuracy *starts* to fall.  Steps beyond the first drop are
        ignored even if accuracy recovers there (that recovery is evaluation
        noise, not robustness).
        """
        largest = 1.0
        for entry in self.entries_for(method, group):
            if entry.normalized_accuracy >= 1.0 - tolerance:
                largest = entry.step
            else:
                break
        return float(largest)

    def derived_anchors(self, tolerance: float = ACCURACY_TOLERANCE) -> dict:
        """The design anchors for the magnitude-based segmentation.

        Returns ``{"q1": ..., "q2": ..., "q_min": ...}`` where ``q1`` is the
        largest accuracy-neutral HF step, ``q2`` the MF one, and ``q_min``
        the LF knee (all from the magnitude-based curves), clamped so that
        ``q_min <= q2 <= q1`` as the mapping requires.
        """
        q1 = self.largest_neutral_step("magnitude", "HF", tolerance)
        q2 = self.largest_neutral_step("magnitude", "MF", tolerance)
        q_min = self.largest_neutral_step("magnitude", "LF", tolerance)
        q_min = max(q_min, 1.0)
        q2 = max(q2, q_min)
        q1 = max(q1, q2)
        return {"q1": float(q1), "q2": float(q2), "q_min": float(q_min)}


def _finish_state(config, train_dataset, test_dataset, classifier) -> dict:
    statistics = analyze_dataset(
        train_dataset, interval=config.sampling_interval
    )
    segmentations = {
        "magnitude": magnitude_based_segmentation(statistics),
        "position": position_based_segmentation(),
    }
    return {
        "test_dataset": test_dataset,
        "classifier": classifier,
        "segmentations": segmentations,
        "baseline_accuracy": classifier.accuracy_on(test_dataset),
    }


class Fig5Experiment(api.Experiment):
    """Per-band-group sensitivity sweep as a declarative experiment."""

    name = "fig5"
    title = "Per-band-group quantization sensitivity (magnitude vs position)"
    headers = FIG5_HEADERS
    defaults = {"step_sweeps": None, "classifier": None}

    def store_enabled(self, ctx: api.RunContext) -> bool:
        # A caller-supplied classifier is not derivable from the config,
        # so its cells must never be cached under the config's address.
        return ctx.params["classifier"] is None

    def axes(self, ctx: api.RunContext) -> "list[api.Axis]":
        step_sweeps = ctx.params["step_sweeps"]
        if step_sweeps is None:
            step_sweeps = DEFAULT_STEP_SWEEPS
        pairs = [
            (group, float(step))
            for group, steps in step_sweeps.items()
            for step in steps
        ]
        return [
            api.Axis("method", SEGMENTATION_METHODS),
            api.Axis(("group", "step"), pairs),
        ]

    def scalar_names(self, ctx: api.RunContext) -> "tuple[str, ...]":
        return ("baseline_accuracy",)

    def compute_scalar(self, ctx: api.RunContext, state, name: str):
        return state[name]

    def state_key(self, ctx: api.RunContext):
        classifier = ctx.params["classifier"]
        if classifier is None:
            return ctx.config.task_key()
        # Keys of externally supplied classifiers are not reconstructible
        # from the config; they only resolve through a warm memo.
        return (ctx.config.task_key(), id(classifier))

    def setup_state(self, ctx: api.RunContext) -> Optional[dict]:
        classifier = ctx.params["classifier"]
        if classifier is None:
            return None
        train_dataset, test_dataset = make_splits(ctx.config)
        return _finish_state(ctx.config, train_dataset, test_dataset, classifier)

    def build_state(self, key) -> dict:
        """Reconstruct the sweep's shared state from the config alone.

        Runs in the parent before the pool opens (fork workers then
        inherit the result for free) and in any worker whose memo is
        cold.  The classifier is retrained from the config seeds, so a
        cold rebuild is bit-identical to the parent's copy.
        """
        if isinstance(key, tuple):
            raise RuntimeError(
                "Fig. 5 worker state for an externally supplied classifier "
                "cannot be rebuilt from the config; this indicates a cold "
                "worker on a non-fork platform"
            )
        config = key
        train_dataset, test_dataset = make_splits(config)
        classifier = train_classifier(train_dataset, config)
        return _finish_state(config, train_dataset, test_dataset, classifier)

    def compute_cell(self, key, state, cell: dict, extra) -> Fig5Entry:
        """One (segmentation method, group, step) grid point."""
        segmentation = state["segmentations"][cell["method"]]
        baseline_accuracy = state["baseline_accuracy"]
        table = group_quantization_table(
            segmentation, cell["group"], cell["step"]
        )
        compressed = compress_dataset_with_table(
            state["test_dataset"], table, method=table.name
        )
        accuracy = state["classifier"].accuracy_on(compressed)
        return Fig5Entry(
            method=cell["method"],
            group=cell["group"],
            step=float(cell["step"]),
            accuracy=accuracy,
            normalized_accuracy=(
                accuracy / baseline_accuracy if baseline_accuracy > 0 else 0.0
            ),
        )

    def cell_to_payload(self, value: Fig5Entry) -> dict:
        return asdict(value)

    def cell_from_payload(self, payload: dict) -> Fig5Entry:
        return Fig5Entry(**payload)

    def assemble(
        self, ctx: api.RunContext, results: list, scalars: dict
    ) -> Fig5Result:
        result = Fig5Result(baseline_accuracy=scalars["baseline_accuracy"])
        result.entries.extend(results)
        return result

    def report(self, result: Fig5Result) -> str:
        return (
            result.format_table()
            + f"\n\nDerived design anchors: {result.derived_anchors()}"
        )


api.register_experiment(Fig5Experiment.name, Fig5Experiment)


def run(
    config: ExperimentConfig = None,
    step_sweeps: dict = None,
    classifier: TrainedClassifier = None,
    store: Optional[ArtifactStore] = None,
) -> Fig5Result:
    """:func:`repro.experiments.api.run_experiment` of :class:`Fig5Experiment`.

    Kept only for the set-up of the ``perfbench`` workloads, which derive
    their design anchors through it; every other caller runs
    ``run_experiment(build_experiment("fig5"), config, ...)``.
    """
    return api.run_experiment(
        Fig5Experiment(), config, store=store,
        step_sweeps=step_sweeps, classifier=classifier,
    )
