"""Fig. 6: trading compression rate against accuracy through the LF slope k3.

For each candidate ``k3`` the DeepN-JPEG table is re-designed, the train
and test sets are compressed with it, a classifier is trained on the
compressed training set and evaluated on the compressed test set (the
end-to-end deployment scenario), and the compression rate is reported
relative to the QF=100 "Original" dataset.

Declared on :mod:`repro.experiments.api` as one ``k3`` axis whose cells
are addressed by the base design they perturb, plus a cached
``baseline_accuracy`` scalar.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.core.baselines import JpegCompressor
from repro.core.config import DeepNJpegConfig
from repro.core.pipeline import DeepNJpeg
from repro.experiments import api
from repro.experiments.common import (
    ExperimentConfig,
    format_table,
    make_splits,
    relative_compression_rate,
    train_classifier,
)
from repro.experiments.design_flow import derive_design_config

#: The k3 values swept in the paper's Fig. 6.
FIG6_K3_VALUES = (1.0, 2.0, 3.0, 4.0, 5.0)
#: Table columns (shared by the result table and the CLI --json payload).
FIG6_HEADERS = ["LF slope", "CR (vs QF=100)", "Top-1 accuracy", "Mean Q step"]


@dataclass(frozen=True)
class Fig6Entry:
    """Compression rate and accuracy for one k3 value."""

    k3: float
    compression_ratio: float
    accuracy: float
    mean_quantization_step: float


@dataclass
class Fig6Result:
    """All k3 sweep points."""

    entries: "list[Fig6Entry]" = field(default_factory=list)
    baseline_accuracy: float = 0.0

    def rows(self) -> "list[list]":
        return [
            [f"k3={entry.k3:g}", entry.compression_ratio, entry.accuracy,
             entry.mean_quantization_step]
            for entry in self.entries
        ]

    def format_table(self) -> str:
        return format_table(FIG6_HEADERS, self.rows())

    def best_k3(self, tolerance: float = 0.01) -> float:
        """The k3 giving the best CR while staying within ``tolerance`` of
        the baseline accuracy (the paper's selection rule)."""
        acceptable = [
            entry for entry in self.entries
            if entry.accuracy >= self.baseline_accuracy - tolerance
        ]
        candidates = acceptable if acceptable else self.entries
        return max(candidates, key=lambda entry: entry.compression_ratio).k3


class Fig6Experiment(api.Experiment):
    """The k3 trade-off sweep as a declarative experiment."""

    name = "fig6"
    title = "Compression-rate / accuracy trade-off over the LF slope k3"
    headers = FIG6_HEADERS
    defaults = {"k3_values": FIG6_K3_VALUES, "anchors": None}

    def prepare(self, ctx: api.RunContext) -> None:
        # The base design every cell perturbs; resumes its embedded
        # Fig. 5 sweeps from the store when anchors are not supplied.
        ctx.derived["base_design"] = derive_design_config(
            ctx.config, anchors=ctx.params["anchors"], store=ctx.store
        )

    def axes(self, ctx: api.RunContext) -> "list[api.Axis]":
        return [
            api.Axis(
                "k3", tuple(float(k3) for k3 in ctx.params["k3_values"])
            )
        ]

    def cell_identity(self, ctx: api.RunContext, point: dict) -> dict:
        return {
            "k3": point["k3"],
            "design": ctx.derived["base_design"].to_json(),
        }

    def scalar_names(self, ctx: api.RunContext) -> "tuple[str, ...]":
        return ("baseline_accuracy",)

    def compute_scalar(self, ctx: api.RunContext, state, name: str) -> float:
        # Baseline: classifier trained and tested on the QF=100 dataset.
        original_train = JpegCompressor(100).compress_dataset(
            state["train_dataset"]
        )
        baseline = train_classifier(original_train, ctx.config)
        return baseline.accuracy_on(state["original_test"])

    def build_state(self, config: ExperimentConfig) -> dict:
        """Shared state of the k3 sweep, reconstructible from the config.

        The QF=100 reference compression of the test set lives here so a
        worker can compute its cell's relative compression rate locally —
        the same deterministic reference every other cell derives.
        """
        train_dataset, test_dataset = make_splits(config)
        return {
            "train_dataset": train_dataset,
            "test_dataset": test_dataset,
            "original_test": JpegCompressor(100).compress_dataset(test_dataset),
        }

    def task_extra(self, ctx: api.RunContext, index: int, cell: dict):
        # Ship the base design object itself — a few floats, never arrays.
        return ctx.derived["base_design"]

    def compute_cell(self, key, state, cell: dict, extra) -> Fig6Entry:
        """One k3 grid point: design, compress, train, evaluate."""
        base_design, k3 = extra, cell["k3"]
        design_config = DeepNJpegConfig(
            lf_band_count=base_design.lf_band_count,
            mf_band_count=base_design.mf_band_count,
            q_max_step=base_design.q_max_step,
            q1=base_design.q1,
            q2=base_design.q2,
            q_min=base_design.q_min,
            k3=float(k3),
            lf_intercept=base_design.lf_intercept,
            sampling_interval=base_design.sampling_interval,
        )
        deepn = DeepNJpeg(design_config).fit(state["train_dataset"])
        compressed_train = deepn.compress_dataset(state["train_dataset"])
        compressed_test = deepn.compress_dataset(state["test_dataset"])
        classifier = train_classifier(compressed_train, key)
        return Fig6Entry(
            k3=float(k3),
            compression_ratio=relative_compression_rate(
                compressed_test, state["original_test"]
            ),
            accuracy=classifier.accuracy_on(compressed_test),
            mean_quantization_step=deepn.table.mean_step(),
        )

    def cell_to_payload(self, value: Fig6Entry) -> dict:
        return asdict(value)

    def cell_from_payload(self, payload: dict) -> Fig6Entry:
        return Fig6Entry(**payload)

    def assemble(
        self, ctx: api.RunContext, results: list, scalars: dict
    ) -> Fig6Result:
        result = Fig6Result(baseline_accuracy=scalars["baseline_accuracy"])
        result.entries.extend(results)
        return result

    def report(self, result: Fig6Result) -> str:
        return result.format_table() + f"\n\nSelected k3 = {result.best_k3():g}"


api.register_experiment(Fig6Experiment.name, Fig6Experiment)
