"""Fig. 7: compression rate and accuracy of DeepN-JPEG vs the baselines.

The compared candidates are those of the paper: the "Original" dataset
(JPEG at QF=100, the CR=1 reference), "RM-HF" (remove the top-N highest
frequency components, N ∈ {3, 6, 9}), "SAME-Q" (one quantization step for
every band, step ∈ {4, 8, 12}) and DeepN-JPEG.  For every candidate the
train and test sets are compressed, a classifier is trained on the
compressed training set and evaluated on the compressed test set, and the
compression rate is reported relative to "Original".

Declared on :mod:`repro.experiments.api` as one ``codec`` axis over the
candidates' ``spec()`` identities; each cell returns absolute byte
counts and the assemble step derives the relative compression rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.baselines import (
    DatasetCompressor,
    JpegCompressor,
    RemoveHighFrequencyCompressor,
    SameQCompressor,
)
from repro.core.pipeline import DeepNJpeg
from repro.experiments import api
from repro.experiments.common import (
    format_table,
    lazy_splits,
    train_classifier,
)
from repro.experiments.design_flow import derive_design_config, fitted_pipeline

#: RM-HF and SAME-Q parameter sets evaluated in the paper's Fig. 7.
FIG7_RMHF_COMPONENTS = (3, 6, 9)
FIG7_SAMEQ_STEPS = (4, 8, 12)
#: Table columns (shared by the result table and the CLI --json payload).
FIG7_HEADERS = [
    "Method", "CR (vs Original)", "Top-1 accuracy",
    "Bytes/image", "PSNR (dB)",
]


@dataclass(frozen=True)
class Fig7Entry:
    """Compression rate and accuracy of one candidate."""

    method: str
    compression_ratio: float
    accuracy: float
    bytes_per_image: float
    mean_psnr: float


@dataclass
class Fig7Result:
    """All candidates of the Fig. 7 comparison."""

    entries: "list[Fig7Entry]" = field(default_factory=list)

    def rows(self) -> "list[list]":
        return [
            [entry.method, entry.compression_ratio, entry.accuracy,
             round(entry.bytes_per_image, 1), entry.mean_psnr]
            for entry in self.entries
        ]

    def format_table(self) -> str:
        return format_table(FIG7_HEADERS, self.rows())

    def bytes_per_image_by_method(self) -> dict:
        """Average compressed bytes per image, keyed by method (for Fig. 9)."""
        return {
            entry.method: entry.bytes_per_image for entry in self.entries
        }


def candidate_compressors(
    deepn: DeepNJpeg,
    rmhf_components: "tuple[int, ...]" = FIG7_RMHF_COMPONENTS,
    sameq_steps: "tuple[int, ...]" = FIG7_SAMEQ_STEPS,
) -> "list[DatasetCompressor | DeepNJpeg]":
    """The ordered candidates compared in Fig. 7, the fitted ``deepn`` last."""
    compressors: "list[DatasetCompressor | DeepNJpeg]" = [JpegCompressor(100)]
    compressors.extend(
        RemoveHighFrequencyCompressor(count) for count in rmhf_components
    )
    compressors.extend(SameQCompressor(step) for step in sameq_steps)
    compressors.append(deepn)
    return compressors


class Fig7Experiment(api.Experiment):
    """The candidate comparison as a declarative experiment."""

    name = "fig7"
    title = "Compression rate and accuracy of all candidate compressors"
    headers = FIG7_HEADERS
    defaults = {
        "deepn_config": None,
        "anchors": None,
        "rmhf_components": FIG7_RMHF_COMPONENTS,
        "sameq_steps": FIG7_SAMEQ_STEPS,
    }

    def prepare(self, ctx: api.RunContext) -> None:
        deepn_config = ctx.params["deepn_config"]
        if deepn_config is None:
            deepn_config = derive_design_config(
                ctx.config, anchors=ctx.params["anchors"], store=ctx.store
            )
        # The fitted design is itself a store artifact, so a warm fit
        # never materialises the splits.
        splits = lazy_splits(ctx.config)
        deepn = fitted_pipeline(
            ctx.config, deepn_config, lambda: splits()[0], store=ctx.store
        )
        ctx.derived["splits"] = splits
        ctx.derived["compressors"] = candidate_compressors(
            deepn,
            tuple(ctx.params["rmhf_components"]),
            tuple(ctx.params["sameq_steps"]),
        )

    def axes(self, ctx: api.RunContext) -> "list[api.Axis]":
        return [
            api.Axis(
                "codec",
                [compressor.spec() for compressor in ctx.derived["compressors"]],
            )
        ]

    def build_state(self, ctx: api.RunContext) -> dict:
        """The two splits every candidate compresses."""
        train_dataset, test_dataset = ctx.derived["splits"]()
        return {"train_dataset": train_dataset, "test_dataset": test_dataset}

    def task_extra(self, ctx: api.RunContext, index: int, cell: dict):
        # Ship the candidate compressor itself — a fitted DeepN-JPEG
        # pipeline pickles to a few KB of table state, never arrays.
        return ctx.derived["compressors"][index]

    def compute_cell(self, key, state, cell: dict, extra) -> tuple:
        """One candidate: compress train/test, train, evaluate.

        Returns the entry fields plus the candidate's absolute
        compressed size; :meth:`assemble` derives the relative
        compression rate against the first candidate once all sizes are
        in.
        """
        compressor = extra
        compressed_train = compressor.compress_dataset(state["train_dataset"])
        compressed_test = compressor.compress_dataset(state["test_dataset"])
        classifier = train_classifier(compressed_train, key)
        method_name = (
            "Original" if compressor.name == "JPEG (QF=100)" else compressor.name
        )
        return (
            method_name,
            compressed_test.total_bytes,
            classifier.accuracy_on(compressed_test),
            compressed_test.bytes_per_image,
            compressed_test.mean_psnr,
        )

    def cell_to_payload(self, value: tuple) -> list:
        return list(value)

    def cell_from_payload(self, payload: list) -> tuple:
        return tuple(payload)

    def assemble(
        self, ctx: api.RunContext, results: list, scalars: dict
    ) -> Fig7Result:
        result = Fig7Result()
        reference_bytes = results[0][1] if results else 0
        for method_name, total_bytes, accuracy, bytes_per_image, mean_psnr in (
            results
        ):
            result.entries.append(
                Fig7Entry(
                    method=method_name,
                    compression_ratio=reference_bytes / total_bytes,
                    accuracy=accuracy,
                    bytes_per_image=bytes_per_image,
                    mean_psnr=mean_psnr,
                )
            )
        return result


api.register_experiment(Fig7Experiment.name, Fig7Experiment)
