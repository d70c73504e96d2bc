"""Fig. 8: generality of DeepN-JPEG across DNN architectures.

Every architecture family of the paper (GoogLeNet, VGG, ResNet-34,
ResNet-50 — plus AlexNet for completeness) is trained and tested on the
dataset compressed by each candidate: Original (QF=100), DeepN-JPEG, and
quality-factor-scaled JPEG at QF=80 and QF=50.  The paper's claim is that
DeepN-JPEG maintains the original accuracy for every architecture while
the aggressive QF-scaled JPEG does not, at a comparable compression rate.

Declared on :mod:`repro.experiments.api` as a ``model`` × ``method``
grid whose shared state is the four candidate compressions of both
splits, built from the fitted design.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.core.baselines import JpegCompressor
from repro.experiments import api
from repro.experiments.common import (
    format_table,
    lazy_splits,
    relative_compression_rate,
    train_classifier,
)
from repro.experiments.design_flow import derive_design_config, fitted_pipeline

#: Models evaluated in the paper's Fig. 8.
FIG8_MODELS = ("GoogLeNet", "VGG-16", "ResNet-34", "ResNet-50")
#: Compression candidates evaluated per model.
FIG8_METHODS = ("Original", "DeepN-JPEG", "JPEG (QF=80)", "JPEG (QF=50)")
#: Table columns (shared by the result table and the CLI --json payload).
FIG8_HEADERS = ["Model", "Method", "Top-1 accuracy", "CR (vs Original)"]


@dataclass(frozen=True)
class Fig8Entry:
    """Accuracy of one (model, compression method) pair."""

    model: str
    method: str
    accuracy: float
    compression_ratio: float


@dataclass
class Fig8Result:
    """All (model, method) accuracy measurements."""

    entries: "list[Fig8Entry]" = field(default_factory=list)

    def rows(self) -> "list[list]":
        return [
            [entry.model, entry.method, entry.accuracy, entry.compression_ratio]
            for entry in self.entries
        ]

    def format_table(self) -> str:
        return format_table(FIG8_HEADERS, self.rows())


class Fig8Experiment(api.Experiment):
    """The cross-architecture generality grid as a declarative experiment."""

    name = "fig8"
    title = "Generality across DNN architectures (model × method grid)"
    headers = FIG8_HEADERS
    defaults = {
        "model_names": FIG8_MODELS,
        "deepn_config": None,
        "anchors": None,
        "epochs": None,
    }

    def prepare(self, ctx: api.RunContext) -> None:
        splits = lazy_splits(ctx.config)
        deepn_config = ctx.params["deepn_config"]
        if deepn_config is None:
            deepn_config = derive_design_config(
                ctx.config, anchors=ctx.params["anchors"], store=ctx.store
            )
        deepn = fitted_pipeline(
            ctx.config, deepn_config, lambda: splits()[0], store=ctx.store
        )
        ctx.derived["candidates"] = {
            "Original": JpegCompressor(100),
            "DeepN-JPEG": deepn,
            "JPEG (QF=80)": JpegCompressor(80),
            "JPEG (QF=50)": JpegCompressor(50),
        }
        ctx.derived["splits"] = splits

    def axes(self, ctx: api.RunContext) -> "list[api.Axis]":
        candidates = ctx.derived["candidates"]
        methods = [
            method for method in FIG8_METHODS if method in candidates
        ]
        return [
            api.Axis("model", tuple(ctx.params["model_names"])),
            api.Axis("method", tuple(methods)),
        ]

    def cell_identity(self, ctx: api.RunContext, point: dict) -> dict:
        return {
            "model": point["model"],
            "method": point["method"],
            "epochs": ctx.params["epochs"],
            "codec": ctx.derived["candidates"][point["method"]].spec(),
        }

    def build_state(self, ctx: api.RunContext) -> dict:
        """Both splits compressed with every candidate.

        The compressions depend on the (possibly caller-supplied)
        DeepN-JPEG design, which only ``prepare`` knows.
        """
        train_dataset, test_dataset = ctx.derived["splits"]()
        compressed = {}
        for method, compressor in ctx.derived["candidates"].items():
            compressed[method] = (
                compressor.compress_dataset(train_dataset),
                compressor.compress_dataset(test_dataset),
            )
        return {"compressed": compressed}

    def compute_cell(self, key, state, cell: dict, extra) -> Fig8Entry:
        """One (model, method) grid point: train and evaluate one classifier."""
        compressed_train, compressed_test = state["compressed"][cell["method"]]
        classifier = train_classifier(
            compressed_train, key, model_name=cell["model"],
            epochs=cell["epochs"],
        )
        return Fig8Entry(
            model=cell["model"],
            method=cell["method"],
            accuracy=classifier.accuracy_on(compressed_test),
            compression_ratio=relative_compression_rate(
                compressed_test, state["compressed"]["Original"][1]
            ),
        )

    def cell_to_payload(self, value: Fig8Entry) -> dict:
        return asdict(value)

    def cell_from_payload(self, payload: dict) -> Fig8Entry:
        return Fig8Entry(**payload)

    def assemble(
        self, ctx: api.RunContext, results: list, scalars: dict
    ) -> Fig8Result:
        result = Fig8Result()
        result.entries.extend(results)
        return result


api.register_experiment(Fig8Experiment.name, Fig8Experiment)
