"""Fig. 2: accuracy degradation of HVS-oriented JPEG at high compression.

CASE 1 trains the classifier on high-quality (QF=100) images and tests it
on images compressed at various quality factors; CASE 2 trains on the
compressed images and tests on high-quality ones.  Fig. 2(a) reports the
final accuracy of both cases at QF ∈ {100, 50, 20}; Fig. 2(b) tracks the
CASE-2 accuracy over training epochs.

Declared on :mod:`repro.experiments.api` as a single ``quality`` axis
whose cell function runs one CASE-1 evaluation plus one CASE-2 training
run; the framework supplies caching, resume and sharding.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.core.baselines import JpegCompressor
from repro.experiments import api
from repro.experiments.common import (
    format_table,
    make_splits,
    relative_compression_rate,
    train_classifier,
)

#: Quality factors evaluated in the figure.
FIG2_QUALITY_FACTORS = (100, 50, 20)
#: Table columns (shared by the result table and the CLI --json payload).
FIG2_HEADERS = ["Quality", "CR (vs QF=100)", "CASE 1 top-1", "CASE 2 top-1"]


@dataclass(frozen=True)
class Fig2Entry:
    """One (quality factor, case) accuracy measurement."""

    quality: int
    compression_ratio: float
    case1_accuracy: float
    case2_accuracy: float
    case2_accuracy_per_epoch: "tuple[float, ...]"


@dataclass
class Fig2Result:
    """All measurements behind Fig. 2(a) and 2(b)."""

    entries: "list[Fig2Entry]" = field(default_factory=list)

    def rows(self) -> "list[list]":
        return [
            [
                f"QF={entry.quality}",
                entry.compression_ratio,
                entry.case1_accuracy,
                entry.case2_accuracy,
            ]
            for entry in self.entries
        ]

    def format_table(self) -> str:
        return format_table(FIG2_HEADERS, self.rows())

    def epoch_curves(self) -> dict:
        """Fig. 2(b): CASE-2 validation accuracy per epoch, keyed by QF."""
        return {
            entry.quality: list(entry.case2_accuracy_per_epoch)
            for entry in self.entries
        }


class Fig2Experiment(api.Experiment):
    """The QF-sweep motivation experiment as a declarative experiment."""

    name = "fig2"
    title = "Accuracy vs JPEG quality factor (CASE 1 / CASE 2)"
    headers = FIG2_HEADERS
    defaults = {"quality_factors": FIG2_QUALITY_FACTORS}

    def _quality_factors(self, ctx: api.RunContext) -> "tuple[int, ...]":
        return tuple(ctx.params["quality_factors"])

    def axes(self, ctx: api.RunContext) -> "list[api.Axis]":
        return [api.Axis("quality", self._quality_factors(ctx))]

    def cell_identity(self, ctx: api.RunContext, point: dict) -> dict:
        quality = point["quality"]
        return {
            "quality": int(quality),
            "quality_factors": list(self._quality_factors(ctx)),
            "codec": JpegCompressor(quality).spec(),
        }

    def state_key(self, ctx: api.RunContext):
        return (ctx.config.task_key(), self._quality_factors(ctx))

    def build_state(self, key: tuple) -> dict:
        """Shared state of the QF sweep, keyed by (config, quality factors).

        The per-quality compressions and the CASE-1 model are
        reconstructed from the key alone, so a cold worker reproduces
        the parent's state bit for bit.
        """
        config, quality_factors = key
        train_dataset, test_dataset = make_splits(config)
        compressed_train = {
            quality: JpegCompressor(quality).compress_dataset(train_dataset)
            for quality in quality_factors
        }
        compressed_test = {
            quality: JpegCompressor(quality).compress_dataset(test_dataset)
            for quality in quality_factors
        }
        case1_model = train_classifier(
            compressed_train[max(quality_factors)], config
        )
        return {
            "compressed_train": compressed_train,
            "compressed_test": compressed_test,
            "case1_model": case1_model,
        }

    def compute_cell(self, key, state, cell: dict, extra) -> Fig2Entry:
        """One quality factor: CASE-1 evaluation plus a CASE-2 training run."""
        config, quality_factors = key
        quality = cell["quality"]
        best = max(quality_factors)
        compressed_test = state["compressed_test"]
        case1_accuracy = state["case1_model"].accuracy_on(
            compressed_test[quality]
        )
        # CASE 2: train on images compressed at this QF, test on high quality.
        case2_model = train_classifier(
            state["compressed_train"][quality],
            config,
            validation_dataset=compressed_test[best],
        )
        case2_accuracy = case2_model.accuracy_on(compressed_test[best])
        return Fig2Entry(
            quality=quality,
            compression_ratio=relative_compression_rate(
                compressed_test[quality], compressed_test[best]
            ),
            case1_accuracy=case1_accuracy,
            case2_accuracy=case2_accuracy,
            case2_accuracy_per_epoch=tuple(
                case2_model.history.validation_accuracy
            ),
        )

    def cell_to_payload(self, value: Fig2Entry) -> dict:
        return asdict(value)

    def cell_from_payload(self, payload: dict) -> Fig2Entry:
        payload = dict(payload)
        payload["case2_accuracy_per_epoch"] = tuple(
            payload["case2_accuracy_per_epoch"]
        )
        return Fig2Entry(**payload)

    def assemble(
        self, ctx: api.RunContext, results: list, scalars: dict
    ) -> Fig2Result:
        result = Fig2Result()
        result.entries.extend(results)
        return result

    def report(self, result: Fig2Result) -> str:
        lines = [
            result.format_table(),
            "",
            "CASE 2 accuracy per epoch (Fig. 2b):",
        ]
        for quality, curve in result.epoch_curves().items():
            lines.append(
                f"  QF={quality}: "
                + ", ".join(f"{accuracy:.2f}" for accuracy in curve)
            )
        return "\n".join(lines)


api.register_experiment(Fig2Experiment.name, Fig2Experiment)
